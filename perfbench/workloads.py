"""The benchmark's three workloads.

Each workload generates its inputs at set-up, from the workload seed,
and then runs one operation at a time through the package's public
entry points. `run()` is the timed operation; `inspect()` checks its
outputs afterwards, outside the timed region, and returns an Outcome.

Everything here reaches the package through module attributes
(`cli.main`, `selection.run_aco`), never through names copied into this
module, so that the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import json
import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from antdistill import cli, config, selection

ABLATION_HEADER = "approach,accuracy,macro_f1,macro_recall,macro_precision"
TABLE11_TAGS = ["gaussian", "salt_pepper", "uniform", "clean"]

# README default config, with every seed set from the workload seed
# (the README itself uses seed 7)
DISTILL_CONFIG = """\
[data]
samples = {samples}
classes = 4
dim = 8
complexity = 0.3
noise_kind = gaussian
noise_level = 0.8
noise_fraction = 0.5
seed = {seed}

[policy]
variant = rule_based

[kd]
t_base = 0.5
epochs = {epochs}
batch_size = 32
learning_rate = 0.05
seed = {seed}
teacher_hidden = 32,32
student_hidden = 16,16
"""

# fixed pool for select-aco-pairs: hidden dims and learning rate vary,
# 10 epochs each
ACO_POOL = [
    {"name": "mlp-32x32", "hidden_dims": [32, 32], "learning_rate": 0.05, "epochs": 10},
    {"name": "mlp-16x16", "hidden_dims": [16, 16], "learning_rate": 0.05, "epochs": 10},
    {"name": "mlp-8", "hidden_dims": [8], "learning_rate": 0.05, "epochs": 10},
    {"name": "mlp-32-fast", "hidden_dims": [32], "learning_rate": 0.1, "epochs": 10},
    {"name": "mlp-16x16-slow", "hidden_dims": [16, 16], "learning_rate": 0.02, "epochs": 10},
    {"name": "mlp-64x32", "hidden_dims": [64, 32], "learning_rate": 0.05, "epochs": 10},
]
# The ACO trajectory, and with it the number of trainings per operation,
# depends on every bit of the dataset: across data seeds one operation
# took 22-31 s (24-32 unique evaluations), a spread wider than any
# bound the benchmark may set. So select-aco-pairs always runs on the
# README dataset (data seed 7), whatever the workload seed.
ACO_DATA_SEED = 7
# classes of the evaluate-large predictions, warm-up included
EVAL_CLASSES = 10


@dataclass
class Outcome:
    """What one operation produced, as run.py needs it."""

    digest: str  # hash of every output; repeats within a run must match
    quality: float  # deterministic result; a worse value means changed results
    units: int  # work done, in the workload's throughput unit
    problems: list[str]  # failed output checks; empty when the outputs are correct


def _digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(part if isinstance(part, bytes) else str(part).encode())
        h.update(b"\0")
    return h.hexdigest()


def _dir_digest(path: Path, stdout: str) -> str:
    files = sorted(p for p in path.rglob("*") if p.is_file())
    return _digest(stdout, *(x for p in files for x in (p.relative_to(path), p.read_bytes())))


def _check_warm_up(exit_code: int) -> None:
    if exit_code != 0:
        raise RuntimeError(f"warm-up exited with code {exit_code}")


def experiment_dataset(config_path: Path):
    """The (noisy) experiment dataset the CLI builds from a config's [data]
    section, built by the CLI's own code."""
    return cli._build_dataset(config.load_config(config_path))[1]


class Workload:
    name = ""
    unit = ""  # what one unit of throughput is

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True)
        self.out = self.workdir / "out"

    def warm_up(self) -> None:
        """Run the operation's code path once on tiny inputs."""
        raise NotImplementedError

    def reset(self) -> None:
        """Remove the previous operation's outputs and garbage (untimed), so
        that every operation starts from the same state."""
        shutil.rmtree(self.out, ignore_errors=True)
        gc.collect()

    def run(self):
        raise NotImplementedError

    def inspect(self, raw, stdout: str) -> Outcome:
        raise NotImplementedError


class DistillTable11(Workload):
    """`antdistill distill --ablation table11` on the README config."""

    name = "distill-table11"
    unit = "training rows"

    def __init__(self, seed: int, workdir: Path, samples: int = 600, epochs: int = 30):
        super().__init__(seed, workdir)
        self.config = self.workdir / "exp.ini"
        self.config.write_text(DISTILL_CONFIG.format(samples=samples, epochs=epochs, seed=seed))
        train_rows = experiment_dataset(self.config).indices("train").size
        # one teacher plus one student per noise condition, all on the same train split
        self.rows_per_op = (1 + len(TABLE11_TAGS)) * epochs * train_rows

    def warm_up(self) -> None:
        tiny = self.workdir / "warm.ini"
        # 200 samples, not the minimum 40: a set-up of a few tens of ms
        # swung far more with the machine's speed than the operations did
        tiny.write_text(DISTILL_CONFIG.format(samples=200, epochs=1, seed=self.seed))
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["distill", "--config", str(tiny), "--ablation", "table11",
                           "--out", str(self.workdir / "warm")])
        _check_warm_up(rc)

    def run(self):
        return cli.main(["distill", "--config", str(self.config), "--ablation", "table11",
                         "--out", str(self.out)])

    def inspect(self, raw, stdout: str) -> Outcome:
        problems = [] if raw == 0 else [f"exit code {raw}"]
        quality = 0.0
        try:
            lines = (self.out / "ablation.csv").read_text().splitlines()
            if lines[:1] != [ABLATION_HEADER]:
                problems.append(f"ablation.csv header is {lines[:1]}")
            rows = [line.split(",") for line in lines[1:]]
            if [r[0] for r in rows] != TABLE11_TAGS:
                problems.append(f"ablation.csv rows are {[r[0] for r in rows]}")
            accuracies = [float(r[1]) for r in rows]
            if not all(0.0 <= a <= 1.0 for a in accuracies):
                problems.append(f"accuracy outside [0, 1]: {accuracies}")
            quality = float(np.mean(accuracies))
        except (OSError, ValueError, IndexError) as exc:
            problems.append(f"unreadable ablation.csv: {exc}")
        digest = _dir_digest(self.out, stdout) if self.out.is_dir() else ""
        return Outcome(digest, quality, self.rows_per_op if not problems else 0, problems)


class SelectAcoPairs(Workload):
    """ACO in pair mode with AcoConfig defaults on a fixed MLP pool.

    Calls the library: `antdistill select` rejects MLP pools today.
    """

    name = "select-aco-pairs"
    unit = "unique evaluations"

    def __init__(self, seed: int, workdir: Path, pool=ACO_POOL, samples: int = 600,
                 aco: selection.AcoConfig | None = None):
        super().__init__(seed, workdir)
        data_config = self.workdir / "data.ini"
        data_config.write_text(DISTILL_CONFIG.format(samples=samples, epochs=1, seed=ACO_DATA_SEED))
        self.dataset = experiment_dataset(data_config)
        self.pool_path = self.workdir / "pool.json"
        self.pool_path.write_text(json.dumps({"candidates": pool}))
        self.pool_size = len(pool)
        self.aco = aco or selection.AcoConfig()

    def warm_up(self) -> None:
        tiny = self.workdir / "warm.json"
        tiny.write_text(json.dumps({"candidates": [
            {"name": "a", "hidden_dims": [4], "epochs": 1},
            {"name": "b", "hidden_dims": [4], "epochs": 1},
        ]}))
        pool = selection.load_pool(tiny, self.dataset)
        selection.run_aco(pool, selection.AcoConfig(n_ants=1, n_iterations=1), pair_mode=True)

    def run(self):
        pool = selection.load_pool(self.pool_path, self.dataset)
        return selection.run_aco(pool, self.aco, pair_mode=True)

    def inspect(self, raw, stdout: str) -> Outcome:
        report = raw
        m = self.pool_size
        problems = []
        if not 0.0 <= report.best_score <= 1.0:
            problems.append(f"best_score {report.best_score} outside [0, 1]")
        if not report.unique_evaluations <= report.total_selections:
            problems.append(
                f"unique_evaluations {report.unique_evaluations} > "
                f"total_selections {report.total_selections}"
            )
        if report.total_selections != self.aco.n_ants * self.aco.n_iterations:
            problems.append(f"total_selections is {report.total_selections}")
        pair = report.best_id
        if not (isinstance(pair, list) and len(pair) == 2 and pair[0] != pair[1]
                and all(isinstance(i, int) and 0 <= i < m for i in pair)):
            problems.append(f"best_id {pair!r} is not a valid teacher/student pair")
        elif [report.teacher_id, report.student_id] != pair:
            problems.append("teacher_id/student_id differ from best_id")
        for key in report.evaluated:
            t, s = (int(v) for v in key.split(","))
            if t == s or not (0 <= t < m and 0 <= s < m):
                problems.append(f"evaluated pair {key!r} is not valid")
        digest = _digest(stdout, report.to_json(), report.csv_row())
        units = report.unique_evaluations if not problems else 0
        return Outcome(digest, float(report.best_score), units, problems)


class EvaluateLarge(Workload):
    """`antdistill evaluate` on 50,000 predictions over 10 classes."""

    name = "evaluate-large"
    unit = "prediction rows"

    def __init__(self, seed: int, workdir: Path, rows: int = 50_000):
        super().__init__(seed, workdir)
        self.rows = rows
        self.predictions = self.workdir / "predictions.csv"
        self.labels = self.workdir / "labels.csv"
        probs, labels = _write_predictions(seed, rows, self.predictions, self.labels)
        self.want_accuracy = int(np.count_nonzero(probs.argmax(axis=1) == labels)) / rows
        self.want_auc = rank_sum_auc(probs, labels)

    def warm_up(self) -> None:
        preds, labels = self.workdir / "warm_predictions.csv", self.workdir / "warm_labels.csv"
        _write_predictions(self.seed, 200, preds, labels)
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["evaluate", "--predictions", str(preds), "--labels", str(labels),
                           "--out", str(self.workdir / "warm")])
        _check_warm_up(rc)

    def run(self):
        return cli.main(["evaluate", "--predictions", str(self.predictions),
                         "--labels", str(self.labels), "--out", str(self.out)])

    def inspect(self, raw, stdout: str) -> Outcome:
        problems = [] if raw == 0 else [f"exit code {raw}"]
        quality = 0.0
        try:
            summary = dict(
                line.split(",") for line in (self.out / "summary.csv").read_text().splitlines()
            )
            accuracy, quality = float(summary["accuracy"]), float(summary["auc_micro"])
            if accuracy != self.want_accuracy:
                problems.append(f"accuracy {accuracy!r}, numpy gives {self.want_accuracy!r}")
            if abs(quality - self.want_auc) > 1e-9:
                problems.append(f"auc_micro {quality!r}, rank-sum oracle gives {self.want_auc!r}")
            if not 0.0 <= float(summary["ap_micro"]) <= 1.0:
                problems.append(f"ap_micro {summary['ap_micro']} outside [0, 1]")
            n_lines = len((self.out / "metrics.csv").read_text().splitlines())
            if n_lines != 1 + EVAL_CLASSES + 2:
                problems.append(f"metrics.csv has {n_lines} lines")
        except (OSError, ValueError, KeyError) as exc:
            problems.append(f"unreadable evaluate outputs: {exc}")
        digest = _dir_digest(self.out, stdout) if self.out.is_dir() else ""
        return Outcome(digest, quality, self.rows if not problems else 0, problems)


def _write_predictions(seed: int, rows: int, preds_path: Path, labels_path: Path):
    """Softmax scores with a signal on the true class; pred is their argmax.

    Floats are written with repr(), so the program parses back exactly
    the values the oracles see.
    """
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, EVAL_CLASSES, rows)
    logits = rng.normal(size=(rows, EVAL_CLASSES))
    logits[np.arange(rows), labels] += 1.5
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    preds = probs.argmax(axis=1)
    header = "pred," + ",".join(f"p{j}" for j in range(EVAL_CLASSES)) + "\n"
    with open(preds_path, "w") as fh:
        fh.write(header)
        fh.writelines(f"{p}," + ",".join(map(repr, row)) + "\n"
                      for p, row in zip(preds.tolist(), probs.tolist()))
    with open(labels_path, "w") as fh:
        fh.write("label\n")
        fh.writelines(f"{v}\n" for v in labels.tolist())
    return probs, labels


def rank_sum_auc(probs: np.ndarray, labels: np.ndarray) -> float:
    """Micro one-vs-rest ROC-AUC by the Mann-Whitney rank sum, ties averaged."""
    scores = probs.ravel()
    hits = np.zeros(probs.shape, dtype=bool)
    hits[np.arange(labels.size), labels] = True
    hits = hits.ravel()
    order = np.argsort(scores, kind="stable")
    _, first, counts = np.unique(scores[order], return_index=True, return_counts=True)
    ranks = np.empty(scores.size)
    ranks[order] = np.repeat(first + (counts + 1) / 2.0, counts)
    n_pos = int(hits.sum())
    n_neg = scores.size - n_pos
    u = ranks[hits].sum() - n_pos * (n_pos + 1) / 2.0
    return float(u / (n_pos * n_neg))


WORKLOADS = {w.name: w for w in (DistillTable11, SelectAcoPairs, EvaluateLarge)}
