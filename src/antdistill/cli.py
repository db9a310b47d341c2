"""Command-line experiment harness.

Subcommands:
  gen-data        write a synthetic dataset file from a [data] section
  select          run one selection strategy (aco/random/grid/pso) on a pool
  distill         teacher -> student distillation, optionally as an
                  ablation grid (--ablation table10 | table11)
  evaluate        classification metrics from predictions/labels files
  repro-examples  recompute the built-in worked examples and verify them

Every command is deterministic given its config file; reruns produce
byte-identical outputs. Each run directory receives a copy of the config
next to its reports.
"""

from __future__ import annotations

import argparse
import io
import math
import shutil
import sys
import warnings
from pathlib import Path

import numpy as np

from . import metrics, numerics, selection, tinynet
from .config import RunConfig, build_policy, from_section, load_config
from .distill import KdConfig, distill_train
from .errors import ConfigParseError, ParseError, VerificationFailed
from .selection import AcoConfig, PsoConfig
from .temperature import (
    ConstantPolicy,
    ContextFeatures,
    RuleBasedPolicy,
    UncertaintyLinearPolicy,
    apply_policy,
)


def _prepare_out(cfg: RunConfig | None, override: str | None) -> Path:
    if override:
        out = Path(override)
    elif cfg is not None and cfg.has("out"):
        out = cfg.resolve(cfg.get("out", "dir"))
    else:
        raise ConfigParseError("no output directory: pass --out or add an [out] section")
    out.mkdir(parents=True, exist_ok=True)
    return out


def _copy_config(cfg: RunConfig, out: Path) -> None:
    shutil.copyfile(cfg.path, out / "config.ini")


def _build_dataset(cfg: RunConfig) -> tuple[tinynet.SyntheticDataset, tinynet.SyntheticDataset]:
    """Returns (clean, experiment) datasets from the [data] section."""
    samples = cfg.get("data", "samples")
    classes = cfg.get("data", "classes")
    dim = cfg.get("data", "dim")
    complexity = cfg.get("data", "complexity", default=[0.0])
    seed = cfg.get("data", "seed", default=0)
    comp = complexity if len(complexity) > 1 else complexity[0]
    clean = tinynet.generate_synthetic(samples, classes, dim, comp, seed)
    kind = cfg.get("data", "noise_kind", default="none")
    if kind == "none":
        return clean, clean
    level = cfg.get("data", "noise_level", default=0.0)
    fraction = cfg.get("data", "noise_fraction", default=1.0)
    noisy = tinynet.inject_noise(clean, kind, level, tinynet.derive_seed(seed, 101), fraction)
    return clean, noisy


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    out = _prepare_out(cfg, args.out)
    _copy_config(cfg, out)
    _, dataset = _build_dataset(cfg)
    tinynet.save_dataset(dataset, out / "dataset.csv")
    counts = {s: dataset.indices(s).size for s in tinynet.SPLITS}
    print(
        f"wrote {out / 'dataset.csv'}: n={dataset.n_samples} classes={dataset.n_classes} "
        f"train={counts['train']} val={counts['val']} test={counts['test']} "
        f"mean_noise={dataset.noise_level.mean():.6f}"
    )
    return 0


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def cmd_select(args) -> int:
    cfg = load_config(args.config)
    strategy = args.strategy
    options = dict(cfg.section(strategy))
    pool_path = cfg.resolve(cfg.get(strategy, "pool"))
    del options["pool"]
    # MLP candidates are scored by training on the [data] dataset
    dataset = _build_dataset(cfg)[1] if cfg.has("data") else None
    pool = selection.load_pool(pool_path, dataset)

    # every key but pool is a keyword argument of the strategy, except the
    # [aco]/[pso] keys that are AcoConfig/PsoConfig fields: those build its config
    run, config_cls = {
        "aco": (selection.run_aco, AcoConfig),
        "random": (selection.run_random, None),
        "grid": (selection.run_grid, None),
        "pso": (selection.run_pso, PsoConfig),
    }[strategy]
    if config_cls is None:
        report = run(pool, **options)
    else:
        strategy_cfg = from_section(config_cls, options)
        report = run(pool, strategy_cfg,
                     **{k: v for k, v in options.items() if k not in vars(strategy_cfg)})

    out = _prepare_out(cfg, args.out)
    _copy_config(cfg, out)
    (out / "report.json").write_text(report.to_json() + "\n")
    (out / "report.csv").write_text(selection.CSV_HEADER + "\n" + report.csv_row() + "\n")
    print(
        f"{strategy}: best={report.best_name} score={report.best_score:.6f} "
        f"unique_evaluations={report.unique_evaluations} "
        f"total_selections={report.total_selections}"
    )
    return 0


# ---------------------------------------------------------------------------
# distill
# ---------------------------------------------------------------------------


def _test_report(model: tinynet.MlpModel, dataset: tinynet.SyntheticDataset):
    """(class report, logits, labels) of model on the test split."""
    idx = dataset.indices("test")
    logits = tinynet.forward_batch(model, dataset.features[idx])
    labels = dataset.labels[idx]
    cm = metrics.confusion(np.argmax(logits, axis=1), labels, dataset.n_classes)
    return metrics.class_report(cm), logits, labels


def _metrics_row(tag: str, rep: metrics.ClassReport) -> str:
    return (
        f"{tag},{rep.accuracy!r},{rep.macro_f1!r},{rep.macro_recall!r},{rep.macro_precision!r}"
    )


ABLATION_HEADER = "approach,accuracy,macro_f1,macro_recall,macro_precision"


def cmd_distill(args) -> int:
    cfg = load_config(args.config)
    out = _prepare_out(cfg, args.out)
    _copy_config(cfg, out)
    clean, experiment = _build_dataset(cfg)
    kd = cfg.section("kd")
    train_cfg = from_section(tinynet.TrainConfig, kd)
    policy = build_policy(cfg.section("policy")) if cfg.has("policy") else RuleBasedPolicy()
    teacher = tinynet.init_mlp([clean.n_features, *kd.get("teacher_hidden", [32, 32]),
                                clean.n_classes], seed=tinynet.derive_seed(train_cfg.seed, 1))
    teacher, _ = tinynet.train_supervised(teacher, clean, train_cfg)

    def train_student(dataset, arm_policy=None):
        """(student, report) from a fresh student on dataset: distilled under
        arm_policy, or trained on the labels alone when it is None."""
        student = tinynet.init_mlp([dataset.n_features, *kd.get("student_hidden", [16, 16]),
                                    dataset.n_classes], seed=tinynet.derive_seed(train_cfg.seed, 2))
        if arm_policy is None:
            return tinynet.train_supervised(student, dataset, train_cfg)
        kd_cfg = from_section(KdConfig, kd, policy=arm_policy, train=train_cfg)
        return distill_train(teacher, student, dataset, kd_cfg)

    # the ablations compare a constant temperature with a context-aware
    # policy: the configured one stands in for whichever it is, the
    # defaults of its class for the other
    constant = policy if isinstance(policy, ConstantPolicy) else ConstantPolicy()
    context = RuleBasedPolicy() if isinstance(policy, ConstantPolicy) else policy
    if args.ablation == "table10":
        arms = [("teacher", teacher, experiment)] + [
            (tag, train_student(experiment, arm_policy)[0], experiment)
            for tag, arm_policy in (("student_supervised", None),
                                    ("student_constant_temp", constant),
                                    ("student_context_aware", context))
        ]
    elif args.ablation == "table11":
        level = cfg.get("data", "noise_level", default=0.5)
        seed = cfg.get("data", "seed", default=0)
        variants = [(kind, tinynet.inject_noise(clean, kind, level, tinynet.derive_seed(seed, 102)))
                    for kind in ("gaussian", "salt_pepper", "uniform")] + [("clean", clean)]
        arms = [(tag, train_student(variant, context)[0], variant) for tag, variant in variants]
    if args.ablation:
        rows = [_metrics_row(tag, _test_report(model, dataset)[0])
                for tag, model, dataset in arms]
        (out / "ablation.csv").write_text(ABLATION_HEADER + "\n" + "\n".join(rows) + "\n")
        print(f"wrote {out / 'ablation.csv'} ({len(rows)} rows)")
        return 0

    trained, report = train_student(experiment, policy)
    rep, logits, labels = _test_report(trained, experiment)
    roc, pr = metrics.micro_curves(numerics.softmax_rows(logits), labels)
    (out / "distill_report.json").write_text(report.to_json() + "\n")
    (out / "metrics.csv").write_text(metrics.report_csv(rep))
    (out / "summary.csv").write_text(metrics.summary_csv(rep, roc, pr))
    print(
        f"distilled student: test_accuracy={rep.accuracy:.6f} "
        f"val_accuracy={report.final_val_accuracy:.6f}"
    )
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


# the confusion matrix holds C x C counts, so a class id sets its size
MAX_EVAL_CLASSES = 1000


def _read_csv_table(path) -> tuple[list[str], int, list[str]]:
    """(header, number of data rows, data cells in file order) of a CSV
    file; blank lines are skipped, and every data row must have as many
    cells as the header."""
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    lines = [ln for ln in text.split("\n") if ln.strip()]
    del text
    if not lines:
        raise ParseError(f"{path}: empty file")
    if len(lines) == 1:
        raise ParseError(f"{path}: header but no data rows")
    header = lines.pop(0).split(",")
    for i, ln in enumerate(lines):
        if ln.count(",") != len(header) - 1:
            raise ParseError(f"{path}: data row {i + 1} has {ln.count(',') + 1} cells, "
                             f"header has {len(header)}")
    n_rows = len(lines)
    # the text, the lines and the cells are never all held at once
    cells = ",".join(lines)
    del lines
    return header, n_rows, cells.split(",")


def _is_pred_header(header: list[str]) -> bool:
    return header[:1] == ["pred"] and header[1:] == [f"p{j}" for j in range(len(header) - 1)]


class _NotPlain(ValueError):
    """A byte that numpy's C parser reads otherwise than int() and float()."""


# numpy reads the separators 0x1c-0x1f as whitespace and any Unicode
# digit as a digit, where int() and float() reject both
_SEPARATORS = (b"\x1c", b"\x1d", b"\x1e", b"\x1f")


class _PlainBytes(io.BufferedIOBase):
    """A buffered binary file's bytes as they are read, raising _NotPlain at
    a byte outside ASCII or a separator 0x1c-0x1f. The file is checked one
    read at a time, so no copy of all of it is ever held."""

    def __init__(self, buffered):
        self._buffered = buffered

    def readable(self) -> bool:
        return True

    def read(self, size=-1) -> bytes:
        return self._checked(self._buffered.read(size))

    def read1(self, size=-1) -> bytes:
        return self._checked(self._buffered.read1(size))

    @staticmethod
    def _checked(chunk: bytes) -> bytes:
        if not chunk.isascii() or any(sep in chunk for sep in _SEPARATORS):
            raise _NotPlain("a byte outside ASCII or a separator 0x1c-0x1f")
        return chunk


def _loadtxt_table(path, header_ok):
    """(ids, probabilities) of a CSV file read by numpy's C parser: the
    first column as int64, the others as an (n, width - 1) float64 array.
    None for a header that fails header_ok and for no data rows; _NotPlain
    for a file with a byte outside ASCII or a separator 0x1c-0x1f."""
    # plain ASCII decodes as open(path) in _read_csv_table decodes it
    with open(path, "rb") as raw, io.TextIOWrapper(_PlainBytes(raw), encoding="ascii") as fh:
        header = fh.readline().removesuffix("\n").split(",")
        if not header_ok(header):
            return None
        rows = np.loadtxt(fh, dtype=[("id", np.int64), ("p", np.float64, (len(header) - 1,))],
                          delimiter=",", comments=None, ndmin=1)
    # copies are C-contiguous, as the int()/float() reader's arrays are
    return (rows["id"].copy(), rows["p"].copy()) if len(rows) else None


def _loadtxt_inputs(pred_path, label_path):
    """(preds, labels, probs or None) read by numpy's C parser, or None
    when _evaluate_inputs must read the files with int() and float(). On
    the files _loadtxt_table reads, numpy rejects whitespace-only lines
    and every cell that int() or float() rejects or reads otherwise, so
    both readers give the same arrays."""
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error", UserWarning)  # loadtxt: "input contained no data"
            pred = _loadtxt_table(pred_path, _is_pred_header)
            label = _loadtxt_table(label_path, lambda header: header == ["label"])
    except (OSError, ValueError, UserWarning):
        return None
    if pred is None or label is None or len(pred[0]) != len(label[0]):
        return None
    (preds, probs), (labels, _) = pred, label
    return preds, labels, probs if probs.shape[1] else None


def _evaluate_inputs(pred_path, label_path):
    """(preds, labels, probs or None) as arrays from a predictions file and
    a labels file."""
    arrays = _loadtxt_inputs(pred_path, label_path)
    if arrays is not None:
        return arrays
    header_p, n_rows, cells_p = _read_csv_table(pred_path)
    header_l, n_labels, cells_l = _read_csv_table(label_path)
    if header_l != ["label"]:
        raise ParseError(f"{label_path}: expected header 'label', got {header_l}")
    if not _is_pred_header(header_p):
        raise ParseError(f"{pred_path}: expected header 'pred[,p0,p1,...]', got {header_p}")
    width = len(header_p)
    if n_rows != n_labels:
        raise ParseError(f"{pred_path} has {n_rows} data rows, {label_path} has {n_labels}")
    # pred ids, then labels, then probabilities row by row: the first bad
    # cell in that order is the one the error names. Every id is parsed
    # before any is stored, so a bad cell is reported ahead of an int64
    # overflow in an earlier one
    try:
        preds = np.array(list(map(int, cells_p[::width])), dtype=np.int64)
        labels = np.array(list(map(int, cells_l)), dtype=np.int64)
        probs = None
        if width > 1:
            del cells_p[::width]
            probs = np.fromiter(map(float, cells_p), dtype=np.float64, count=len(cells_p))
            probs = probs.reshape(n_rows, width - 1)
    except ValueError as exc:
        raise ParseError(f"bad cell value: {exc}") from exc
    return preds, labels, probs


def cmd_evaluate(args) -> int:
    # when _evaluate_inputs falls back to the int()/float() reader, its cell
    # strings take about ten times the memory of the arrays; they are freed
    # when it returns
    preds, labels, probs = _evaluate_inputs(args.predictions, args.labels)
    n_classes = (
        probs.shape[1] if probs is not None else int(max(preds.max(), labels.max())) + 1
    )
    if n_classes > MAX_EVAL_CLASSES:
        raise ParseError(f"{n_classes} classes; evaluate takes at most {MAX_EVAL_CLASSES}")
    cm = metrics.confusion(preds, labels, n_classes)
    rep = metrics.class_report(cm)
    roc = pr = None
    if probs is not None:
        roc, pr = metrics.micro_curves(probs, labels)
    else:
        print("warning: no probability columns, skipping AUC/AP")

    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(metrics.report_csv(rep))
    (out / "summary.csv").write_text(metrics.summary_csv(rep, roc, pr))
    print(f"accuracy={rep.accuracy:.6f} samples={cm.total}")
    return 0


# ---------------------------------------------------------------------------
# repro-examples
# ---------------------------------------------------------------------------


def _fmt(values) -> str:
    if isinstance(values, (list, tuple, np.ndarray)):
        return "[" + ", ".join(f"{v:.6f}" for v in np.atleast_1d(values)) + "]"
    return f"{values:.6f}"


def run_example_checks() -> list[tuple[str, bool, str]]:
    """Recompute each built-in worked example; returns (name, ok, detail)."""
    checks = []

    state = selection.PheromoneState(np.array([2.0, 1.0, 4.0]), np.array([3.0, 5.0, 2.0]))
    probs = selection.selection_probabilities(state, 1.0, 2.0)
    checks.append(("selection probabilities", probs, [0.305, 0.424, 0.271], 1e-3))

    updated = selection.update_pheromones(state, [(1, 0.8), (0, 0.9), (1, 0.7)], rho=0.1)
    checks.append(("pheromone update", updated.pheromone, [2.7, 2.4, 3.6], 1e-9))

    ctx = ContextFeatures(0.0, 0.5, 0.0, 0.3)
    temp = apply_policy(UncertaintyLinearPolicy(scale=2.0), ctx).temperature
    checks.append(("adaptive temperature", temp, 1.6, 0.0))

    z = [2.0, 0.5, -1.0]
    p2 = numerics.stable_softmax(z, 2.0)
    oracle2 = np.array([math.exp(v / 2.0) for v in z])
    oracle2 /= oracle2.sum()
    checks.append(("softmax T=2 vs rounded print", p2, [0.61, 0.27, 0.12], 0.03))
    checks.append(("softmax T=2 vs exp oracle", p2, oracle2, 1e-4))
    p16 = numerics.stable_softmax(z, 1.6)
    oracle16 = np.array([math.exp(v / 1.6) for v in z])
    oracle16 /= oracle16.sum()
    checks.append(("softmax T=1.6 vs rounded print", p16, [0.65, 0.23, 0.12], 0.03))
    checks.append(("softmax T=1.6 vs exp oracle", p16, oracle16, 1e-4))

    results = []
    for name, computed, reference, tol in checks:
        comp = np.atleast_1d(np.asarray(computed, dtype=np.float64))
        ref = np.atleast_1d(np.asarray(reference, dtype=np.float64))
        if tol == 0.0:
            ok = bool(np.all(comp == ref))
        else:
            ok = bool(np.all(np.abs(comp - ref) <= tol))
        detail = f"computed={_fmt(computed)} reference={_fmt(reference)} tol={tol:g}"
        results.append((name, ok, detail))
    return results


def cmd_repro_examples(args) -> int:
    results = run_example_checks()
    lines = []
    for name, ok, detail in results:
        lines.append(f"{'PASS' if ok else 'FAIL'}  {name:<32} {detail}")
    n_ok = sum(ok for _, ok, _ in results)
    lines.append(f"{n_ok}/{len(results)} checks passed")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "repro_examples.txt").write_text(text)
    if n_ok != len(results):
        raise VerificationFailed(f"{len(results) - n_ok} worked-example checks deviated")
    return 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="antdistill",
        description="Reproducible model-selection and distillation experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="write a synthetic dataset file")
    p.add_argument("--config", required=True)
    p.add_argument("--out", help="output directory (overrides [out] dir)")
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("select", help="run a model-selection strategy")
    p.add_argument("--config", required=True)
    p.add_argument("--strategy", required=True, choices=["aco", "random", "grid", "pso"])
    p.add_argument("--out", help="output directory (overrides [out] dir)")
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("distill", help="teacher -> student distillation run")
    p.add_argument("--config", required=True)
    p.add_argument("--ablation", choices=["table10", "table11"])
    p.add_argument("--out", help="output directory (overrides [out] dir)")
    p.set_defaults(func=cmd_distill)

    p = sub.add_parser("evaluate", help="metrics from predictions/labels files")
    p.add_argument("--predictions", required=True)
    p.add_argument("--labels", required=True)
    p.add_argument("--out", help="output directory (default: current)")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("repro-examples", help="verify built-in worked examples")
    p.add_argument("--out", help="also write repro_examples.txt here")
    p.set_defaults(func=cmd_repro_examples)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a numeric fault raises FloatingPointError, an ArithmeticError
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except VerificationFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
