"""Command-line experiment harness.

Subcommands:
  gen-data        write a synthetic dataset file from a [data] section
  select          run one selection strategy (aco/random/grid/pso) on a pool
  distill         teacher -> student distillation, optionally as an
                  ablation grid (--ablation table10 | table11)
  evaluate        classification metrics from predictions/labels files
  repro-examples  recompute the built-in worked examples and verify them

Every command is deterministic given its config file; reruns produce
byte-identical outputs. A command returns (run directory or None, {file name:
text}, stdout text), with the config it parsed as config.ini; only then does
main write each file whole. A failed run, a deviating repro-examples too, writes nothing.

evaluate's two CSV files are the only files read here, by one reader under one
ASCII input rule, a large file in up to one range of lines per usable CPU.
"""

from __future__ import annotations

import argparse
import dataclasses
import errno
import io
import itertools
import math
import os
import re
import stat
import sys
import threading
import warnings
from pathlib import Path

import numpy as np

from . import metrics, numerics, selection, tinynet
from .config import STRATEGIES, DataConfig, NetConfig, RunConfig, load_config
from .distill import KdConfig, distill_arms, distill_train
from .errors import (
    ConfigParseError,
    InvalidDistribution,
    InvalidShape,
    ParseError,
    VerificationFailed,
)
from .temperature import (
    POLICIES,
    ConstantPolicy,
    ContextFeatures,
    RuleBasedPolicy,
    UncertaintyLinearPolicy,
    apply_policy,
)


def _out_dir(cfg: RunConfig, override: str | None) -> Path:
    """The run directory: --out, else the [out] section's dir."""
    if not (override or cfg.has("out")):
        raise ConfigParseError("no output directory: pass --out or add an [out] section")
    return Path(override) if override else cfg.resolve("out", "dir")


def _build_dataset(cfg: RunConfig):
    """Returns the (clean, experiment) datasets of the [data] section, and its DataConfig."""
    data = cfg.build("data", DataConfig)
    comp = data.complexity if len(data.complexity) > 1 else data.complexity[0]
    clean = tinynet.generate_synthetic(data.samples, data.classes, data.dim, comp, data.seed)
    experiment = clean if data.noise_kind == "none" else tinynet.inject_noise(
        clean, data.noise_kind, data.noise_level, tinynet.derive_seed(data.seed, 101),
        data.noise_fraction)
    return clean, experiment, data


# ---------------------------------------------------------------------------
# gen-data
# ---------------------------------------------------------------------------


def cmd_gen_data(args) -> tuple:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args.out)
    _, dataset, _ = _build_dataset(cfg)
    counts = {s: dataset.indices(s).size for s in tinynet.SPLITS}
    return out, {"dataset.csv": tinynet.dataset_text(dataset), "config.ini": cfg.text}, (
        f"wrote {out / 'dataset.csv'}: n={dataset.n_samples} classes={dataset.n_classes} "
        f"train={counts['train']} val={counts['val']} test={counts['test']} "
        f"mean_noise={dataset.noise_level.mean():.6f}\n")


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def cmd_select(args) -> tuple:
    cfg = load_config(args.config)
    strategy = args.strategy
    pool_path = cfg.resolve(strategy, "pool")
    # MLP candidates are scored by training on the [data] dataset
    dataset = _build_dataset(cfg)[1] if cfg.has("data") else None
    try:
        pool = selection.load_pool(pool_path, dataset)
    except ParseError as exc:  # its message starts with the path
        raise ParseError(f"[{strategy}] pool: {exc}") from None
    except InvalidShape:  # the pool holds MLP profiles and there is no dataset
        raise ParseError(f"[{strategy}] pool: {pool_path}: MLP profiles train on the dataset "
                         "of a [data] section, which the config lacks") from None

    run, config_cls = STRATEGIES[strategy]
    strategy_cfg = {"cfg": cfg.build(strategy, config_cls)} if config_cls else {}
    report = cfg.build(strategy, run, pool=pool, **strategy_cfg)

    return _out_dir(cfg, args.out), {
        "report.json": report.to_json() + "\n",
        "report.csv": selection.CSV_HEADER + "\n" + report.csv_row() + "\n",
        "config.ini": cfg.text}, (
        f"{strategy}: best={report.best_name} score={report.best_score:.6f} "
        f"unique_evaluations={report.unique_evaluations} "
        f"total_selections={report.total_selections} "
        f"evaluations_to_best={report.evaluations_to_best}\n")


# ---------------------------------------------------------------------------
# distill
# ---------------------------------------------------------------------------


def _test_report(model: tinynet.MlpModel, dataset: tinynet.SyntheticDataset):
    """(class report, logits, labels) of model on the test split."""
    idx = dataset.indices("test")
    logits = tinynet.forward_batch(model, dataset.features[idx])
    labels = dataset.labels[idx]
    counts = metrics.confusion(np.argmax(logits, axis=1), labels, dataset.n_classes)
    return metrics.class_report(counts), logits, labels


def _metrics_row(tag: str, rep: metrics.ClassReport) -> str:
    return (
        f"{tag},{rep.accuracy!r},{rep.macro_f1!r},{rep.macro_recall!r},{rep.macro_precision!r}"
    )


ABLATION_HEADER = "approach,accuracy,macro_f1,macro_recall,macro_precision"

TABLE11_NOISE_LEVEL = 0.5  # of table 11's noise variants, when [data] sets no noise_level


def cmd_distill(args) -> tuple:
    cfg = load_config(args.config)
    out = _out_dir(cfg, args.out)
    clean, experiment, data = _build_dataset(cfg)
    train_cfg = cfg.build("kd", tinynet.TrainConfig)
    net = cfg.build("kd", NetConfig)
    policy = (cfg.build("policy", POLICIES[cfg.sections["policy"]["variant"]])
              if cfg.has("policy") else RuleBasedPolicy())
    kd = cfg.build("kd", KdConfig, policy=policy, train=train_cfg)  # checked before any training
    teacher = tinynet.init_mlp([clean.n_features, *net.teacher_hidden, clean.n_classes],
                               seed=tinynet.derive_seed(train_cfg.seed, 1))
    teacher, _ = tinynet.train_supervised(teacher, clean, train_cfg)
    student = tinynet.init_mlp([clean.n_features, *net.student_hidden, clean.n_classes],
                               seed=tinynet.derive_seed(train_cfg.seed, 2))

    if not args.ablation:
        trained, report = distill_train(teacher, student, experiment, kd)
        rep, logits, labels = _test_report(trained, experiment)
        micro = metrics.micro_auc_ap(numerics.softmax_rows(logits), labels)
        return out, {"distill_report.json": report.to_json() + "\n",
                     "metrics.csv": metrics.report_csv(rep),
                     "summary.csv": metrics.summary_csv(rep, micro),
                     "config.ini": cfg.text}, (
            f"distilled student: test_accuracy={rep.accuracy:.6f} "
            f"val_accuracy={report.val_accuracy[-1]:.6f}\n")

    # the ablations compare a constant temperature with a context-aware
    # policy: the configured one stands in for whichever it is, the
    # defaults of its class for the other. An ablation is a list of (tag,
    # dataset, KdConfig) arms, whose students train as one stack
    constant = policy if isinstance(policy, ConstantPolicy) else ConstantPolicy()
    context = RuleBasedPolicy() if isinstance(policy, ConstantPolicy) else policy
    if args.ablation == "table10":
        # supervised training is distillation at weight 0: this arm's
        # student is the cross-entropy one, bit for bit
        supervised = KdConfig(ConstantPolicy(1.0), t_base=0.0, train=train_cfg)
        rows = [("teacher", teacher, experiment)]
        arms = [("student_supervised", experiment, supervised),
                ("student_constant_temp", experiment, dataclasses.replace(kd, policy=constant)),
                ("student_context_aware", experiment, dataclasses.replace(kd, policy=context))]
    else:
        level = cfg.section("data").get("noise_level", TABLE11_NOISE_LEVEL)
        seed = tinynet.derive_seed(data.seed, 102)
        rows = []
        variants = [(kind, tinynet.inject_noise(clean, kind, level, seed))
                    for kind in ("gaussian", "salt_pepper", "uniform")] + [("clean", clean)]
        context_kd = dataclasses.replace(kd, policy=context)
        arms = [(tag, variant, context_kd) for tag, variant in variants]
    students = distill_arms(teacher, student, [(dataset, arm_kd) for _, dataset, arm_kd in arms])
    rows += [(tag, model, dataset) for (tag, dataset, _), (model, _) in zip(arms, students)]
    lines = [_metrics_row(tag, _test_report(model, dataset)[0]) for tag, model, dataset in rows]
    return out, {"ablation.csv": ABLATION_HEADER + "\n" + "\n".join(lines) + "\n",
                 "config.ini": cfg.text}, (
        f"wrote {out / 'ablation.csv'} ({len(lines)} rows)\n")


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


# the confusion matrix holds C x C counts, so a class id sets its size
MAX_EVAL_CLASSES = 1000


# numpy reads the separators 0x1c-0x1f as whitespace and any Unicode
# digit as a digit, so the input rule leaves them out; it leaves out NUL
# too, so that no error message prints one
_SEPARATORS = (b"\x00", b"\x1c", b"\x1d", b"\x1e", b"\x1f")


class _PlainBytes(io.BufferedIOBase):
    """Bytes start:stop of a buffered binary file positioned at start (to
    its end with stop None) as they are read, raising a ValueError at a
    byte outside ASCII, a NUL or a separator 0x1c-0x1f, named by its
    offset in the file. The bytes are checked one read at a time, so no
    copy of all of them is ever held. TextIOWrapper reads them only
    through read1."""

    def __init__(self, buffered, start=0, stop=None):
        self._buffered = buffered
        self._offset = start
        self._stop = stop

    def readable(self) -> bool:
        return True

    def read1(self, size=-1) -> bytes:
        if self._stop is not None:
            left = self._stop - self._offset
            size = left if size < 0 else min(size, left)
        chunk = self._buffered.read1(size)
        if not chunk.isascii() or any(sep in chunk for sep in _SEPARATORS):
            at = next(i for i, b in enumerate(chunk) if b > 0x7f or b == 0 or 0x1c <= b <= 0x1f)
            rule = "a NUL" if chunk[at] == 0 else "outside ASCII or a separator 0x1c-0x1f"
            raise ValueError(f"byte {self._offset + at} is {chunk[at]:#04x}, {rule}")
        self._offset += len(chunk)
        return chunk


# np.loadtxt numbers a bad cell's data row from 0 and a wrong-width row from
# 1 (empty lines uncounted in both), and points the latter at its usecols
# option; both are restated with data rows from 1
_BAD_CELL = re.compile(r"(could not convert string .* to \w+) at row (\d+), column (\d+)\.")
_BAD_WIDTH = re.compile(r"the dtype passed requires (\d+) columns but (\d+) were found at row "
                        r"(\d+); use `usecols` .*")


def _loadtxt_message(exc: ValueError) -> str:
    """np.loadtxt's message, with one numbering of data rows."""
    if m := _BAD_CELL.fullmatch(str(exc)):
        return f"{m[1]} at data row {int(m[2]) + 1}, column {m[3]}"
    if m := _BAD_WIDTH.fullmatch(str(exc)):
        return f"data row {m[3]} has width {m[2]}, the header width {m[1]}"
    return str(exc)


def _loadtxt(lines, dtype):
    """np.loadtxt of a file of comma-separated lines; empty ones are skipped."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)  # "input contained no data"
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


# a regular file is parsed in up to one range of lines per usable CPU, each
# of at least this many bytes: forking a child of a process of 80 MiB costs
# about 2 ms, and parsing this many bytes of numbers about 14
_RANGE_MIN = 1 << 20


def _ranges(raw) -> list:
    """(start, stop) byte ranges that cover the open binary file raw, each
    but the last ending just after a \\n, and the last with stop None: one
    per usable CPU, of at least _RANGE_MIN bytes. One range if raw is not
    a regular file, the platform does not tell the usable CPUs (only Linux
    does), or the process runs another thread: a forked child would find
    the locks that thread holds held for good."""
    st = os.fstat(raw.fileno())
    if (not stat.S_ISREG(st.st_mode) or not hasattr(os, "sched_getaffinity")
            or threading.active_count() > 1):
        return [(0, None)]
    k = min(len(os.sched_getaffinity(0)), st.st_size // _RANGE_MIN)
    starts = {0}
    for i in range(1, k):
        offset = st.st_size * i // k
        while chunk := os.pread(raw.fileno(), 1 << 16, offset):
            if (at := chunk.find(b"\n")) >= 0:
                starts.add(offset + at + 1)
                break
            offset += len(chunk)
    return list(itertools.pairwise([*sorted(starts - {st.st_size}), None]))


def _fork_range(path, start, stop, dtype, inherited) -> tuple[int, int]:
    """(read end, pid) of a forked child that parses bytes start:stop of
    path into rows of dtype and writes them to the pipe behind that read
    end. It exits 0 only if it wrote them all without a warning, and never
    writes to stdout or stderr. It closes the read ends `inherited`."""
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read_end)
        os.close(write_end)
        raise
    if pid:
        os.close(write_end)
        return read_end, pid
    code = 1
    try:
        for fd in (read_end, *inherited):
            os.close(fd)
        with open(path, "rb") as raw, warnings.catch_warnings(record=True) as caught, \
                io.TextIOWrapper(_PlainBytes(raw, start, stop), encoding="ascii") as fh:
            warnings.simplefilter("always")
            raw.seek(start)
            rows = _loadtxt(fh, dtype)
        with open(write_end, "wb") as pipe:
            pipe.write(rows.tobytes())
        code = 1 if caught else 0
    finally:
        os._exit(code)


def _read_table(path, expected_header: str, header_ok):
    """The (class ids, probabilities) of an evaluate input file under the
    ASCII input rule, read by numpy's C parser: the header, which must pass
    header_ok, then the data rows, each a class id and one probability per
    header column after the first. The data rows of each range of _ranges
    but the first are parsed in a forked child; if any range fails, the
    file is read again as one range, so every failure is the whole-file
    read's: a ParseError whose message starts with the path."""

    def read(ranges):
        (_, first_stop), *rest = ranges
        raw.seek(0)
        children = {}  # a child's read end -> its pid
        try:
            with io.TextIOWrapper(_PlainBytes(raw, 0, first_stop), encoding="ascii") as fh:
                header = fh.readline().removesuffix("\n").split(",")
                if not header_ok(header):
                    raise ValueError(f"expected header {expected_header}, got {header}")
                fields = [("id", np.int64), ("p", np.float64, (len(header) - 1,))]
                for start, stop in rest:
                    fd, children[fd] = _fork_range(path, start, stop, fields, children)
                parts = [_loadtxt(fh, fields)]
            parts += [np.frombuffer(io.FileIO(fd, closefd=False).readall(), fields)
                      for fd in children]
        finally:  # closed first, so that no child waits on a full pipe
            for fd in children:
                os.close(fd)
            statuses = [os.waitpid(pid, 0)[1] for pid in children.values()]
        if any(statuses):
            raise ChildProcessError(f"a range's reader ended with status {max(statuses)}")
        return parts

    try:
        with open(path, "rb") as raw:
            ranges = _ranges(raw)
            try:
                parts = read(ranges)
            except (OSError, ValueError):
                if len(ranges) == 1:
                    raise
                parts = read([(0, None)])
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a byte outside the rule, the header, a cell or a row's width
        raise ParseError(f"{path}: {_loadtxt_message(exc)}") from exc
    if not sum(map(len, parts)):
        raise ParseError(f"{path}: header but no data rows")
    return [np.concatenate([part[name] for part in parts]) for name in parts[0].dtype.names]


def _evaluate_inputs(pred_path, label_path):
    """(preds, labels, probs or None) as arrays from a predictions file and
    a labels file."""
    preds, probs = _read_table(pred_path, "'pred[,p0,p1,...]'", lambda header: (
        header == ["pred", *(f"p{j}" for j in range(len(header) - 1))]))
    labels, _ = _read_table(label_path, "'label'", lambda header: header == ["label"])
    if len(preds) != len(labels):
        raise ParseError(f"{pred_path} has {len(preds)} data rows, {label_path} has "
                         f"{len(labels)}")
    return preds, labels, probs if probs.shape[1] else None


def cmd_evaluate(args) -> tuple:
    preds, labels, probs = _evaluate_inputs(args.predictions, args.labels)
    n_classes = (
        probs.shape[1] if probs is not None else int(max(preds.max(), labels.max())) + 1
    )
    if n_classes > MAX_EVAL_CLASSES:
        raise ParseError(f"{n_classes} classes; evaluate takes at most {MAX_EVAL_CLASSES}")
    for path, ids in ((args.predictions, preds), (args.labels, labels)):
        if (bad := (ids < 0) | (ids >= n_classes)).any():
            raise ParseError(f"{path}: data row {np.argmax(bad) + 1}: class index outside "
                             f"[0, {n_classes})")
    try:
        rep = metrics.class_report(metrics.confusion(preds, labels, n_classes))
        micro = metrics.micro_auc_ap(probs, labels) if probs is not None else None
    except InvalidShape as exc:  # one class, or one data row with probabilities
        raise ParseError(f"{args.predictions}: {exc}") from None
    except InvalidDistribution as exc:  # a valid matrix is checked once, in micro_auc_ap
        raise ParseError(f"{args.predictions}: data row "
                         f"{metrics._first_bad_row(probs) + 1}: {exc}") from None
    warning = "warning: no probability columns, skipping AUC/AP\n" if micro is None else ""
    return Path(args.out or "."), {"metrics.csv": metrics.report_csv(rep),
                                   "summary.csv": metrics.summary_csv(rep, micro)}, (
        f"{warning}accuracy={rep.accuracy:.6f} samples={labels.size}\n")


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
        ok = bool(np.all(np.abs(comp - ref) <= tol))
        detail = f"computed={_fmt(computed)} reference={_fmt(reference)} tol={tol:g}"
        results.append((name, ok, detail))
    return results


def cmd_repro_examples(args) -> tuple:
    results = run_example_checks()
    lines = [f"{'PASS' if ok else 'FAIL'}  {name:<32} {detail}" for name, ok, detail in results]
    n_ok = sum(ok for _, ok, _ in results)
    lines.append(f"{n_ok}/{len(results)} checks passed")
    text = "\n".join(lines) + "\n"
    if n_ok != len(results):
        raise VerificationFailed(f"{len(results) - n_ok} worked-example checks deviated", text)
    return Path(args.out) if args.out else None, {"repro_examples.txt": text}, text


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
    p.add_argument("--strategy", required=True, choices=list(STRATEGIES))
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


def _write_files(out: Path, files: dict[str, bytes]) -> None:
    """Writes each file into out whole: every file to a temporary name, then
    each temporary onto its name. A name that is a directory fails before
    the first replace. No temporary outlives the call."""
    out.mkdir(parents=True, exist_ok=True)
    temps = {}
    try:
        for name, data in files.items():
            if (out / name).is_dir() and not (out / name).is_symlink():
                raise IsADirectoryError(errno.EISDIR, os.strerror(errno.EISDIR))
            with open(out / f".{name}.{os.getpid()}.tmp", "xb") as fh:
                temps[name] = Path(fh.name)
                fh.write(data)
        for name, temp in temps.items():
            os.replace(temp, out / name)
    except OSError as exc:  # named by its file, not by the temporary
        raise OSError(exc.errno, exc.strerror, str(out / name)) from None
    finally:
        for temp in temps.values():
            temp.unlink(missing_ok=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a numeric fault raises FloatingPointError, an ArithmeticError
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            out, files, stdout = args.func(args)
        if out is not None:
            _write_files(out, {name: text.encode("utf-8") for name, text in files.items()})
        sys.stdout.write(stdout)
        return 0
    except VerificationFailed as exc:
        sys.stdout.write(exc.stdout)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, IndexError, ArithmeticError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entrypoint() -> None:
    # stdout's encoding is the locale's, which may not spell a name read from
    # the user's files; escape such characters, as stderr already does
    sys.stdout.reconfigure(errors="backslashreplace")
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
