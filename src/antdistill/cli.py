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
import contextlib
import math
import shutil
import sys
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


def _prepare_out(cfg: RunConfig, override: str | None) -> Path:
    """The run directory, made, with a copy of the config in it."""
    if override:
        out = Path(override)
    elif cfg.has("out"):
        out = cfg.resolve("out", "dir")
    else:
        raise ConfigParseError("no output directory: pass --out or add an [out] section")
    out.mkdir(parents=True, exist_ok=True)
    # a rerun from the run directory reads the copy it would write
    with contextlib.suppress(shutil.SameFileError):
        shutil.copyfile(cfg.path, out / "config.ini")
    return out


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


def cmd_gen_data(args) -> int:
    cfg = load_config(args.config)
    out = _prepare_out(cfg, args.out)
    _, dataset, _ = _build_dataset(cfg)
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

    out = _prepare_out(cfg, args.out)
    (out / "report.json").write_text(report.to_json() + "\n", encoding="utf-8")
    (out / "report.csv").write_text(selection.CSV_HEADER + "\n" + report.csv_row() + "\n",
                                    encoding="utf-8")
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
    counts = metrics.confusion(np.argmax(logits, axis=1), labels, dataset.n_classes)
    return metrics.class_report(counts), logits, labels


def _metrics_row(tag: str, rep: metrics.ClassReport) -> str:
    return (
        f"{tag},{rep.accuracy!r},{rep.macro_f1!r},{rep.macro_recall!r},{rep.macro_precision!r}"
    )


ABLATION_HEADER = "approach,accuracy,macro_f1,macro_recall,macro_precision"

TABLE11_NOISE_LEVEL = 0.5  # of table 11's noise variants, when [data] sets no noise_level


def cmd_distill(args) -> int:
    cfg = load_config(args.config)
    out = _prepare_out(cfg, args.out)
    clean, experiment, data = _build_dataset(cfg)
    train_cfg = cfg.build("kd", tinynet.TrainConfig)
    net = cfg.build("kd", NetConfig)
    policy = (cfg.build("policy", POLICIES[cfg.sections["policy"]["variant"]])
              if cfg.has("policy") else RuleBasedPolicy())
    teacher = tinynet.init_mlp([clean.n_features, *net.teacher_hidden, clean.n_classes],
                               seed=tinynet.derive_seed(train_cfg.seed, 1))
    teacher, _ = tinynet.train_supervised(teacher, clean, train_cfg)
    student = tinynet.init_mlp([clean.n_features, *net.student_hidden, clean.n_classes],
                               seed=tinynet.derive_seed(train_cfg.seed, 2))

    def kd_cfg(arm_policy):
        return cfg.build("kd", KdConfig, policy=arm_policy, train=train_cfg)

    if not args.ablation:
        trained, report = distill_train(teacher, student, experiment, kd_cfg(policy))
        rep, logits, labels = _test_report(trained, experiment)
        micro = metrics.micro_auc_ap(numerics.softmax_rows(logits), labels)
        (out / "distill_report.json").write_text(report.to_json() + "\n", encoding="utf-8")
        (out / "metrics.csv").write_text(metrics.report_csv(rep), encoding="utf-8")
        (out / "summary.csv").write_text(metrics.summary_csv(rep, micro), encoding="utf-8")
        print(f"distilled student: test_accuracy={rep.accuracy:.6f} "
              f"val_accuracy={report.final_val_accuracy:.6f}")
        return 0

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
                ("student_constant_temp", experiment, kd_cfg(constant)),
                ("student_context_aware", experiment, kd_cfg(context))]
    else:
        level = cfg.section("data").get("noise_level", TABLE11_NOISE_LEVEL)
        seed = tinynet.derive_seed(data.seed, 102)
        rows = []
        variants = [(kind, tinynet.inject_noise(clean, kind, level, seed))
                    for kind in ("gaussian", "salt_pepper", "uniform")] + [("clean", clean)]
        arms = [(tag, variant, kd_cfg(context)) for tag, variant in variants]
    students = distill_arms(teacher, student, [(dataset, kd) for _, dataset, kd in arms])
    rows += [(tag, model, dataset) for (tag, dataset, _), (model, _) in zip(arms, students)]
    lines = [_metrics_row(tag, _test_report(model, dataset)[0]) for tag, model, dataset in rows]
    (out / "ablation.csv").write_text(ABLATION_HEADER + "\n" + "\n".join(lines) + "\n",
                                      encoding="utf-8")
    print(f"wrote {out / 'ablation.csv'} ({len(lines)} rows)")
    return 0


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------


# the confusion matrix holds C x C counts, so a class id sets its size
MAX_EVAL_CLASSES = 1000


def _evaluate_fields(header):
    """The fields of an evaluate input file's rows: a class id, then probabilities."""
    return [("id", np.int64), ("p", np.float64, (len(header) - 1,))]


def _evaluate_inputs(pred_path, label_path):
    """(preds, labels, probs or None) as arrays from a predictions file and
    a labels file."""
    _, (preds, probs) = tinynet._read_table(pred_path, 0, "'pred[,p0,p1,...]'", lambda header: (
        header == ["pred", *(f"p{j}" for j in range(len(header) - 1))]), _evaluate_fields)
    _, (labels, _) = tinynet._read_table(label_path, 0, "'label'",
                                         lambda header: header == ["label"], _evaluate_fields)
    if len(preds) != len(labels):
        raise ParseError(f"{pred_path} has {len(preds)} data rows, {label_path} has "
                         f"{len(labels)}")
    return preds, labels, probs if probs.shape[1] else None


def cmd_evaluate(args) -> int:
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
    if micro is None:
        print("warning: no probability columns, skipping AUC/AP")

    out = Path(args.out) if args.out else Path(".")
    out.mkdir(parents=True, exist_ok=True)
    (out / "metrics.csv").write_text(metrics.report_csv(rep), encoding="utf-8")
    (out / "summary.csv").write_text(metrics.summary_csv(rep, micro), encoding="utf-8")
    print(f"accuracy={rep.accuracy:.6f} samples={labels.size}")
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
        (out / "repro_examples.txt").write_text(text, encoding="utf-8")
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


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # a numeric fault raises FloatingPointError, an ArithmeticError
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except VerificationFailed as exc:
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
