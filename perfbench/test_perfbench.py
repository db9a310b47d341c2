"""Tests of the benchmark itself: its tracer, its workloads and its output.

    python -m pytest perfbench -q
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import antdistill  # noqa: E402
from antdistill import distill, errors, numerics, selection, temperature  # noqa: E402

import calibrate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import PER_LAYER_METRICS, Tracer, _package_modules  # noqa: E402

# every workload, shrunk so that a traced operation takes a fraction of a second
SMALL = {
    "distill-table11": dict(samples=40, epochs=2),
    "select-aco-pairs": dict(pool=workloads.ACO_POOL[:3], samples=40,
                             aco=selection.AcoConfig(n_ants=2, n_iterations=5)),
    "evaluate-large": dict(rows=500),
}


def _bindings():
    Tracer().__enter__().__exit__()  # imports every layer module
    return {(m.__name__, name): obj for m in _package_modules() for name, obj in vars(m).items()}


def _traced_op(workload):
    workload.reset()
    with Tracer() as tracer, contextlib.redirect_stdout(io.StringIO()):
        raw = workload.run()
    return tracer, workload.inspect(raw, "")


def test_tracer_wraps_every_binding_and_restores_it():
    before = _bindings()
    with Tracer():
        during = _bindings()
        wrapped = {key for key in before if during[key] is not before[key]}
    after = _bindings()
    # copies made by `from x import y` are wrapped too
    for key in [("antdistill.temperature", "compute_context"),
                ("antdistill.distill", "compute_context"),
                ("antdistill.cli", "distill_train"),
                ("antdistill.metrics", "as_distribution"),
                ("antdistill", "kd_loss"),
                ("antdistill.config", "load_config"),
                ("antdistill.cli", "load_config")]:
        assert key in wrapped
    assert not any(name.startswith("_") for _, name in wrapped)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)


def test_tracer_restores_after_a_failure_and_counts_it_once():
    before = _bindings()
    with pytest.raises(errors.InvalidShape), Tracer() as tracer:
        distill.kd_loss([1.0], [1.0], 0, 2.0, 0.5)
    after = _bindings()
    assert all(after[key] is before[key] for key in before)
    m = tracer.layer_metrics()
    assert (m["numerics.failures"], m["distill.failures"]) == (1, 0)
    assert (m["numerics.calls"], m["distill.kd_loss_calls"]) == (1, 1)


def test_self_time_excludes_traced_children():
    with Tracer() as tracer:
        temperature.compute_context([2.0, 0.5, -1.0], 0.0, 0.3)
    totals = tracer.function_totals()
    assert totals[("temperature", "compute_context")][0] == 1
    assert totals[("numerics", "stable_softmax")][0] == 1
    assert totals[("numerics", "as_logits")][0] == 1
    wall = sum(t[1] for t in totals.values())
    assert all(0.0 <= t[1] <= wall for t in totals.values())


@pytest.mark.parametrize("name", sorted(SMALL))
def test_two_traced_runs_give_identical_counts(tmp_path, name):
    workload = workloads.WORKLOADS[name](7, tmp_path / "w", **SMALL[name])
    workload.warm_up()
    counts = []
    for _ in range(2):
        tracer, outcome = _traced_op(workload)
        assert outcome.problems == []
        counts.append({k: v for k, v in tracer.layer_metrics().items() if not k.endswith("_s")})
    assert counts[0] == counts[1]
    assert any(counts[0].values())


def test_rows_trained_match_the_inputs(tmp_path):
    workload = workloads.DistillTable11(7, tmp_path / "w", **SMALL["distill-table11"])
    tracer, _ = _traced_op(workload)
    assert tracer.layer_metrics()["tinynet.rows_trained"] == workload.rows_per_op


def test_untraced_outputs_equal_traced_outputs(tmp_path):
    workload = workloads.EvaluateLarge(3, tmp_path / "w", rows=500)
    _, traced = _traced_op(workload)
    workload.reset()
    with contextlib.redirect_stdout(io.StringIO()):
        plain = workload.inspect(workload.run(), "")
    assert plain.problems == [] and plain.digest == traced.digest


def test_selection_metrics_split_proxies_from_pairs(tmp_path):
    workload = workloads.SelectAcoPairs(7, tmp_path / "w", **SMALL["select-aco-pairs"])
    tracer, outcome = _traced_op(workload)
    m = tracer.layer_metrics()
    assert m["selection.total_selections"] == 10
    assert m["selection.unique_evaluations"] == outcome.units
    # every evaluated pair trained its own teacher; the proxies are the rest
    assert m["selection.teacher_trainings"] == outcome.units - workload.pool_size
    assert m["tinynet.train_calls"] == workload.pool_size + 2 * m["selection.teacher_trainings"]
    assert m["selection.proxy_s"] > 0 and m["selection.eval_s"] > 0


def test_rank_sum_oracle_handles_ties():
    import numpy as np

    probs = np.array([[0.5, 0.5], [0.5, 0.5], [0.9, 0.1]])
    labels = np.array([0, 1, 0])
    # positives 0.5, 0.5, 0.9; negatives 0.5, 0.5, 0.1
    # 4 tied positive/negative pairs count half: (4 * 0.5 + 2 + 3) / 9
    assert workloads.rank_sum_auc(probs, labels) == pytest.approx(7 / 9)


def test_an_evaluate_check_fails_on_a_wrong_output(tmp_path):
    workload = workloads.EvaluateLarge(3, tmp_path / "w", rows=500)
    workload.want_accuracy += 0.01
    with contextlib.redirect_stdout(io.StringIO()):
        outcome = workload.inspect(workload.run(), "")
    assert any("accuracy" in p for p in outcome.problems)


def test_tail_is_the_highest_percentile_with_ten_beyond_but_not_below_the_median():
    # too few operations for a percentile above the median: the median
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0, 1)
    times = [float(i) for i in range(1, 101)]
    assert run.tail(times) == (90.0, 90.0, 10)


def test_sampler_times_the_reference_task_and_restores_the_signal(monkeypatch):
    import signal
    import time

    monkeypatch.setattr(calibrate, "SAMPLE_EVERY_S", 0.01)
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.SpeedSampler() as sampler:
        start_wall, start_own = time.perf_counter(), sampler.now()
        while len(sampler.samples) < 4:
            sum(range(1000))
        wall, own = time.perf_counter() - start_wall, sampler.now() - start_own
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) is before
    # the clock stood still while the reference task ran
    assert own < wall - sum(sampler.samples[1:]) * 0.99
    assert sampler.scale(2.0, calibrate.REFERENCE_S / 2) == pytest.approx(4.0)
    sampler.samples = [0.001] + [0.02] * 8 + [9.0]  # the extremes are trimmed
    assert sampler.mean_sample() == pytest.approx(0.02)


def test_sampling_during_an_operation_leaves_its_outputs_alone(tmp_path, monkeypatch):
    monkeypatch.setattr(calibrate, "SAMPLE_EVERY_S", 0.005)
    workload = workloads.DistillTable11(7, tmp_path / "w", **SMALL["distill-table11"])
    runner = run.Runner(workload)
    runner.op()
    with calibrate.SpeedSampler() as sampler:
        runner.clock = sampler.now
        runner.op()
    assert len(sampler.samples) > 2
    assert (runner.attempted, runner.failed) == (2, 0)  # the second matched the first


def test_metric_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    runner = run.Runner(None)
    runner.attempted, runner.units, runner.quality = 2, [5, 10], 0.5
    sampler = calibrate.SpeedSampler()
    sampler.samples = [calibrate.REFERENCE_S]
    e2e = run.end_to_end(runner, [1.0, 2.0], [0.1, 0.2, 0.3], sampler, "rows")
    assert [m["name"] for m in spec["end_to_end"]] == list(e2e)
    assert all(e2e[m["name"]]["unit"] == m["unit"] for m in spec["end_to_end"])
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == PER_LAYER_METRICS
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    result = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "evaluate-large", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert result.returncode != 0
    assert '"correct"' not in result.stdout
