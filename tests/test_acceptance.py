"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s`. Every tolerance and
seed-count threshold is pinned here; the slow criteria (6 and 8) train
real models for 20 matched seeds each and stay within their stated
runtime budgets on an ordinary workstation.
"""

import math
import time
from pathlib import Path

import numpy as np
import pytest

from antdistill import numerics, selection, tinynet
from antdistill.cli import main, run_example_checks
from antdistill.distill import KdConfig, distill_train, kd_loss, kd_loss_grad
from antdistill.metrics import ConfusionMatrix, class_report, confusion, micro_curves
from antdistill.selection import AcoConfig, run_aco, run_grid, run_random, stub_pool
from antdistill.temperature import ConstantPolicy, RuleBasedPolicy


def announce(num, ok, detail):
    print(f"\ncriterion {num:>2}: {'PASS' if ok else 'FAIL'} — {detail}")
    assert ok


def test_criterion_01_worked_example_exactness():
    start = time.time()
    state = selection.PheromoneState([2.0, 1.0, 4.0], [3.0, 5.0, 2.0])
    probs = selection.selection_probabilities(state, 1.0, 2.0)
    assert np.max(np.abs(probs - np.array([0.305, 0.424, 0.271]))) <= 1e-3

    updated = selection.update_pheromones(state, [(1, 0.8), (0, 0.9), (1, 0.7)], rho=0.1)
    assert np.max(np.abs(updated.pheromone - np.array([2.7, 2.4, 3.6]))) <= 1e-9

    from antdistill.temperature import ContextFeatures, UncertaintyLinearPolicy, apply_policy

    t = apply_policy(UncertaintyLinearPolicy(2.0), ContextFeatures(0, 0.5, 0, 0.3)).temperature
    assert t == 1.6  # exact

    z = [2.0, 0.5, -1.0]
    for temp, printed in ((2.0, [0.61, 0.27, 0.12]), (1.6, [0.65, 0.23, 0.12])):
        p = numerics.stable_softmax(z, temp)
        oracle = np.array([math.exp(v / temp) for v in z])
        oracle /= oracle.sum()
        assert np.max(np.abs(p - np.array(printed))) <= 0.03
        assert np.max(np.abs(p - oracle)) <= 1e-4

    assert all(ok for _, ok, _ in run_example_checks())
    assert main(["repro-examples"]) == 0
    elapsed = time.time() - start
    assert elapsed < 1.0
    announce(1, True, f"worked examples reproduced in {elapsed:.2f}s")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_criterion_02_numerics_property_suite(seed):
    start = time.time()
    rng = np.random.default_rng(seed)
    for _ in range(200):
        c = int(rng.integers(2, 10))
        z = rng.uniform(-10, 10, c)
        t = float(rng.uniform(0.05, 50))
        p = numerics.stable_softmax(z, t)
        assert abs(p.sum() - 1.0) < 1e-9
        assert np.argmax(p) == np.argmax(z)
        shift = float(rng.uniform(-1e3, 1e3))
        assert np.max(np.abs(numerics.stable_softmax(z + shift, t) - p)) < 1e-12
        e1 = numerics.normalized_entropy(numerics.stable_softmax(z, t))
        e2 = numerics.normalized_entropy(numerics.stable_softmax(z, t * 2))
        assert e2 >= e1 - 1e-12
        assert np.max(np.abs(numerics.stable_softmax(z, 1e6) - 1.0 / c)) < 1e-3
    for _ in range(1000):
        c = int(rng.integers(2, 8))
        p = rng.dirichlet(np.ones(c))
        q = rng.dirichlet(np.ones(c))
        assert numerics.kl_divergence(p, q) >= 0.0
        assert numerics.kl_divergence(p, p) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    announce(2, True, f"softmax/KL properties hold (seed {seed}, {elapsed:.2f}s)")


def test_criterion_03_gradient_correctness():
    start = time.time()
    h = 1e-5

    # distillation loss wrt student logits, 100 random instances
    rng = np.random.default_rng(7)
    worst_kd = 0.0
    for _ in range(100):
        c = int(rng.integers(2, 6))
        s = rng.uniform(-4, 4, c)
        tvec = rng.uniform(-4, 4, c)
        temp = float(rng.uniform(0.3, 6))
        w = float(rng.random())
        y = int(rng.integers(0, c))
        g = kd_loss_grad(s, tvec, y, temp, w)
        for j in range(c):
            up, down = s.copy(), s.copy()
            up[j] += h
            down[j] -= h
            fd = (kd_loss(up, tvec, y, temp, w).total
                  - kd_loss(down, tvec, y, temp, w).total) / (2 * h)
            worst_kd = max(worst_kd, abs(g[j] - fd) / max(abs(g[j]), abs(fd), 1e-8))
    assert worst_kd < 1e-4

    # MLP backprop wrt parameters, 100 random probes
    model = tinynet.init_mlp([5, 8, 6, 4], seed=3)
    x = rng.normal(size=(6, 5))
    labels = rng.integers(0, 4, size=6)

    def sample_loss(logits, i):
        p = numerics.stable_softmax(logits, 1.0)
        onehot = np.zeros(4)
        onehot[labels[i]] = 1.0
        return numerics.cross_entropy(int(labels[i]), p), p - onehot

    def rows_loss(logits, idx):
        rows = [sample_loss(logits[j], i) for j, i in enumerate(idx)]
        return np.array([r[0] for r in rows]), np.array([r[1] for r in rows])

    def batch_loss(m):
        logits = tinynet.forward_batch(m, x)
        return float(np.mean([sample_loss(logits[i], i)[0] for i in range(6)]))

    _, gw, gb = tinynet.loss_gradients(model, x, rows_loss)
    worst_mlp = 0.0
    for _ in range(100):
        k = int(rng.integers(0, len(model.weights)))
        probe = model.copy()
        if rng.random() < 0.2:
            r = int(rng.integers(0, probe.biases[k].size))
            probe.biases[k][r] += h
            up = batch_loss(probe)
            probe.biases[k][r] -= 2 * h
            fd = (up - batch_loss(probe)) / (2 * h)
            an = gb[k][r]
        else:
            r = int(rng.integers(0, probe.weights[k].shape[0]))
            q = int(rng.integers(0, probe.weights[k].shape[1]))
            probe.weights[k][r, q] += h
            up = batch_loss(probe)
            probe.weights[k][r, q] -= 2 * h
            fd = (up - batch_loss(probe)) / (2 * h)
            an = gw[k][r, q]
        worst_mlp = max(worst_mlp, abs(an - fd) / max(abs(an), abs(fd), 1e-8))
    assert worst_mlp < 1e-4
    elapsed = time.time() - start
    assert elapsed < 30.0
    announce(3, True,
             f"finite differences agree (kd {worst_kd:.2e}, mlp {worst_mlp:.2e}, {elapsed:.1f}s)")


DOMINANT_POOL_SCORES = [
    0.62, 0.44, 0.71, 0.38, 0.55, 0.66, 0.49, 0.73,
    0.58, 0.41, 0.69, 0.52, 0.36, 0.64, 0.47, 0.95,
]  # one strictly dominant candidate (0.95), all others <= 0.80


def test_criterion_04_aco_convergence_and_budget():
    start = time.time()
    pool = stub_pool(DOMINANT_POOL_SCORES)
    found = 0
    for seed in range(20):
        rep = run_aco(pool, AcoConfig(alpha=1.0, beta=2.0, rho=0.1, q0=0.0,
                                      n_ants=5, n_iterations=15, seed=seed))
        assert rep.unique_evaluations <= 16
        assert rep.total_selections == 75
        found += rep.best_id == 15
    assert found >= 18

    aco_pairs = run_aco(pool, AcoConfig(n_ants=5, n_iterations=15, seed=0), pair_mode=True)
    grid_pairs = run_grid(pool, pair_mode=True)
    assert grid_pairs.unique_evaluations == 240
    assert grid_pairs.total_selections == 240
    assert aco_pairs.unique_evaluations < 240
    elapsed = time.time() - start
    assert elapsed < 120.0
    announce(4, True,
             f"dominant found in {found}/20 seeds, pair-mode budget "
             f"{aco_pairs.unique_evaluations} < 240 ({elapsed:.1f}s)")


def test_criterion_05_strategy_dominance_ordering():
    start = time.time()
    wins = losses = 0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        pool = stub_pool(np.round(rng.uniform(0.2, 0.9, 12), 6))
        grid = run_grid(pool)
        aco = run_aco(pool, AcoConfig(seed=seed))
        rnd = run_random(pool, n_picks=1, seed=seed)
        assert grid.best_score >= aco.best_score
        if aco.best_score > rnd.best_score:
            wins += 1
        elif aco.best_score < rnd.best_score:
            losses += 1
    n = wins + losses
    # one-sided sign test: P(X >= wins) under Binomial(n, 1/2)
    p_value = sum(math.comb(n, k) for k in range(wins, n + 1)) / 2.0**n
    assert p_value <= 0.05
    elapsed = time.time() - start
    assert elapsed < 120.0
    announce(5, True,
             f"grid >= aco always; aco > random in {wins}/{n} decided seeds "
             f"(sign test p = {p_value:.2e}, {elapsed:.1f}s)")


def _half_noisy_setup(seed, n=600, d=8, comp=0.3, epochs=30):
    clean = tinynet.generate_synthetic(n, 4, d, comp, seed)
    noisy = tinynet.inject_noise(clean, "gaussian", 0.8, seed=seed + 90000, fraction=0.5)
    cfg = tinynet.TrainConfig(epochs=epochs, seed=seed)
    teacher = tinynet.init_mlp([d, 32, 32, 4], seed=seed + 1)
    teacher, _ = tinynet.train_supervised(teacher, clean, cfg)
    student0 = tinynet.init_mlp([d, 16, 16, 4], seed=seed + 2)
    return noisy, cfg, teacher, student0


def test_criterion_06_context_aware_benefit_on_noisy_half():
    # mechanism check at desk scale: over 20 matched seeds, the rule-based
    # policy must match or beat the constant baseline on the noisy test half
    start = time.time()
    at_least_equal = 0
    for seed in range(20):
        noisy, cfg, teacher, student0 = _half_noisy_setup(seed)
        accs = {}
        for name, pol in (("rule", RuleBasedPolicy()), ("const", ConstantPolicy(2.0))):
            student, _ = distill_train(teacher, student0, noisy, KdConfig(pol, 0.5, cfg))
            test_idx = noisy.indices("test")
            noisy_half = test_idx[noisy.noise_level[test_idx] == 0.8]
            accs[name] = tinynet.accuracy(
                student, noisy.features[noisy_half], noisy.labels[noisy_half]
            )
        at_least_equal += accs["rule"] >= accs["const"]
    elapsed = time.time() - start
    assert at_least_equal >= 14
    assert elapsed < 600.0
    announce(6, True,
             f"rule-based >= constant(T=2) on the noisy half in "
             f"{at_least_equal}/20 seeds ({elapsed:.0f}s)")


def test_criterion_07_reduction_checks():
    start = time.time()
    ds = tinynet.generate_synthetic(300, 3, 6, 0.2, seed=50)
    cfg = tinynet.TrainConfig(epochs=8, seed=51)
    teacher = tinynet.init_mlp([6, 24, 24, 3], seed=52)
    teacher, _ = tinynet.train_supervised(teacher, ds, cfg)
    student0 = tinynet.init_mlp([6, 16, 16, 3], seed=53)

    # w = 0: distilled training trace is bit-identical to supervised
    sup, sup_hist = tinynet.train_supervised(student0, ds, cfg)
    kd, report = distill_train(teacher, student0, ds,
                               KdConfig(ConstantPolicy(1.0), t_base=0.0, train=cfg))
    assert report.train_loss == sup_hist.train_loss
    assert report.val_accuracy == sup_hist.val_accuracy
    assert all(a.tobytes() == b.tobytes() for a, b in zip(sup.weights, kd.weights))
    assert all(a.tobytes() == b.tobytes() for a, b in zip(sup.biases, kd.biases))

    # student logits = teacher logits, w = 1: KL term vanishes in every batch
    logits = tinynet.forward_batch(teacher, ds.features)
    for i in range(ds.n_samples):
        b = kd_loss(logits[i], logits[i], int(ds.labels[i]), 2.0, 1.0)
        assert b.kl_term < 1e-9
        assert abs(b.total) < 1e-9
    elapsed = time.time() - start
    assert elapsed < 300.0
    announce(7, True, f"w=0 supervised reduction bit-exact, self-distillation KL=0 ({elapsed:.1f}s)")


def test_criterion_08_noise_trend():
    start = time.time()
    clean_wins = 0
    for seed in range(20):
        clean = tinynet.generate_synthetic(600, 4, 8, 0.4, seed)
        cfg = tinynet.TrainConfig(epochs=30, seed=seed)
        teacher = tinynet.init_mlp([8, 32, 32, 4], seed=seed + 1)
        teacher, _ = tinynet.train_supervised(teacher, clean, cfg)
        student0 = tinynet.init_mlp([8, 16, 16, 4], seed=seed + 2)
        accs = {}
        for tag in ("clean", "gaussian", "salt_pepper", "uniform"):
            ds = clean if tag == "clean" else tinynet.inject_noise(clean, tag, 0.5, seed=seed + 50)
            student, _ = distill_train(teacher, student0, ds, KdConfig(RuleBasedPolicy(), 0.5, cfg))
            test_idx = ds.indices("test")
            accs[tag] = tinynet.accuracy(student, ds.features[test_idx], ds.labels[test_idx])
        clean_wins += all(
            accs["clean"] >= accs[k] for k in ("gaussian", "salt_pepper", "uniform")
        )
    elapsed = time.time() - start
    assert clean_wins >= 16
    assert elapsed < 600.0
    announce(8, True, f"clean >= every noisy variant in {clean_wins}/20 seeds ({elapsed:.0f}s)")


def test_criterion_09_metrics_oracle_equivalence():
    start = time.time()
    rep = class_report(ConfusionMatrix(np.array([[1, 1], [0, 2]])))
    assert rep.accuracy == 0.75
    assert abs(rep.f1[0] - 2 / 3) < 1e-12

    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(3, 10))
        c = int(rng.integers(2, 5))
        probs = rng.dirichlet(np.ones(c), size=n)
        if rng.random() < 0.3:
            probs = np.round(probs, 1)
            probs /= probs.sum(axis=1, keepdims=True)
        labels = rng.integers(0, c, size=n)
        got = micro_curves(probs, labels)[0].auc
        # exhaustive pairwise oracle
        scores = probs.ravel()
        hits = np.zeros(probs.shape, dtype=bool)
        hits[np.arange(n), labels] = True
        hits = hits.ravel()
        pos = scores[hits]
        neg = scores[~hits]
        cmp_matrix = pos[:, None] - neg[None, :]
        oracle = ((cmp_matrix > 0).sum() + 0.5 * (cmp_matrix == 0).sum()) / (pos.size * neg.size)
        assert abs(got - oracle) < 1e-9

    for _ in range(1000):
        c = int(rng.integers(2, 6))
        counts = rng.integers(0, 25, size=(c, c))
        if counts.sum() == 0:
            counts[0, 0] = 1
        r = class_report(ConfusionMatrix(counts))
        assert abs(r.micro_precision - r.accuracy) < 1e-12
        assert abs(r.micro_recall - r.accuracy) < 1e-12
    elapsed = time.time() - start
    assert elapsed < 10.0
    announce(9, True, f"hand matrix, pairwise AUC oracle, micro identity ({elapsed:.1f}s)")


DETERMINISM_CONFIG = """\
[data]
samples = 160
classes = 3
dim = 4
complexity = 0.3
noise_kind = gaussian
noise_level = 0.5
noise_fraction = 0.5
seed = 11

[policy]
variant = rule_based

[kd]
t_base = 0.5
epochs = 5
batch_size = 32
learning_rate = 0.05
seed = 11
teacher_hidden = 16,16
student_hidden = 8,8

[aco]
pool = pool.json
seed = 2

[pso]
pool = pool.json
n_particles = 4
n_iterations = 8
seed = 2

[grid]
pool = pool.json

[random]
pool = pool.json
n_picks = 2
seed = 2
"""


def _dir_bytes(d: Path):
    return {p.name: p.read_bytes() for p in sorted(d.iterdir())}


def test_criterion_10_cli_determinism(tmp_path):
    start = time.time()
    cfg = tmp_path / "exp.ini"
    cfg.write_text(DETERMINISM_CONFIG)
    (tmp_path / "pool.json").write_text(
        '{"candidates": [{"name": "a", "stub_score": 0.4}, {"name": "b", "stub_score": 0.9},'
        ' {"name": "c", "stub_score": 0.6}]}'
    )
    preds = tmp_path / "preds.csv"
    preds.write_text("pred,p0,p1\n0,0.8,0.2\n1,0.3,0.7\n1,0.4,0.6\n")
    labels = tmp_path / "labels.csv"
    labels.write_text("label\n0\n1\n0\n")

    invocations = [
        ["gen-data", "--config", str(cfg)],
        ["select", "--config", str(cfg), "--strategy", "aco"],
        ["select", "--config", str(cfg), "--strategy", "random"],
        ["select", "--config", str(cfg), "--strategy", "grid"],
        ["select", "--config", str(cfg), "--strategy", "pso"],
        ["distill", "--config", str(cfg)],
        ["distill", "--config", str(cfg), "--ablation", "table10"],
        ["distill", "--config", str(cfg), "--ablation", "table11"],
        ["evaluate", "--predictions", str(preds), "--labels", str(labels)],
        ["repro-examples"],
    ]
    for i, argv in enumerate(invocations):
        a = tmp_path / f"run{i}a"
        b = tmp_path / f"run{i}b"
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert _dir_bytes(a) == _dir_bytes(b), f"outputs differ for {argv[0]}"
    elapsed = time.time() - start
    announce(10, True, f"all {len(invocations)} command invocations byte-identical ({elapsed:.1f}s)")
