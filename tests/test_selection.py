"""Tests for ACO selection and the random/grid/PSO baselines.

The probability triple [0.305, 0.424, 0.271] and the pheromone update
[2.7, 2.4, 3.6] are checked against their exact fractions (18/59 etc.)
and hand-evaluated update arithmetic.
"""

import dataclasses
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import test_cli
from antdistill import errors, selection, tinynet
from antdistill.errors import (
    AllZeroWeights,
    EmptyRun,
    IndexOutOfRange,
    InvalidRho,
    InvalidShape,
    NonFiniteWeights,
    ParseError,
    PoolTooSmall,
)
from antdistill.selection import (
    AcoConfig,
    PheromoneState,
    PsoConfig,
    ant_select,
    run_aco,
    run_grid,
    run_pso,
    run_random,
    selection_probabilities,
    stub_pool,
    update_pheromones,
)

# worked example: pheromone [2, 1, 4], heuristic [3, 5, 2], alpha 1, beta 2
WORKED_STATE = PheromoneState(np.array([2.0, 1.0, 4.0]), np.array([3.0, 5.0, 2.0]))
WORKED_PROBS = np.array([18.0, 25.0, 16.0]) / 59.0


class TestSelectionProbabilities:
    def test_worked_example(self):
        p = selection_probabilities(WORKED_STATE, 1.0, 2.0)
        np.testing.assert_allclose(p, WORKED_PROBS, atol=1e-12)
        np.testing.assert_allclose(p, [0.305, 0.424, 0.271], atol=1e-3)
        assert np.argmax(p) == 1

    def test_zero_exponents_give_uniform(self):
        p = selection_probabilities(WORKED_STATE, 0.0, 0.0)
        np.testing.assert_allclose(p, [1 / 3] * 3, atol=1e-12)

    def test_two_candidate_case(self):
        state = PheromoneState(np.array([1.0, 1.0]), np.array([1.0, 3.0]))
        np.testing.assert_allclose(
            selection_probabilities(state, 1.0, 1.0), [0.25, 0.75], atol=1e-12
        )

    def test_scale_covariance_at_alpha_one(self):
        for c in (0.1, 3.0, 250.0):
            scaled = PheromoneState(WORKED_STATE.pheromone * c, WORKED_STATE.heuristic)
            np.testing.assert_allclose(
                selection_probabilities(scaled, 1.0, 2.0),
                selection_probabilities(WORKED_STATE, 1.0, 2.0),
                atol=1e-12,
            )

    def test_all_zero_weights(self):
        state = PheromoneState(np.array([1.0, 1.0]), np.array([0.0, 0.0]))
        with pytest.raises(AllZeroWeights):
            selection_probabilities(state, 1.0, 2.0)

    @pytest.mark.parametrize("heuristic", [1.0, 0.0], ids=["inf", "inf-times-zero"])
    def test_overflowing_weight_is_named_error(self, heuristic):
        # 10^400 overflows to inf; times a heuristic^beta of 0 it is NaN
        state = PheromoneState(np.array([10.0, 1.0]), np.array([heuristic, 1.0]))
        with pytest.raises(NonFiniteWeights, match="is not finite for alpha 400.0, beta 1.0"):
            selection_probabilities(state, 400.0, 1.0)

    def test_overflowing_weight_sum_is_named_error(self):
        # each weight is 1e308, and their sum overflows
        state = PheromoneState(np.array([10.0, 10.0]), np.array([1.0, 1.0]))
        message = r"^pheromone\^alpha \* heuristic\^beta weights sum to inf for alpha 308.0, "
        with pytest.raises(NonFiniteWeights, match=message):
            selection_probabilities(state, 308.0, 1.0)


class TestAntSelect:
    def test_roulette_frequencies_match_probabilities(self):
        probabilities = selection_probabilities(WORKED_STATE, 1.0, 2.0)
        rng = np.random.default_rng(123)
        counts = np.zeros(3)
        n = 100_000
        for _ in range(n):
            counts[ant_select(probabilities, rng)] += 1
        np.testing.assert_allclose(counts / n, WORKED_PROBS, atol=0.01)

    def test_zero_mass_candidate_never_selected(self):
        state = PheromoneState(np.array([1.0, 1.0]), np.array([0.0, 5.0]))
        probabilities = selection_probabilities(state, 1.0, 2.0)
        rng = np.random.default_rng(7)
        assert all(ant_select(probabilities, rng) == 1 for _ in range(200))

    @settings(max_examples=100, deadline=None)
    @given(vectors=st.integers(1, 6).flatmap(lambda m: st.tuples(
               st.lists(st.floats(1e-3, 1e3), min_size=m, max_size=m),
               st.lists(st.floats(0.0, 1e3), min_size=m, max_size=m))),
           alpha=st.floats(0.0, 4.0), beta=st.floats(0.0, 4.0),
           seed=st.integers(0, 2**32 - 1), n=st.integers(1, 30))
    def test_draws_equal_the_per_ant_roulette(self, vectors, alpha, beta, seed, n):
        # each ant of an iteration draws from the iteration's one vector; the
        # picks are those of a roulette that rebuilds the weights for each ant
        state = PheromoneState(*map(np.array, vectors))
        assume(np.any(state.pheromone**alpha * state.heuristic**beta > 0))
        probabilities = selection_probabilities(state, alpha, beta)
        rng, per_ant_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        for _ in range(n):
            w = state.pheromone**alpha * state.heuristic**beta
            p = w / float(w.sum())
            expected = np.searchsorted(np.cumsum(p), per_ant_rng.random(), side="right")
            assert ant_select(probabilities, rng) == int(expected.clip(0, p.size - 1))


class TestUpdatePheromones:
    def test_worked_example(self):
        state = PheromoneState(np.array([2.0, 1.0, 4.0]), np.array([3.0, 5.0, 2.0]))
        new = update_pheromones(state, [(1, 0.8), (0, 0.9), (1, 0.7)], rho=0.1)
        np.testing.assert_allclose(new.pheromone, [2.7, 2.4, 3.6], atol=1e-9)

    def test_rho_zero_empty_selections_is_identity(self):
        new = update_pheromones(WORKED_STATE, [], rho=0.0)
        np.testing.assert_array_equal(new.pheromone, WORKED_STATE.pheromone)

    def test_single_candidate_update(self):
        state = PheromoneState(np.array([4.0, 1.0]), np.array([1.0, 1.0]))
        new = update_pheromones(state, [(0, 1.0)], rho=0.5)
        assert abs(new.pheromone[0] - 3.0) < 1e-12

    def test_positivity_preserved(self):
        rng = np.random.default_rng(0)
        state = PheromoneState(np.ones(5), np.ones(5))
        for _ in range(200):
            picks = [(int(rng.integers(0, 5)), float(rng.random())) for _ in range(3)]
            state = update_pheromones(state, picks, rho=0.3)
            assert np.all(state.pheromone > 0)

    def test_invalid_rho(self):
        with pytest.raises(InvalidRho):
            update_pheromones(WORKED_STATE, [], rho=1.0)

    @pytest.mark.parametrize("cid", [-1, 3])
    def test_id_outside_the_pool_is_named(self, cid):
        # -1 would deposit on the last candidate, 3 is past the end
        with pytest.raises(IndexOutOfRange, match=rf"^candidate id {cid} outside \[0, 3\)$"):
            update_pheromones(WORKED_STATE, [(0, 0.9), (cid, 0.5)], rho=0.1)


class TestRunAco:
    def test_dominant_stub_found_all_seeds(self):
        pool = stub_pool([0.1, 0.9, 0.2])
        for seed in range(20):
            rep = run_aco(pool, AcoConfig(n_ants=5, n_iterations=10, seed=seed))
            assert rep.best_id == 1
            assert rep.best_score == 0.9

    def test_counting_contract_16_stubs(self):
        scores = np.linspace(0.2, 0.8, 16)
        rep = run_aco(stub_pool(scores), AcoConfig(n_ants=5, n_iterations=15, seed=3))
        assert rep.total_selections == 75
        assert rep.unique_evaluations <= 16

    def test_empty_run_rejected(self):
        with pytest.raises(EmptyRun):
            AcoConfig(n_iterations=0)

    def test_pool_too_small(self):
        with pytest.raises(PoolTooSmall):
            run_aco(stub_pool([0.5]), AcoConfig())

    def test_deterministic_reports(self):
        pool = stub_pool([0.3, 0.7, 0.5, 0.2])
        a = run_aco(pool, AcoConfig(seed=11))
        b = run_aco(pool, AcoConfig(seed=11))
        assert a.to_json() == b.to_json()

    def test_report_json_refuses_nan(self):
        rep = dataclasses.replace(run_aco(stub_pool([0.3, 0.7]), AcoConfig()),
                                  best_score=float("nan"))
        with pytest.raises(ValueError, match="not JSON compliant"):
            rep.to_json()

    def test_pair_mode_counts_below_grid(self):
        scores = list(np.linspace(0.3, 0.8, 15)) + [0.95]
        pool = stub_pool(scores)
        aco = run_aco(pool, AcoConfig(n_ants=5, n_iterations=15, seed=1), pair_mode=True)
        grid = run_grid(pool, pair_mode=True)
        assert grid.unique_evaluations == 240
        assert aco.unique_evaluations < 240
        assert aco.teacher_id != aco.student_id


class TestExtractTeacherStudent:
    """A single-mode report's teacher and student are the top two of
    `selection._rank`: by final pheromone, ties by score then index."""

    def test_worked_final_pheromone(self):
        assert selection._rank({}, [2.7, 2.4, 3.6])[:2] == [2, 0]  # 3.6 > 2.7 > 2.4

    def test_two_candidates(self):
        assert selection._rank({}, [1.0, 2.0]) == [1, 0]

    def test_tie_broken_by_score(self):
        assert selection._rank({0: 0.8, 1: 0.9}, [2.0, 2.0]) == [1, 0]

    def test_one_evaluated_candidate_has_no_student(self):
        rep = run_random(stub_pool([0.3, 0.7]), n_picks=1)
        assert rep.teacher_id is not None
        assert rep.student_id is None


class TestRunRandom:
    def test_full_pool_reduces_to_exhaustive(self):
        pool = stub_pool([0.4, 0.9, 0.1, 0.6])
        rep = run_random(pool, n_picks=4, seed=5)
        assert rep.best_score == 0.9 and rep.best_id == 1

    def test_single_pick_budget(self):
        rep = run_random(stub_pool([0.3, 0.6, 0.9]), n_picks=1, seed=2)
        assert rep.unique_evaluations == 1
        assert rep.total_selections == 1

    def test_deterministic(self):
        pool = stub_pool([0.3, 0.6, 0.9])
        assert run_random(pool, 2, seed=9).to_json() == run_random(pool, 2, seed=9).to_json()


class TestRunGrid:
    def test_two_stub_best(self):
        rep = run_grid(stub_pool([0.3, 0.7]))
        assert rep.best_id == 1 and rep.unique_evaluations == 2

    def test_pair_mode_240(self):
        rep = run_grid(stub_pool(np.linspace(0.1, 0.9, 16)), pair_mode=True)
        assert rep.unique_evaluations == 240
        assert rep.total_selections == 240

    def test_grid_dominates_aco(self):
        rng = np.random.default_rng(0)
        for seed in range(10):
            pool = stub_pool(rng.uniform(0.1, 0.9, 12))
            grid = run_grid(pool)
            aco = run_aco(pool, AcoConfig(seed=seed))
            assert grid.best_score >= aco.best_score


@pytest.mark.parametrize("value", [np.inf, -np.inf, np.nan])
@pytest.mark.parametrize("cls, name", [(AcoConfig, "alpha"), (AcoConfig, "beta"),
                                       (PsoConfig, "inertia"), (PsoConfig, "c1"),
                                       (PsoConfig, "c2")])
def test_non_finite_search_parameters_rejected(cls, name, value):
    with pytest.raises(InvalidShape, match=name):
        cls(**{name: value})


class TestRunPso:
    def test_one_particle_one_iteration_budget(self):
        rep = run_pso(stub_pool([0.2, 0.8, 0.5]), PsoConfig(n_particles=1, n_iterations=1, seed=0))
        assert rep.unique_evaluations <= 2
        assert rep.total_selections == 2

    def test_frozen_swarm_keeps_initial_best(self):
        pool = stub_pool([0.2, 0.8, 0.5, 0.9, 0.1])
        cfg = PsoConfig(n_particles=3, n_iterations=10, inertia=0.0, c1=0.0, c2=0.0, seed=4)
        rep = run_pso(pool, cfg)
        init = run_pso(pool, PsoConfig(n_particles=3, n_iterations=0, inertia=0.0,
                                       c1=0.0, c2=0.0, seed=4))
        assert rep.best_score == init.best_score

    def test_finds_dominant_in_most_seeds(self):
        pool = stub_pool([0.1, 0.9, 0.2])
        hits = 0
        for seed in range(20):
            rep = run_pso(pool, PsoConfig(n_particles=8, n_iterations=30, seed=seed))
            hits += rep.best_id == 1
        assert hits >= 18

    def test_deterministic(self):
        pool = stub_pool([0.1, 0.9, 0.2])
        cfg = PsoConfig(seed=3)
        assert run_pso(pool, cfg).to_json() == run_pso(pool, cfg).to_json()


class TestMlpBackedPool:
    def test_profiles_evaluate_and_cache(self):
        ds = tinynet.generate_synthetic(120, 3, 4, 0.0, seed=0)
        pool = selection.CandidatePool(
            [
                selection.Candidate("small", profile=selection.MlpProfile((4,), 0.05, 5)),
                selection.Candidate("wide", profile=selection.MlpProfile((16,), 0.05, 5)),
            ],
            dataset=ds,
        )
        rep = run_grid(pool)
        assert rep.unique_evaluations == 2
        assert 0.0 <= rep.best_score <= 1.0

    def test_pool_file_roundtrip(self, tmp_path):
        path = tmp_path / "pool.json"
        path.write_text(json.dumps({
            "candidates": [
                {"name": "a", "stub_score": 0.4},
                {"name": "b", "stub_score": 0.7},
            ]
        }))
        pool = selection.load_pool(path)
        assert len(pool) == 2
        assert pool.candidates[1].stub_score == 0.7

    def test_pool_file_errors(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        with pytest.raises(ParseError):
            selection.load_pool(bad)

    @pytest.mark.parametrize("name, reason", [("missing.json", "No such file or directory"),
                                              ("pools", "Is a directory")])
    def test_unreadable_pool_file_is_parse_error_naming_it(self, tmp_path, name, reason):
        (tmp_path / "pools").mkdir()
        path = tmp_path / name
        with pytest.raises(ParseError, match=f"^{re.escape(f'{path}: cannot read: {reason}')}$"):
            selection.load_pool(path)


class TestMixedPool:
    def mixed_pool(self):
        return selection.CandidatePool(
            [
                selection.Candidate("stub", stub_score=0.6),
                selection.Candidate("mlp", profile=selection.MlpProfile((4,), 0.05, 2)),
            ],
            dataset=tinynet.generate_synthetic(60, 2, 3, 0.0, seed=1),
        )

    def test_pair_mode_rejected_before_any_training(self):
        with pytest.raises(InvalidShape, match="pair mode"):
            run_grid(self.mixed_pool(), pair_mode=True)
        with pytest.raises(InvalidShape, match="pair mode"):
            run_aco(self.mixed_pool(), AcoConfig(n_ants=1, n_iterations=1), pair_mode=True)

    def test_single_mode_still_runs(self):
        rep = run_grid(self.mixed_pool())
        assert rep.unique_evaluations == 2
        assert rep.evaluated["0"] == 0.6
        assert 0.0 <= rep.evaluated["1"] <= 1.0


# sha256 of to_json() + "\n" + csv_row(), re-recorded when every report
# gained evaluations_to_best and an ACO report's history kept only its
# picks; any change to a report's bytes shows up here
TIED = [0.5, 0.7, 0.7, 0.2, 0.9, 0.35]
GOLDEN_REPORTS = {
    "aco_single": (
        lambda: run_aco(stub_pool(TIED), AcoConfig(seed=11)),
        "e0b9e9f8a788c506b007449285bf4a20ef06a779e206e61164c57ae8c32cac7e",
    ),
    "aco_pair": (
        lambda: run_aco(stub_pool(TIED[:5]), AcoConfig(n_ants=4, n_iterations=6, seed=2),
                        pair_mode=True),
        "997db158ae674dc38b21ef5f5aa384ae1e17de1d495f20532c93cfdb72031d5a",
    ),
    "random_one_pick": (
        lambda: run_random(stub_pool(TIED), n_picks=1, seed=2),
        "8587a638f0ac3e65fa32fa7578d488f0033f207a6ddfbfacf2e77061d1cd9415",
    ),
    "random_three_picks": (
        lambda: run_random(stub_pool(TIED), n_picks=3, seed=5),
        "9c4707b7402337eaddc8fd383515ad5b0a2f6c3dce83ee0294cbc465431e2c7e",
    ),
    "grid_single": (
        lambda: run_grid(stub_pool(TIED)),
        "be2fc25702ffdae952574e002eaa8fce9a6f0d6367f23240e291f4d5a4a62d14",
    ),
    "grid_pair": (
        lambda: run_grid(stub_pool(TIED[:4]), pair_mode=True),
        "b5fa8c506b42459825c06f7759857bbad1fb324a32d752627cba5f8df48dc3cc",
    ),
    "pso": (
        lambda: run_pso(stub_pool(TIED), PsoConfig(n_particles=4, n_iterations=6, seed=3)),
        "a69f887d7f3cd69e876bcd0d916cfea4b6f2fdc2497ef2252cf2ede02d7c5a3d",
    ),
}


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS))
def test_report_bytes_pinned(case):
    run, digest = GOLDEN_REPORTS[case]
    rep = run()
    text = rep.to_json() + "\n" + rep.csv_row()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def assert_best_is_the_first_best_miss(rep):
    """best_score is the top evaluated score, best_id the k-th miss, the
    first to score it, and evaluations_to_best counts to that miss.
    evaluated keeps the misses in order; an ACO run has proxied all M
    candidates first, so a single-mode miss adds nothing to the count."""
    misses = list(rep.evaluated.values())
    assert rep.best_score == max(misses)
    k = misses.index(rep.best_score) + 1
    best_key = ",".join(map(str, rep.best_id)) if rep.pair_mode else str(rep.best_id)
    assert list(rep.evaluated)[k - 1] == best_key
    if rep.strategy != "aco":
        assert rep.evaluations_to_best == k
    else:
        assert rep.evaluations_to_best == (rep.pool_size + k if rep.pair_mode else rep.pool_size)


@pytest.mark.parametrize("case", sorted(GOLDEN_REPORTS))
def test_evaluations_to_best_counts_to_the_first_best_miss(case):
    assert_best_is_the_first_best_miss(GOLDEN_REPORTS[case][0]())


# every strategy, ACO and grid in both modes, on a drawn budget and seed
STRATEGY_RUNS = {
    "aco": lambda pool, n, seed: run_aco(pool, AcoConfig(n_ants=n, n_iterations=n, seed=seed)),
    "aco_pair": lambda pool, n, seed: run_aco(pool, AcoConfig(n_ants=n, n_iterations=n, seed=seed),
                                              pair_mode=True),
    "random": lambda pool, n, seed: run_random(pool, n_picks=n, seed=seed),
    "grid": lambda pool, n, seed: run_grid(pool),
    "grid_pair": lambda pool, n, seed: run_grid(pool, pair_mode=True),
    "pso": lambda pool, n, seed: run_pso(pool, PsoConfig(n_particles=n, n_iterations=n,
                                                         seed=seed)),
}


@settings(max_examples=300, deadline=None)
@given(case=st.sampled_from(sorted(STRATEGY_RUNS)),
       scores=st.lists(st.sampled_from([0.0, 0.5, 0.9, 1.0]), min_size=2, max_size=10),
       n=st.integers(1, 8), seed=st.integers(0, 2**32 - 1))
def test_every_report_names_the_first_best_miss(case, scores, n, seed):
    # ties at the top: run_random(stub_pool([0.9, 0.5, 0.9]), 3, seed=0)
    # evaluates 2, 0, 1 and names 2, the first of them to score 0.9
    try:
        rep = STRATEGY_RUNS[case](stub_pool(scores), n, seed)
    except AllZeroWeights:  # every proxy is 0: ACO has no heuristic to draw by
        assume(False)
    assert_best_is_the_first_best_miss(rep)


@pytest.mark.parametrize("run, misses", [
    (lambda pool: run_random(pool, n_picks=3, seed=0), ["2", "0", "1"]),
    (lambda pool: run_pso(pool, PsoConfig(n_particles=3, n_iterations=3, seed=1)),
     ["1", "2", "0"]),
], ids=["random", "pso"])
def test_a_top_tie_names_the_first_drawn_best_and_the_lowest_id_teacher(run, misses):
    rep = run(stub_pool([0.9, 0.5, 0.9]))
    assert list(rep.evaluated) == misses
    assert (rep.best_id, rep.best_name, rep.teacher_id) == (2, "stub-2", 0)


def replay_aco(report: dict):
    """An ACO run rebuilt from its report.json alone: all-ones pheromone and
    the proxy heuristic (a pair's is the mean of its two proxies), then per
    iteration the probability vector, each ant's roulette pick on
    default_rng(seed) and the update with the picks' evaluated scores.
    Returns each iteration's [probabilities, pheromone] lists, the picks,
    the final pheromone, and the unique evaluations (proxies included) right
    after the first miss that scored the best."""
    m, cfg, p = report["pool_size"], report["config"], report["proxy_scores"]
    if report["pair_mode"]:
        units = [(i, j) for i in range(m) for j in range(m) if i != j]
        heuristic = np.array([(p[i] + p[j]) / 2.0 for i, j in units])
    else:
        units, heuristic = list(range(m)), np.array(p)
    key = (lambda u: f"{u[0]},{u[1]}") if report["pair_mode"] else str
    state = PheromoneState(np.ones(len(units)), heuristic)
    rng = np.random.default_rng(report["seed"])
    vectors, picks, missed, best, to_best = [], [], [], -1.0, 0
    for _ in range(cfg["n_iterations"]):
        probabilities = selection_probabilities(state, cfg["alpha"], cfg["beta"])
        chosen = [ant_select(probabilities, rng) for _ in range(cfg["n_ants"])]
        scores = [report["evaluated"][key(units[u])] for u in chosen]
        for u, score in zip(chosen, scores):
            if units[u] not in missed:
                missed.append(units[u])
                if score > best:
                    best, to_best = score, len(missed) + len(set(range(m)) - set(missed))
        state = update_pheromones(state, zip(chosen, scores), cfg["rho"])
        vectors.append([probabilities.tolist(), state.pheromone.tolist()])
        picks.append(chosen)
    return vectors, picks, state.pheromone.tolist(), to_best


# sha256 of json.dumps([[h["probabilities"], h["pheromone"]] for h in
# history]): the two vectors each ACO iteration of these reports held
# before history kept only its picks, recorded from those reports
REPLAYED_VECTORS = {
    "aco_single": "8c5447b8741a9bca2cd774c0968e7b4258cf00ad0f4b41d117b3df3e0ed5b398",
    "aco_pair": "9cdb4556adab4b12b410252098ef2e068a64e287e1b83a18d0f82f23d10b94e9",
    # report.json of test_cli.SELECT_RUNS' select commands
    "aco": "733abd2c8514219e69a28f25ac93af8c5f5f3a854c0ec81df77f22029f7420f5",
    "aco_pairs": "eb4fe7265f97eca79ce4b776af7e38f41bc5e8216651b749693c46eaac195a00",
}


@pytest.mark.parametrize("case", sorted(REPLAYED_VECTORS))
def test_report_replays_the_vectors_it_once_held(tmp_path, case):
    if case in GOLDEN_REPORTS:
        report = json.loads(GOLDEN_REPORTS[case][0]().to_json())
    else:
        test_cli.select_digests(tmp_path, case)
        report = json.loads((tmp_path / "run" / "report.json").read_text(encoding="utf-8"))
    vectors, picks, final_pheromone, to_best = replay_aco(report)
    assert [h["chosen"] for h in report["history"]] == picks
    assert hashlib.sha256(json.dumps(vectors).encode()).hexdigest() == REPLAYED_VECTORS[case]
    assert report["final_pheromone"] == (None if report["pair_mode"] else final_pheromone)
    assert report["evaluations_to_best"] == to_best


@settings(max_examples=300, deadline=None)
@given(scores=st.lists(st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0),
                       min_size=2, max_size=10),
       alpha=st.floats(0.0, 4.0), beta=st.floats(0.0, 4.0), rho=st.floats(0.0, 0.99),
       n_ants=st.integers(1, 6), n_iterations=st.integers(1, 8),
       seed=st.integers(0, 2**32 - 1), pair_mode=st.booleans())
def test_any_aco_report_replays(scores, alpha, beta, rho, n_ants, n_iterations, seed,
                                pair_mode):
    cfg = AcoConfig(alpha, beta, rho, n_ants, n_iterations, seed)
    try:
        rep = run_aco(stub_pool(scores), cfg, pair_mode=pair_mode)
    except AllZeroWeights:  # every heuristic^beta is 0: no report to replay
        assume(False)
    report = json.loads(rep.to_json())
    _, picks, final_pheromone, to_best = replay_aco(report)
    assert [h["chosen"] for h in report["history"]] == picks
    assert report["final_pheromone"] == (None if pair_mode else final_pheromone)
    assert report["evaluations_to_best"] == to_best


def test_200_stub_pair_report_is_linear_in_the_pool():
    # 39,800 ordered pairs: the report once held two vectors of them per
    # iteration, 34.69 MB at AcoConfig()
    pool = stub_pool(np.random.default_rng(0).uniform(0.0, 1.0, 200))
    assert len(run_aco(pool, AcoConfig(), pair_mode=True).to_json().encode()) < 32 * 1024


ERROR_TYPES = tuple(
    v for v in vars(errors).values() if isinstance(v, type) and issubclass(v, Exception)
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=3),
    max_leaves=8,
)
POOL_ENTRIES = st.dictionaries(
    st.sampled_from(["name", "stub_score", "hidden_dims", "learning_rate", "epochs"]),
    JSON_VALUES | st.lists(st.integers(-2, 20), max_size=3),
) | JSON_VALUES
POOL_DOCS = (
    JSON_VALUES
    | st.lists(POOL_ENTRIES, max_size=3)
    | st.fixed_dictionaries({"candidates": st.lists(POOL_ENTRIES, max_size=3)})
)


class TestLoadPoolInputs:
    @pytest.mark.parametrize("doc", [
        {"candidates": [1, 2]},
        {"candidates": [{"name": "a", "hidden_dims": 5}]},
        {"candidates": [{"name": "a", "stub_score": [0.5]}]},
        {"candidates": [{"name": ["a"], "stub_score": 0.5}]},
        {"candidates": [{"name": "a", "hidden_dims": [4], "epochs": 0}]},
        {"candidates": [{"name": "a", "hidden_dims": [4], "learning_rate": -0.1}]},
        {"candidates": [{"name": "a", "hidden_dims": [4], "learning_rate": float("nan")}]},
        {"candidates": [{"name": "a", "hidden_dims": [4], "learning_rate": float("inf")}]},
        {"candidates": [{"name": "a", "hidden_dims": [8, 0]}]},
        {"candidates": [{"name": "a", "hidden_dims": [1.5]}]},
        {"candidates": [{"name": "a", "hidden_dims": [True]}]},
        {"candidates": [{"name": "a", "hidden_dims": ["3"]}]},
        {"candidates": [{"name": "a", "hidden_dims": [4], "epochs": 2.7}]},
        {"candidates": [{"name": "a", "hidden_dims": [4], "epoch": 1, "learning_rte": 0.5}]},
        {"candidates": [{"name": "b", "stub_scor": 0.5, "hidden_dims": [2]}]},
        {"candidates": [{"name": "c", "stub_score": 0.5, "hidden_dims": [2]}]},
        {"candidates": [{"name": "a", "stub_score": 1.5}]},
        {"candidates": [{"name": "a", "stub_score": -0.1}]},
        {"candidates": [{"name": "a", "stub_score": float("nan")}]},
    ])
    def test_malformed_entry_is_parse_error(self, tmp_path, doc):
        path = tmp_path / "pool.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ParseError):
            selection.load_pool(path)

    @pytest.mark.parametrize("score", [1.5, -0.1, float("nan")])
    def test_stub_score_outside_unit_interval_names_file_and_candidate(self, tmp_path, score):
        path = tmp_path / "pool.json"
        path.write_text(json.dumps({"candidates": [{"name": "a", "stub_score": score}]}))
        message = f"{path}: candidate 'a': stub_score must lie in [0, 1], got {score}"
        with pytest.raises(ParseError, match=f"^{re.escape(message)}$"):
            selection.load_pool(path)

    @pytest.mark.parametrize("entry, key", [
        ({"name": "a", "hidden_dims": [4], "epochs": 1, "learning_rte": 0.5}, "learning_rte"),
        ({"name": "a", "stub_score": 0.5, "hidden_dims": [2]}, "hidden_dims"),
    ])
    def test_key_of_another_kind_is_named(self, tmp_path, entry, key):
        # a misspelled key once fell back to its default, and a misspelled
        # stub_score made the entry an MLP
        path = tmp_path / "pool.json"
        path.write_text(json.dumps({"candidates": [entry]}))
        with pytest.raises(ParseError, match=re.escape(f"{path}: candidate 'a': key '{key}'")):
            selection.load_pool(path)

    @settings(max_examples=300, deadline=None)
    @given(doc=POOL_DOCS)
    def test_any_json_gives_pool_or_named_error(self, tmp_path_factory, doc):
        path = tmp_path_factory.getbasetemp() / "fuzzed_pool.json"
        path.write_text(json.dumps(doc))
        try:
            pool = selection.load_pool(path)
        except ERROR_TYPES:
            return
        assert isinstance(pool, selection.CandidatePool)
