"""Candidate-model selection: ant colony optimization plus random,
grid/exhaustive, and particle-swarm baselines.

Every strategy runs against a CandidatePool whose entries are either
fixed-score stubs (for deterministic optimizer tests) or tiny-MLP
hyper-profiles evaluated by actually training on a dataset. Evaluations
are cached per run: re-selecting a candidate is free, and reports count
both total selections and unique evaluation units so strategies can be
compared on evaluation budget.

Counting rule: a unique evaluation unit is a candidate id, its index in
the pool (single-model mode), or an ordered pair of ids (pair mode). The
one-time cheap proxy pass that seeds the ACO heuristic vector counts
toward unique evaluations.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import distill, tinynet
from .errors import (
    AllZeroWeights,
    EmptyRun,
    InvalidRho,
    InvalidShape,
    NonFiniteWeights,
    ParseError,
    PoolTooSmall,
)
from .temperature import ConstantPolicy, _check_finite

# pair score favors the student side: teacher quality matters, the
# student's achievable accuracy matters more
PAIR_STUDENT_SHARE = 0.7

# proxy pass budget for seeding the heuristic vector
PROXY_SUBSAMPLE = 0.1
PROXY_EPOCHS = 3


# ---------------------------------------------------------------------------
# candidates and pools
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MlpProfile:
    hidden_dims: tuple[int, ...]
    learning_rate: float = 0.05
    epochs: int = 10

    def __post_init__(self):
        if any(h < 1 for h in self.hidden_dims):
            raise InvalidShape(f"hidden sizes must be >= 1, got {list(self.hidden_dims)}")
        if self.epochs < 1:
            raise InvalidShape(f"epochs must be >= 1, got {self.epochs}")
        if not (math.isfinite(self.learning_rate) and self.learning_rate >= 0.0):
            raise InvalidShape(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


@dataclass
class Candidate:
    name: str
    stub_score: float | None = None
    profile: MlpProfile | None = None

    def __post_init__(self):
        if (self.stub_score is None) == (self.profile is None):
            raise InvalidShape(f"candidate {self.name!r} needs exactly one of stub_score/profile")
        if self.stub_score is not None and not 0.0 <= self.stub_score <= 1.0:
            raise InvalidShape(f"stub_score must lie in [0, 1], got {self.stub_score}")


@dataclass
class CandidatePool:
    candidates: list[Candidate]
    dataset: tinynet.SyntheticDataset | None = None

    def __len__(self) -> int:
        return len(self.candidates)

    def __post_init__(self):
        if any(c.profile is not None for c in self.candidates) and self.dataset is None:
            raise InvalidShape("pool with MLP profiles needs a dataset")


def stub_pool(scores) -> CandidatePool:
    return CandidatePool(
        [Candidate(f"stub-{i}", stub_score=float(s)) for i, s in enumerate(scores)]
    )


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _json_float(value, key: str) -> float:
    """value, the entry's key, as a float; it must be a JSON number, not a
    string or a boolean."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError(f"{key} must be a number, got {value!r}")
    return float(value)


_STUB_KEYS = {"name", "stub_score"}
_MLP_KEYS = {"name", "hidden_dims", "learning_rate", "epochs"}


def load_pool(path, dataset=None) -> CandidatePool:
    """Pool definition file: JSON list of {name, stub_score | hidden_dims+lr+epochs};
    a file it cannot read, or an entry with any other key or a bad value, is a
    ParseError that names the file."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ParseError(f"{path}: cannot read: {exc.strerror or exc}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"{path}: {exc}") from exc
    entries = raw.get("candidates") if isinstance(raw, dict) else raw
    if not isinstance(entries, list):
        raise ParseError(f"{path}: expected a list of candidates")
    candidates = []
    for i, e in enumerate(entries):
        if not isinstance(e, dict):
            raise ParseError(f"{path}: candidate {i} is not a JSON object")
        name = e.get("name", f"candidate-{i}")
        if not isinstance(name, str):
            raise ParseError(f"{path}: candidate {i} has a non-string name")
        keys = _STUB_KEYS if "stub_score" in e else _MLP_KEYS
        extra = sorted(set(e) - keys)
        if extra:
            raise ParseError(f"{path}: candidate {name!r}: key {extra[0]!r} not in {sorted(keys)}")
        try:
            if "stub_score" in e:
                fields = {"stub_score": _json_float(e["stub_score"], "stub_score")}
            else:
                dims = e["hidden_dims"]
                if not isinstance(dims, list) or not all(map(_is_json_int, dims)):
                    raise TypeError(f"hidden_dims must be a list of integers, got {dims!r}")
                # only the keys the entry gives: MlpProfile states the defaults
                given = {}
                if "epochs" in e:
                    if not _is_json_int(e["epochs"]):
                        raise TypeError(f"epochs must be an integer, got {e['epochs']!r}")
                    given["epochs"] = e["epochs"]
                if "learning_rate" in e:
                    given["learning_rate"] = _json_float(e["learning_rate"], "learning_rate")
                fields = {"profile": MlpProfile(tuple(dims), **given)}
            candidates.append(Candidate(name, **fields))
        except KeyError as exc:
            raise ParseError(f"{path}: candidate {name!r} missing {exc}") from exc
        except (TypeError, ValueError, OverflowError) as exc:
            raise ParseError(f"{path}: candidate {name!r}: {exc}") from exc
    return CandidatePool(candidates, dataset)


# ---------------------------------------------------------------------------
# ant colony machinery
# ---------------------------------------------------------------------------


@dataclass
class PheromoneState:
    pheromone: np.ndarray
    heuristic: np.ndarray

    def __post_init__(self):
        self.pheromone = np.asarray(self.pheromone, dtype=np.float64)
        self.heuristic = np.asarray(self.heuristic, dtype=np.float64)
        if self.pheromone.shape != self.heuristic.shape or self.pheromone.ndim != 1:
            raise InvalidShape("pheromone and heuristic must be 1-D vectors of equal length")
        if np.any(self.pheromone <= 0):
            raise InvalidShape("pheromone entries must stay > 0")
        if np.any(self.heuristic < 0):
            raise InvalidShape("heuristic entries must be >= 0")
        if not (np.isfinite(self.pheromone).all() and np.isfinite(self.heuristic).all()):
            raise InvalidShape("pheromone and heuristic entries must be finite")


@dataclass(frozen=True)
class AcoConfig:
    alpha: float = 1.0  # pheromone exponent
    beta: float = 2.0  # heuristic exponent
    rho: float = 0.1  # evaporation rate
    q0: float = 0.0  # probability of greedy exploitation; 0 = pure roulette
    n_ants: int = 5
    n_iterations: int = 15
    seed: int = 0

    def __post_init__(self):
        if not 0.0 <= self.rho < 1.0:
            raise InvalidRho(f"rho must lie in [0, 1), got {self.rho!r}")
        if not 0.0 <= self.q0 <= 1.0:
            raise InvalidShape(f"q0 must lie in [0, 1], got {self.q0!r}")
        if self.alpha < 0 or self.beta < 0:
            raise InvalidShape("alpha and beta must be >= 0")
        if self.n_ants < 1 or self.n_iterations < 1:
            raise EmptyRun("n_ants and n_iterations must be >= 1")
        _check_finite(self, InvalidShape)


def _preference_weights(state: PheromoneState, alpha: float, beta: float):
    """(weights pheromone^alpha * heuristic^beta, their sum)."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf, or inf * 0
        w = state.pheromone**alpha * state.heuristic**beta
        total = float(w.sum())
    if not np.isfinite(w).all():
        raise NonFiniteWeights(f"pheromone^alpha * heuristic^beta is not finite for alpha "
                               f"{alpha!r}, beta {beta!r}: {w.tolist()}")
    if not np.any(w > 0):
        raise AllZeroWeights("every pheromone^alpha * heuristic^beta weight is zero")
    if not math.isfinite(total):
        raise NonFiniteWeights(f"pheromone^alpha * heuristic^beta weights sum to {total!r} for "
                               f"alpha {alpha!r}, beta {beta!r}: {w.tolist()}")
    return w, total


def selection_probabilities(state: PheromoneState, alpha: float, beta: float) -> np.ndarray:
    """P_m = pheromone^alpha * heuristic^beta, normalized over candidates."""
    w, total = _preference_weights(state, alpha, beta)
    return w / total


def ant_select(state: PheromoneState, cfg: AcoConfig, rng: np.random.Generator) -> int:
    """One ant's pick: greedy argmax with probability q0, else roulette wheel."""
    w, total = _preference_weights(state, cfg.alpha, cfg.beta)
    if cfg.q0 > 0.0 and rng.random() < cfg.q0:
        return int(np.argmax(w))
    p = w / total
    return int(np.searchsorted(np.cumsum(p), rng.random(), side="right").clip(0, p.size - 1))


def update_pheromones(state: PheromoneState, selections, rho: float) -> PheromoneState:
    """phi <- (1 - rho) * phi + sum of selected candidates' performances."""
    if not 0.0 <= rho < 1.0:
        raise InvalidRho(f"rho must lie in [0, 1), got {rho!r}")
    phi = (1.0 - rho) * state.pheromone
    for cid, performance in selections:
        if not 0.0 <= performance <= 1.0:
            raise InvalidShape(f"performance must lie in [0, 1], got {performance!r}")
        phi[cid] += performance
    return PheromoneState(phi, state.heuristic.copy())


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


@dataclass
class SelectionReport:
    strategy: str
    seed: int
    pool_size: int
    pair_mode: bool
    best_id: object  # candidate id, or [teacher_id, student_id] in pair mode
    best_name: str
    best_score: float
    teacher_id: int | None
    student_id: int | None
    unique_evaluations: int
    total_selections: int
    evaluated: dict  # str(id or pair) -> score
    history: list = field(default_factory=list)
    final_pheromone: list | None = None

    def to_json(self) -> str:
        payload = dict(self.__dict__)
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False)

    def csv_row(self) -> str:
        return (
            f"{self.strategy},{self.seed},{self.best_score!r},"
            f"{self.unique_evaluations},{self.total_selections}"
        )


CSV_HEADER = "strategy,seed,best_score,unique_evaluations,total_selections"


def _rank(scores: dict, pheromone=None) -> list:
    """Units best first: by score, ties by unit; or, given a pheromone
    vector, every candidate by pheromone, ties by score then index."""
    if pheromone is None:
        return sorted(scores, key=lambda u: (-scores[u], u))
    return sorted(range(len(pheromone)),
                  key=lambda i: (-pheromone[i], -scores.get(i, -np.inf), i))


# ---------------------------------------------------------------------------
# strategies
# ---------------------------------------------------------------------------


def _train(profile: MlpProfile, ds: tinynet.SyntheticDataset, seed: int, epochs: int):
    """Fresh MLP of `profile` trained supervised on `ds`; returns (model, history)."""
    model = tinynet.init_mlp([ds.n_features, *profile.hidden_dims, ds.n_classes], seed=seed)
    cfg = tinynet.TrainConfig(epochs=epochs, learning_rate=profile.learning_rate, seed=seed)
    return tinynet.train_supervised(model, ds, cfg)


class _Run:
    """One selection run: the evaluation units, their score cache, the
    budget counters, and the report built from them."""

    def __init__(self, pool: CandidatePool, seed: int, pair_mode: bool):
        m = len(pool)
        if m < 2:
            raise PoolTooSmall(f"need >= 2 candidates, got {m}")
        if pair_mode and len({c.profile is None for c in pool.candidates}) > 1:
            raise InvalidShape("pair mode needs an all-stub or an all-MLP pool")
        self.pool = pool
        self.seed = seed
        self.pair_mode = pair_mode
        self.units = (
            [(i, j) for i in range(m) for j in range(m) if i != j] if pair_mode else list(range(m))
        )
        self.cache: dict = {}  # unit -> score
        self.proxied: set[int] = set()
        self.total_selections = 0

    def _seed(self, *parts: int) -> int:
        return tinynet.derive_seed(self.seed, *parts)

    def score(self, unit) -> float:
        """One selection of `unit`; only a cache miss trains."""
        self.total_selections += 1
        if unit not in self.cache:
            self.cache[unit] = self._evaluate(unit)
        return self.cache[unit]

    def _evaluate(self, unit) -> float:
        ds = self.pool.dataset
        if not self.pair_mode:
            cand = self.pool.candidates[unit]
            if cand.stub_score is not None:
                return cand.stub_score
            _, history = _train(cand.profile, ds, self._seed(unit, 0), cand.profile.epochs)
            return history.val_accuracy[-1]
        t, s = (self.pool.candidates[i] for i in unit)
        if t.stub_score is not None:
            return PAIR_STUDENT_SHARE * s.stub_score + (1 - PAIR_STUDENT_SHARE) * t.stub_score
        seed = self._seed(*unit, 2)
        teacher, _ = _train(t.profile, ds, seed, t.profile.epochs)
        student = tinynet.init_mlp([ds.n_features, *s.profile.hidden_dims, ds.n_classes], seed + 1)
        _, report = distill.distill_train(
            teacher, student, ds,
            distill.KdConfig(
                ConstantPolicy(2.0), t_base=0.5,
                train=tinynet.TrainConfig(epochs=s.profile.epochs,
                                          learning_rate=s.profile.learning_rate, seed=seed),
            ),
        )
        return report.final_val_accuracy

    def proxy(self, cid: int) -> float:
        """Cheap score of one candidate: a short run on a seeded slice of
        the train split, val split untouched."""
        self.proxied.add(cid)
        cand = self.pool.candidates[cid]
        if cand.stub_score is not None:
            return cand.stub_score
        seed = self._seed(cid, 1)
        work = self.pool.dataset.copy()
        rng = np.random.default_rng(seed)
        train_idx = work.indices("train")
        keep = max(1, round(PROXY_SUBSAMPLE * train_idx.size))
        work.split[train_idx[rng.permutation(train_idx.size)][keep:]] = "test"
        _, history = _train(cand.profile, work, seed, PROXY_EPOCHS)
        return history.val_accuracy[-1]

    def report(self, strategy: str, best, best_score: float, history=None,
               final_pheromone=None) -> SelectionReport:
        names = [c.name for c in self.pool.candidates]
        if self.pair_mode:
            teacher_id, student_id = best
            best_id, best_name = list(best), f"{names[teacher_id]}->{names[student_id]}"
            evaluated = {f"{i},{j}": s for (i, j), s in self.cache.items()}
        else:
            teacher_id, student_id = (_rank(self.cache, final_pheromone) + [None, None])[:2]
            best_id, best_name = int(best), names[best]
            evaluated = {str(i): s for i, s in self.cache.items()}
        return SelectionReport(
            strategy=strategy,
            seed=self.seed,
            pool_size=len(self.pool),
            pair_mode=self.pair_mode,
            best_id=best_id,
            best_name=best_name,
            best_score=best_score,
            teacher_id=teacher_id,
            student_id=student_id,
            unique_evaluations=len(self.cache) + len(self.proxied - self.cache.keys()),
            total_selections=self.total_selections,
            evaluated=evaluated,
            history=history or [],
            final_pheromone=final_pheromone,
        )


def run_aco(pool: CandidatePool, cfg: AcoConfig, pair_mode: bool = False,
            init_pheromone: tuple[float, ...] | None = None,
            init_heuristic: tuple[float, ...] | None = None) -> SelectionReport:
    """Algorithm: pheromones start at one, the heuristic comes from a cheap
    proxy pass, each iteration every ant roulette-selects and evaluates a
    candidate, then a single evaporate+deposit update is applied.

    init_pheromone / init_heuristic override the all-ones start and the
    proxy pass (skipping its evaluations); used to replay worked examples
    from a known mid-run state.
    """
    run = _Run(pool, cfg.seed, pair_mode)
    rng = np.random.default_rng(cfg.seed)
    units = run.units

    if init_heuristic is not None:
        heuristic = np.asarray(init_heuristic, dtype=np.float64)
    else:
        proxy = np.array([run.proxy(i) for i in range(len(pool))])
        if pair_mode:
            heuristic = np.array([(proxy[i] + proxy[j]) / 2.0 for i, j in units])
        else:
            heuristic = proxy
    pheromone = (
        np.asarray(init_pheromone, dtype=np.float64)
        if init_pheromone is not None
        else np.ones(len(units))
    )
    if pheromone.shape != (len(units),) or heuristic.shape != (len(units),):
        raise InvalidShape(f"init vectors must have length {len(units)}")

    state = PheromoneState(pheromone, heuristic)
    best_unit, best_score = None, -1.0
    history = []
    for _ in range(cfg.n_iterations):
        probs = selection_probabilities(state, cfg.alpha, cfg.beta)
        selections = []
        for _ant in range(cfg.n_ants):
            u = ant_select(state, cfg, rng)
            score = run.score(units[u])
            selections.append((u, score))
            if score > best_score:
                best_unit, best_score = u, score
        state = update_pheromones(state, selections, cfg.rho)
        history.append(
            {
                "probabilities": probs.tolist(),
                "chosen": [int(u) for u, _ in selections],
                "pheromone": state.pheromone.tolist(),
            }
        )

    # single mode: teacher/student = top two by final pheromone
    final_pheromone = None if pair_mode else state.pheromone.tolist()
    return run.report("aco", units[best_unit], best_score, history, final_pheromone)


def run_random(pool: CandidatePool, n_picks: int = 1, seed: int = 0) -> SelectionReport:
    """Uniform sample of n_picks distinct candidates; no learning."""
    run = _Run(pool, seed, pair_mode=False)
    if n_picks < 1:
        raise EmptyRun("n_picks must be >= 1")
    rng = np.random.default_rng(seed)
    for cid in rng.choice(len(pool), size=min(n_picks, len(pool)), replace=False):
        run.score(int(cid))
    best = _rank(run.cache)[0]
    return run.report("random", best, run.cache[best])


def run_grid(pool: CandidatePool, pair_mode: bool = False) -> SelectionReport:
    """Exhaustive sweep, at run seed 0: every candidate, or every ordered pair."""
    run = _Run(pool, 0, pair_mode)
    for unit in run.units:
        run.score(unit)
    best = _rank(run.cache)[0]
    return run.report("grid", best, run.cache[best])


@dataclass(frozen=True)
class PsoConfig:
    n_particles: int = 8
    n_iterations: int = 30
    inertia: float = 0.7
    c1: float = 1.5  # pull toward the particle's own best
    c2: float = 1.5  # pull toward the swarm best
    seed: int = 0

    def __post_init__(self):
        if self.n_particles < 1 or self.n_iterations < 0:
            raise EmptyRun("n_particles must be >= 1 and n_iterations >= 0")
        _check_finite(self, InvalidShape)


def run_pso(pool: CandidatePool, cfg: PsoConfig) -> SelectionReport:
    """Particles move on the continuous index line [0, M-1]; positions are
    clamped and rounded to candidate ids for evaluation."""
    run = _Run(pool, cfg.seed, pair_mode=False)
    m = len(pool)
    rng = np.random.default_rng(cfg.seed)

    x = rng.uniform(0.0, m - 1.0, cfg.n_particles)
    v = np.zeros(cfg.n_particles)

    def cid_at(pos) -> int:
        return int(np.clip(round(pos), 0, m - 1))

    def score_at(positions):
        return np.array([run.score(cid_at(pos)) for pos in positions], dtype=np.float64)

    pbest_x = x.copy()
    pbest_y = score_at(x)
    g = int(np.argmax(pbest_y))
    gbest_x, gbest_y = pbest_x[g], pbest_y[g]
    history = [{"gbest": float(gbest_y)}]

    for _ in range(cfg.n_iterations):
        r1 = rng.random(cfg.n_particles)
        r2 = rng.random(cfg.n_particles)
        v = cfg.inertia * v + cfg.c1 * r1 * (pbest_x - x) + cfg.c2 * r2 * (gbest_x - x)
        x = np.clip(x + v, 0.0, m - 1.0)
        y = score_at(x)
        improved = y > pbest_y
        pbest_x[improved] = x[improved]
        pbest_y[improved] = y[improved]
        g = int(np.argmax(pbest_y))
        if pbest_y[g] > gbest_y:
            gbest_x, gbest_y = pbest_x[g], pbest_y[g]
        history.append({"gbest": float(gbest_y)})

    return run.report("pso", cid_at(gbest_x), float(gbest_y), history)
