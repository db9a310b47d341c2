"""Evaluation-budget comparison of selection strategies on one stub pool.

Random picks one model blindly, grid sweeps everything (240 ordered
pairs in pair mode), PSO searches the index line, and the ant colony
reinforces good candidates while keeping unique evaluations low. The
last column is the evaluation budget spent when the best score first
appeared; for the ant colony it includes the proxy pass, one
evaluation per candidate.
"""

import numpy as np

from antdistill import AcoConfig, PsoConfig, run_aco, run_grid, run_pso, run_random, stub_pool

rng = np.random.default_rng(7)
scores = np.round(rng.uniform(0.55, 0.85, 15), 3).tolist() + [0.95]
pool = stub_pool(scores)
print(f"pool of {len(pool)} stub candidates, dominant score 0.95 at index 15\n")

rows = [
    run_random(pool, n_picks=1, seed=0),
    run_pso(pool, PsoConfig(n_particles=8, n_iterations=30, seed=0)),
    run_grid(pool),
    run_aco(pool, AcoConfig(n_ants=5, n_iterations=15, seed=0)),
]
print(f"{'strategy':<8} {'best score':>10} {'unique evals':>13} {'total selections':>17} "
      f"{'evals to best':>14}")
for r in rows:
    print(f"{r.strategy:<8} {r.best_score:>10.3f} {r.unique_evaluations:>13} "
          f"{r.total_selections:>17} {r.evaluations_to_best:>14}")

print("\npair mode (ordered teacher->student pairs):")
grid_pairs = run_grid(pool, pair_mode=True)
aco_pairs = run_aco(pool, AcoConfig(n_ants=5, n_iterations=15, seed=0), pair_mode=True)
print(f"grid evaluates {grid_pairs.unique_evaluations} pairs; "
      f"aco touches {aco_pairs.unique_evaluations} units and still finds "
      f"pair {aco_pairs.best_id} scoring {aco_pairs.best_score:.3f} "
      f"by evaluation {aco_pairs.evaluations_to_best}")
