"""Temperature-scaled softmax and the uncertainty-driven temperature.

Walks the worked numbers: logits [2.0, 0.5, -1.0] softened at a constant
T = 2 versus a context-aware T = 1 + 2 * U with uncertainty U = 0.3.
"""

import numpy as np

from antdistill import stable_softmax
from antdistill.numerics import normalized_entropy_rows
from antdistill.temperature import ContextFeatures, UncertaintyLinearPolicy, apply_policy

z = np.array([2.0, 0.5, -1.0])
print("teacher logits:", z)

for t in (1.0, 1.6, 2.0, 4.0, 8.0):
    p = stable_softmax(z, t)
    u = normalized_entropy_rows(p[None])[0]
    print(f"  T={t:<4}  probs={np.round(p, 4)}  normalized entropy={u:.4f}")

print()
print("uncertainty-linear policy: T = 1 + scale * U")
ctx = ContextFeatures(noise_level=0.0, teacher_confidence=0.6,
                      disease_complexity=0.0, uncertainty=0.3)
out = apply_policy(UncertaintyLinearPolicy(scale=2.0), ctx)
print(f"  U = 0.3, scale = 2  ->  T = {out.temperature}")

p_const = stable_softmax(z, 2.0)
p_adaptive = stable_softmax(z, out.temperature)
print(f"  constant T=2 : {np.round(p_const, 2)}")
print(f"  adaptive T={out.temperature}: {np.round(p_adaptive, 2)}")
print("the adaptive temperature keeps more of the top class while still softening")
