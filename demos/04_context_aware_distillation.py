"""Distilling a clean-data teacher into a student on a half-noisy dataset.

The rule-based policy softens the teacher (T up) on noisy low-confidence
samples and sharpens it (T down) on clean confident ones; the constant
baseline applies T = 2 everywhere. Compares test accuracy on the noisy
half of the test split.
"""

import numpy as np

from antdistill import TrainConfig, generate_synthetic, init_mlp, inject_noise, train_supervised
from antdistill.distill import KdConfig, distill_train
from antdistill.temperature import ConstantPolicy, RuleBasedPolicy
from antdistill.tinynet import accuracy

seed = 0
clean = generate_synthetic(800, 4, 8, 0.6, seed)
noisy = inject_noise(clean, "gaussian", 0.8, seed=seed + 90000, fraction=0.5)
cfg = TrainConfig(epochs=30, seed=seed)

teacher = init_mlp([8, 32, 32, 4], seed=seed + 1)
teacher, hist = train_supervised(teacher, clean, cfg)
print(f"teacher (trained on clean data): val accuracy {hist.val_accuracy[-1]:.3f}")

student0 = init_mlp([8, 16, 16, 4], seed=seed + 2)
test = noisy.indices("test")
noisy_half = test[noisy.noise_level[test] == 0.8]
clean_half = test[noisy.noise_level[test] == 0.0]

for name, policy in [("constant T=2", ConstantPolicy(2.0)), ("rule-based", RuleBasedPolicy())]:
    student, report = distill_train(teacher, student0, noisy, KdConfig(policy, 0.5, cfg))
    acc_noisy = accuracy(student, noisy.features[noisy_half], noisy.labels[noisy_half])
    acc_clean = accuracy(student, noisy.features[clean_half], noisy.labels[clean_half])
    print(f"\n{name} student:")
    print(f"  realized temperatures: mean {report.temp_mean:.2f}, min {report.temp_min}, "
          f"max {report.temp_max}")
    print(f"  test accuracy on clean half: {acc_clean:.3f}")
    print(f"  test accuracy on noisy half: {acc_noisy:.3f}")
