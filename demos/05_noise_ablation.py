"""Noise-type ablation: the same context-aware student under gaussian,
salt-and-pepper, and uniform corruption versus the clean dataset.

Clean data should come out on top; the noise kinds reorder below it
depending on how much structure each one destroys. The four students
train in lockstep, as one stack in one training loop; each comes out
bit for bit as it would from its own distill_train call.
"""

from antdistill import TrainConfig, generate_synthetic, init_mlp, inject_noise, train_supervised
from antdistill.distill import KdConfig, distill_arms
from antdistill.temperature import RuleBasedPolicy
from antdistill.tinynet import accuracy

seed = 1
clean = generate_synthetic(600, 4, 8, 0.4, seed)
cfg = TrainConfig(epochs=30, seed=seed)
teacher = init_mlp([8, 32, 32, 4], seed=seed + 1)
teacher, _ = train_supervised(teacher, clean, cfg)
student0 = init_mlp([8, 16, 16, 4], seed=seed + 2)

tags = ("clean", "gaussian", "salt_pepper", "uniform")
datasets = [clean if tag == "clean" else inject_noise(clean, tag, 0.5, seed=seed + 50)
            for tag in tags]
kd = KdConfig(RuleBasedPolicy(), 0.5, cfg)
students = distill_arms(teacher, student0, [(ds, kd) for ds in datasets])

print(f"{'condition':<16} {'test accuracy':>13}")
for tag, ds, (student, _) in zip(tags, datasets, students):
    test = ds.indices("test")
    acc = accuracy(student, ds.features[test], ds.labels[test])
    print(f"{tag:<16} {acc:>13.3f}")
