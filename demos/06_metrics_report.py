"""Confusion matrix, per-class report, and micro AUC and AP on a tiny
hand-checkable case, then on a trained classifier.
"""

import numpy as np

from antdistill import (
    TrainConfig,
    class_report,
    confusion,
    generate_synthetic,
    init_mlp,
    micro_auc_ap,
    stable_softmax,
    train_supervised,
)
from antdistill.tinynet import forward_batch

print("hand case: labels [0,0,1,1], predictions [0,1,1,1]")
counts = confusion([0, 1, 1, 1], [0, 0, 1, 1], 2)
print("confusion matrix (rows: true class, columns: predicted):\n", counts)
rep = class_report(counts)
print(f"class 0: precision {rep.precision[0]:.3f} recall {rep.recall[0]:.3f} "
      f"f1 {rep.f1[0]:.4f}")
print(f"class 1: precision {rep.precision[1]:.3f} recall {rep.recall[1]:.3f} "
      f"f1 {rep.f1[1]:.4f}")
print(f"accuracy {rep.accuracy}")

print("\ntrained classifier on synthetic data:")
ds = generate_synthetic(400, 3, 6, 0.5, seed=4)
model = init_mlp([6, 16, 16, 3], seed=4)
model, _ = train_supervised(model, ds, TrainConfig(epochs=30, seed=4))
test = ds.indices("test")
logits = forward_batch(model, ds.features[test])
probs = np.vstack([stable_softmax(row, 1.0) for row in logits])
labels = ds.labels[test]
rep = class_report(confusion(np.argmax(logits, axis=1), labels, 3))
auc, ap = micro_auc_ap(probs, labels)
print(f"accuracy {rep.accuracy:.3f}  macro f1 {rep.macro_f1:.3f}")
print(f"micro AUC {auc:.4f}")
print(f"micro AP  {ap:.4f}")
