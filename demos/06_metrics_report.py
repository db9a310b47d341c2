"""Confusion matrix, per-class report, and ranking curves on a tiny
hand-checkable case, then on a trained classifier.
"""

import numpy as np

from antdistill import (
    TrainConfig,
    class_report,
    confusion,
    generate_synthetic,
    init_mlp,
    micro_curves,
    stable_softmax,
    train_supervised,
)
from antdistill.tinynet import forward_batch

print("hand case: labels [0,0,1,1], predictions [0,1,1,1]")
cm = confusion([0, 1, 1, 1], [0, 0, 1, 1], 2)
print("confusion matrix:\n", cm.counts)
rep = class_report(cm)
print(f"class 0: precision {rep.precision[0]:.3f} recall {rep.recall[0]:.3f} "
      f"f1 {rep.f1[0]:.4f}")
print(f"class 1: precision {rep.precision[1]:.3f} recall {rep.recall[1]:.3f} "
      f"f1 {rep.f1[1]:.4f}")
print(f"accuracy {rep.accuracy}  micro precision {rep.micro_precision} "
      f"(equal by construction)")

print("\ntrained classifier on synthetic data:")
ds = generate_synthetic(400, 3, 6, 0.5, seed=4)
model = init_mlp([6, 16, 16, 3], seed=4)
model, _ = train_supervised(model, ds, TrainConfig(epochs=30, seed=4))
test = ds.indices("test")
logits = forward_batch(model, ds.features[test])
probs = np.vstack([stable_softmax(row, 1.0) for row in logits])
labels = ds.labels[test]
rep = class_report(confusion(np.argmax(logits, axis=1), labels, 3))
roc, pr = micro_curves(probs, labels)
print(f"accuracy {rep.accuracy:.3f}  macro f1 {rep.macro_f1:.3f}")
print(f"micro AUC {roc.auc:.4f} ({roc.fpr.size} curve points)")
print(f"micro AP  {pr.average_precision:.4f}")
