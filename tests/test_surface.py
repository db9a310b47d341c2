"""The public surface of the package and of its three training modules.

A name is public when it does not start with an underscore and is not a
module; a module's public names are those it defines itself, not those
it imports. The package re-exports its modules' names. A formula has one
implementation in the library, a row kernel; its independent one-sample
version lives in `scalar_reference`, not here.
"""

import importlib
import types

SURFACE = {
    "antdistill": [
        "AcoConfig", "Candidate", "CandidatePool", "ClassReport", "ConstantPolicy",
        "ContextFeatures", "DistillReport", "KdConfig", "MlpModel", "PheromoneState",
        "PolicyOutput", "PsoConfig", "RuleBasedPolicy", "SelectionReport", "SyntheticDataset",
        "TrainConfig", "UncertaintyLinearPolicy", "ant_select", "apply_policy",
        "class_report", "compute_context", "confusion", "distill_arms", "distill_train",
        "generate_synthetic", "init_mlp", "inject_noise", "kd_loss", "micro_auc_ap",
        "run_aco", "run_grid", "run_pso", "run_random", "selection_probabilities",
        "stable_softmax", "stack_datasets", "stack_models", "stub_pool", "train_supervised",
        "update_pheromones",
    ],
    "antdistill.numerics": [
        "EPS", "as_distribution", "as_logits", "normalized_entropy_rows", "softmax_rows",
        "stable_softmax",
    ],
    "antdistill.distill": [
        "DistillReport", "KdConfig", "LossBreakdown", "distill_arms", "distill_train", "kd_loss",
    ],
    "antdistill.tinynet": [
        "CENTER_RADIUS", "MAX_DATASET_CELLS", "MlpModel", "NOISE_KINDS", "SPLITS",
        "SPLIT_FRACTIONS", "SyntheticDataset", "TrainConfig", "TrainHistory", "accuracy",
        "derive_seed", "forward_batch", "generate_synthetic", "init_mlp", "inject_noise",
        "load_dataset", "save_dataset", "sgd_fit", "stack_datasets", "stack_models",
        "train_supervised",
    ],
}


def public_names(module) -> list[str]:
    package = "." not in module.__name__
    return sorted(
        name for name, value in vars(module).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
        and (package or getattr(value, "__module__", module.__name__) == module.__name__)
    )


def test_public_names_are_the_stated_ones():
    assert {name: public_names(importlib.import_module(name)) for name in SURFACE} == SURFACE
