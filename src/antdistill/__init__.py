"""antdistill: ant-colony model selection + context-aware knowledge distillation."""

from .distill import DistillReport, KdConfig, distill_arms, distill_train, kd_loss
from .metrics import (
    ClassReport,
    class_report,
    confusion,
    micro_auc_ap,
)
from .numerics import stable_softmax
from .selection import (
    AcoConfig,
    Candidate,
    CandidatePool,
    PheromoneState,
    PsoConfig,
    SelectionReport,
    ant_select,
    run_aco,
    run_grid,
    run_pso,
    run_random,
    selection_probabilities,
    stub_pool,
    update_pheromones,
)
from .temperature import (
    ConstantPolicy,
    ContextFeatures,
    PolicyOutput,
    RuleBasedPolicy,
    UncertaintyLinearPolicy,
    apply_policy,
    compute_context,
)
from .tinynet import (
    MlpModel,
    SyntheticDataset,
    TrainConfig,
    generate_synthetic,
    init_mlp,
    inject_noise,
    stack_datasets,
    stack_models,
    train_supervised,
)

__version__ = "0.1.0"
