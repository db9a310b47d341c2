"""antdistill: ant-colony model selection + context-aware knowledge distillation."""

from .distill import DistillReport, KdConfig, distill_train, kd_loss, kd_loss_grad
from .metrics import (
    ClassReport,
    ConfusionMatrix,
    class_report,
    confusion,
    micro_curves,
)
from .numerics import (
    cross_entropy,
    kl_divergence,
    normalized_entropy,
    stable_softmax,
)
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
    train_supervised,
)

__version__ = "0.1.0"
