"""Exception types shared across the package.

Every failure mode raised on a documented contract has its own class so
callers (and tests) can catch precisely what they expect.
"""


class NonPositiveTemperature(ValueError):
    """Softmax temperature must be > 0."""


class NonFiniteInput(ValueError):
    """Logits or features contained NaN or Inf."""


class InvalidShape(ValueError):
    """Vector/matrix has the wrong dimensionality or size."""


class LengthMismatch(ValueError):
    """Two vectors that must align have different lengths."""


class InvalidDistribution(ValueError):
    """Probability vector violates [0, 1] bounds or does not sum to 1."""


class IndexOutOfRange(IndexError):
    """Class index outside [0, C)."""


class ShapeMismatch(ValueError):
    """Input shape does not conform to the model's layer dimensions."""


class NonFiniteLoss(ArithmeticError):
    """Loss evaluated to NaN or Inf during training."""


class EmptySplit(ValueError):
    """Dataset is missing a required train/val/test split."""


class UnknownNoiseKind(ValueError):
    """Noise kind is not one of gaussian, salt_pepper, uniform."""


class LevelOutOfRange(ValueError):
    """Noise level outside [0, 1]."""


class InvalidPolicyParameters(ValueError):
    """Temperature-policy parameters violate their bounds."""


class AllZeroWeights(ValueError):
    """Every pheromone^alpha * heuristic^beta weight is zero."""


class InvalidRho(ValueError):
    """Evaporation rate outside [0, 1)."""


class PoolTooSmall(ValueError):
    """Candidate pool has fewer than two entries."""


class EmptyRun(ValueError):
    """Optimizer configured with zero ants or zero iterations."""


class EmptyMatrix(ValueError):
    """Confusion matrix has zero total count."""


class DegenerateLabels(ValueError):
    """Flattened one-vs-rest labels are all positive or all negative."""


class ParseError(ValueError):
    """A data file could not be parsed."""


class ConfigParseError(ValueError):
    """Run-config file is malformed or contains unknown keys."""


class VerificationFailed(RuntimeError):
    """A built-in worked-example check deviated beyond tolerance."""
