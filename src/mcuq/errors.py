"""Exception types shared across the toolkit.

Everything derives from McuqError so callers can catch toolkit failures
with one except clause; each class also keeps its natural builtin base.
"""


class McuqError(Exception):
    """Base class for all toolkit errors."""


class GraphValidationError(McuqError, ValueError):
    """Graph file violates a structural invariant (cycle, shape mismatch, dangling id)."""

    def __init__(self, message, layer_id=None):
        if layer_id is not None:
            message = f"layer {layer_id}: {message}"
        super().__init__(message)
        self.layer_id = layer_id


class PolicyError(McuqError, ValueError):
    """Quantization policy is malformed or does not cover the graph."""


class InfeasibleBudgetError(McuqError, RuntimeError):
    """Budget cannot be met even after demoting every non-frozen tensor to 2 bits."""


class PackFormatError(McuqError, ValueError):
    """Packed value out of range, or a malformed packed-model or checkpoint binary."""


class ModelMismatchError(McuqError, ValueError):
    """Packed model does not match the graph it is being executed against."""


class AccumulatorOverflowError(McuqError, ArithmeticError):
    """A linear layer's int32 accumulator could overflow: raised when a model is checked."""


class TrainingDivergedError(McuqError, RuntimeError):
    """Loss became non-finite during training."""


class DatasetError(McuqError, ValueError):
    """Dataset is empty, inconsistent, or cannot satisfy a requested split."""
