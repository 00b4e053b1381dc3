from multires.numerics.adam import AdamConfig, AdamState, adam_step
from multires.numerics.gradcheck import finite_diff_check
from multires.numerics.kernels import active_backend
from multires.numerics.ops import (
    NORM_FLOOR,
    conv1d_same,
    conv1d_same_backward,
    l2_normalize,
    l2_normalize_backward,
    mean_over_positions,
    mean_over_positions_backward,
    relu,
    relu_backward,
)

__all__ = [
    "AdamConfig",
    "AdamState",
    "adam_step",
    "finite_diff_check",
    "active_backend",
    "NORM_FLOOR",
    "conv1d_same",
    "conv1d_same_backward",
    "l2_normalize",
    "l2_normalize_backward",
    "mean_over_positions",
    "mean_over_positions_backward",
    "relu",
    "relu_backward",
]
