"""Minimal dense-tensor engine with reverse-mode differentiation on a tape."""

import ctypes

from .ops import (
    SurrogateConfig,
    affine,
    bntt_seq,
    concat,
    conv2d,
    cross_entropy,
    dropout,
    li_scan,
    lif_scan,
    lif_update,
    mse,
    normalized_drive,
    relu,
    select_channels,
    sigmoid,
    soft_spike_forward,
    spatial_mean,
    spike,
    square,
    surrogate_grad,
    window,
)
from .tensor import (
    Array,
    EngineError,
    ShapeError,
    Tape,
    Tensor,
    active_tape,
    add,
    div,
    index,
    matmul,
    mean_all,
    mul,
    neg,
    reshape,
    stack,
    sub,
    sum_all,
    sum_steps,
)

__all__ = [
    "Array",
    "EngineError",
    "ShapeError",
    "SurrogateConfig",
    "Tape",
    "Tensor",
    "active_tape",
    "add",
    "affine",
    "bntt_seq",
    "concat",
    "conv2d",
    "cross_entropy",
    "div",
    "dropout",
    "index",
    "li_scan",
    "lif_scan",
    "lif_update",
    "matmul",
    "mean_all",
    "mse",
    "mul",
    "neg",
    "normalized_drive",
    "relu",
    "reshape",
    "select_channels",
    "sigmoid",
    "soft_spike_forward",
    "spatial_mean",
    "spike",
    "square",
    "stack",
    "sub",
    "sum_all",
    "sum_steps",
    "surrogate_grad",
    "window",
]


def _keep_freed_arrays_mapped() -> None:
    """Serve arrays up to 32 MiB from glibc's heap and keep freed heap pages
    mapped, so the sequence arrays one training step frees are reused by the
    next instead of being returned to the OS and faulted back in page by page.
    Fixes ``M_MMAP_THRESHOLD`` at its 64-bit maximum and ``M_TRIM_THRESHOLD``
    at 1 GiB; without glibc's ``mallopt``, or if it refuses, nothing changes."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 1 << 30)  # M_TRIM_THRESHOLD


_keep_freed_arrays_mapped()
