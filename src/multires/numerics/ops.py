"""Dense forward operations and their hand-derived gradients.

Every op is a pure function of ndarrays. The test suite checks each
backward against central finite differences in float64; training runs
in float32 by default.
"""

from __future__ import annotations

import numpy as np

from multires.errors import (
    ConfigError,
    DegenerateVectorError,
    EmptyInputError,
    ShapeError,
)
from multires.numerics import kernels

NORM_FLOOR = 1e-12


def _common_dtype(*arrays: np.ndarray) -> np.dtype:
    return np.result_type(*arrays)


def _check_conv_shapes(inp: np.ndarray, kern: np.ndarray, bias: np.ndarray) -> None:
    if inp.ndim != 2:
        raise ShapeError(f"conv input must be k x d_in, got shape {inp.shape}")
    if kern.ndim != 3:
        raise ShapeError(f"kernels must be n_k x ws x d_in, got shape {kern.shape}")
    if bias.ndim != 1 or bias.shape[0] != kern.shape[0]:
        raise ShapeError(f"bias shape {bias.shape} does not match {kern.shape[0]} kernels")
    if kern.shape[1] % 2 == 0:
        raise ConfigError(f"conv window must be odd, got ws={kern.shape[1]}")
    if kern.shape[2] != inp.shape[1]:
        raise ShapeError(
            f"kernel feature dim {kern.shape[2]} does not match input columns {inp.shape[1]}"
        )


def conv1d_same(inp: np.ndarray, kern: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """Zero-padded "same" 1-D convolution: (k,d_in) x (n_k,ws,d_in) -> (k,n_k).

    out[t, c] = bias[c] + sum_{s,f} inp[t+s-pad, f] * kern[c, s, f],
    rows outside [0, k) read as zero, pad = (ws-1)//2.
    """
    _check_conv_shapes(inp, kern, bias)
    dt = _common_dtype(inp, kern, bias)
    out = kernels.conv_forward(
        inp[None].astype(dt, copy=False),
        kern.astype(dt, copy=False),
        bias.astype(dt, copy=False),
    )
    return out[0]


def conv1d_same_backward(
    inp: np.ndarray, kern: np.ndarray, bias: np.ndarray, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact gradients of conv1d_same; returns (grad_input, grad_kernels, grad_bias)."""
    _check_conv_shapes(inp, kern, bias)
    if upstream.shape != (inp.shape[0], kern.shape[0]):
        raise ShapeError(
            f"upstream shape {upstream.shape} does not match ({inp.shape[0]}, {kern.shape[0]})"
        )
    dt = _common_dtype(inp, kern, upstream)
    gx, gw, gb = kernels.conv_backward(
        inp[None].astype(dt, copy=False),
        kern.astype(dt, copy=False),
        upstream[None].astype(dt, copy=False),
    )
    return gx[0], gw, gb


def relu(x: np.ndarray) -> np.ndarray:
    """Elementwise max(x, 0)."""
    return np.maximum(x, 0)


def relu_backward(x: np.ndarray, upstream: np.ndarray) -> np.ndarray:
    """Pass upstream where x > 0, zero elsewhere (subgradient 0 at 0).

    Byte for byte ``np.where(x > 0, upstream, 0)``, NaN, -0.0 and inf
    included, computed as a bit mask: ``-(x > 0)`` as an integer of the
    upstream's width (all ones or all zeros) ANDed with the upstream's
    bits, in the output buffer itself.
    """
    if x.shape != upstream.shape:
        raise ShapeError(f"upstream shape {upstream.shape} does not match input {x.shape}")
    out = np.empty(upstream.shape, dtype=upstream.dtype)
    bits = out.view(np.dtype(f"i{upstream.dtype.itemsize}"))
    np.greater(x, 0, out=bits)
    np.negative(bits, out=bits)
    np.bitwise_and(bits, upstream.view(bits.dtype), out=bits)
    return out


def mean_over_positions(x: np.ndarray) -> np.ndarray:
    """Mean over the position axis (-2) of a (..., k, d) array; k must be >= 1.

    Bit for bit ``x.mean(axis=-2)``. For float32 and wider floats it makes
    numpy's own calls without their Python wrapper: ``np.add.reduce``, then
    an in-place division by the count as an intp, with unsafe casting.
    """
    if x.ndim < 2:
        raise ShapeError(f"expected (..., k, d) array, got shape {x.shape}")
    if x.shape[-2] == 0:
        raise EmptyInputError("mean over zero positions")
    if x.dtype.kind != "f" or x.dtype.itemsize < 4:  # mean sums these in another dtype
        return x.mean(axis=-2)
    total = np.add.reduce(x, axis=-2)
    return np.true_divide(total, np.intp(x.shape[-2]), out=total, casting="unsafe")


def mean_over_positions_backward(upstream: np.ndarray, k: int) -> np.ndarray:
    """Distribute upstream/k to every one of the k positions: (..., d) -> (..., k, d)."""
    if k < 1:
        raise EmptyInputError("mean over zero positions")
    shape = upstream.shape[:-1] + (k, upstream.shape[-1])
    return np.broadcast_to(np.expand_dims(upstream / k, -2), shape).copy()


def _row_norms(v: np.ndarray, norm_floor: float) -> np.ndarray:
    """Euclidean norms over the last axis (kept); rejects any at or below the floor."""
    norm = np.add.reduce(v * v, axis=-1, keepdims=True)  # np.sum's own call
    np.sqrt(norm, out=norm)
    low = norm <= norm_floor
    if low.any():
        first = int(np.flatnonzero(low)[0])  # the first such vector, in C order
        raise DegenerateVectorError(
            f"vector norm {float(norm.flat[first]):g} at or below floor {norm_floor:g}", first
        )
    return norm


def l2_normalize(v: np.ndarray, norm_floor: float = NORM_FLOOR) -> np.ndarray:
    """v / ||v|| for each vector on the last axis; rejects norms at or below the floor."""
    return v / _row_norms(v, norm_floor)


def l2_normalize_backward(
    v: np.ndarray, upstream: np.ndarray, norm_floor: float = NORM_FLOOR
) -> np.ndarray:
    """Jacobian-transpose product (I - y y^T) g / ||v|| with y = v/||v||, per last-axis vector."""
    if v.shape != upstream.shape:
        raise ShapeError(f"upstream shape {upstream.shape} does not match input {v.shape}")
    norm = _row_norms(v, norm_floor)
    y = v / norm
    return (upstream - y * np.sum(y * upstream, axis=-1, keepdims=True)) / norm
