"""Hot convolution kernels: one window block and one BLAS gemm per forward.

Both kernels implement "same" zero-padded 1-D convolution over the
position axis, batched over a leading text dimension. The forward copies
every position's window of ws zero-padded rows into one C-order
(B*k, ws*d_in) block and multiplies it by the kernels as a C-order
(ws*d_in, n_k) matrix in one ``np.dot``: a gemm with no transposed
operand ("NN"). The sums run through BLAS gemms, whose summation order
follows the BLAS thread count, so results are bitwise reproducible at a
fixed thread count.

The kernels operand is C-order whatever the kernels' memory layout, so
results never depend on that layout. The model keeps its kernels in
GEMM-major order: (ws, d_in, n_k) in memory behind the logical
(n_k, ws, d_in) shape (see ``multires.model.encoder.ConvBlock``), which
makes the operand a free view; a kernel in any other layout is copied
into it on every call. Viewed from a C-order kernel, the same matrix is
the transposed operand of an "NT" gemm, which OpenBLAS 0.3.31 ran 1.7x
slower on a 12 x 1440 x 288 product (one 12-position text at d''=288)
and, for products of a few rows, sums in another order than NN.

Shapes (everything row-major, any float dtype):
    x    (B, k, d_in)    batch of texts, k positions, d_in features
    w    (n_k, ws, d_in) n_k kernels spanning ws contiguous positions
    b    (n_k,)          per-kernel bias
    out  (B, k, n_k)     one output row per position ("same" padding)
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


def active_backend() -> str:
    """Name of the conv kernel backend."""
    return "numpy"


def conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x (B,k,d), w (n_k,ws,d), b (n_k,) -> (B,k,n_k)."""
    batch, k, d = x.shape
    n_k, ws, _ = w.shape
    pad = (ws - 1) // 2
    xp = np.zeros((batch, k + ws - 1, d), dtype=x.dtype)
    xp[:, pad:pad + k] = x
    # win[i, t, s] is row t + s of padded text i: the window of position t
    win = as_strided(xp, (batch, k, ws, d), xp.strides[:2] + xp.strides[1:], writeable=False)
    kern = np.ascontiguousarray(w.transpose(1, 2, 0)).reshape(ws * d, n_k)
    out = np.dot(win.reshape(batch * k, ws * d), kern)
    return out.reshape(batch, k, n_k) + b


def conv_backward(
    x: np.ndarray, w: np.ndarray, g: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of conv_forward: returns (gx, gw, gb); gx is None without ``input_grad``."""
    batch, k, d = x.shape
    n_k, ws, _ = w.shape
    pad = (ws - 1) // 2
    xp = np.zeros((batch, k + 2 * pad, d), dtype=x.dtype)
    xp[:, pad:pad + k, :] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, ws, axis=1)  # (B,k,d,ws)
    gw = np.tensordot(g, win, axes=([0, 1], [0, 1]))  # (n_k, d, ws)
    gw = np.ascontiguousarray(gw.transpose(2, 1, 0)).transpose(2, 0, 1)  # (n_k, ws, d), GEMM-major
    gb = g.sum(axis=(0, 1))
    if not input_grad:
        return None, gw, gb
    gwin = np.tensordot(g, np.ascontiguousarray(w), axes=([2], [0]))  # (B, k, ws, d), NN gemm
    gxp = np.zeros_like(xp)
    for s in range(ws):
        gxp[:, s:s + k, :] += gwin[:, :, s, :]
    gx = gxp[:, pad:pad + k, :]
    return gx, gw, gb
