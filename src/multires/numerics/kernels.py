"""Hot convolution kernels: vectorized numpy over a sliding window view.

Both kernels implement "same" zero-padded 1-D convolution over the
position axis, batched over a leading text dimension. The sums run
through ``np.tensordot`` (a BLAS gemm), whose summation order follows the
BLAS thread count, so results are bitwise reproducible at a fixed thread
count.

Shapes (everything row-major, any float dtype):
    x    (B, k, d_in)    batch of texts, k positions, d_in features
    w    (n_k, ws, d_in) n_k kernels spanning ws contiguous positions
    b    (n_k,)          per-kernel bias
    out  (B, k, n_k)     one output row per position ("same" padding)
"""

from __future__ import annotations

import numpy as np


def active_backend() -> str:
    """Name of the conv kernel backend."""
    return "numpy"


def conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x (B,k,d), w (n_k,ws,d), b (n_k,) -> (B,k,n_k)."""
    batch, k, d = x.shape
    _, ws, _ = w.shape
    pad = (ws - 1) // 2
    xp = np.zeros((batch, k + 2 * pad, d), dtype=x.dtype)
    xp[:, pad:pad + k, :] = x
    # (B, k, d, ws): window axis last
    win = np.lib.stride_tricks.sliding_window_view(xp, ws, axis=1)
    out = np.tensordot(win, w, axes=([3, 2], [1, 2]))
    return out + b


def conv_backward(
    x: np.ndarray, w: np.ndarray, g: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of conv_forward: returns (gx, gw, gb)."""
    batch, k, d = x.shape
    n_k, ws, _ = w.shape
    pad = (ws - 1) // 2
    xp = np.zeros((batch, k + 2 * pad, d), dtype=x.dtype)
    xp[:, pad:pad + k, :] = x
    win = np.lib.stride_tricks.sliding_window_view(xp, ws, axis=1)  # (B,k,d,ws)
    gw = np.tensordot(g, win, axes=([0, 1], [0, 1]))  # (n_k, d, ws)
    gw = np.ascontiguousarray(gw.transpose(0, 2, 1))  # (n_k, ws, d)
    gb = g.sum(axis=(0, 1))
    gwin = np.tensordot(g, w, axes=([2], [0]))  # (B, k, ws, d)
    gxp = np.zeros_like(xp)
    for s in range(ws):
        gxp[:, s:s + k, :] += gwin[:, :, s, :]
    gx = gxp[:, pad:pad + k, :]
    return gx, gw, gb
