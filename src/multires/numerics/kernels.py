"""Hot convolution kernels: one window block and one BLAS gemm per forward.

Both kernels implement "same" zero-padded 1-D convolution over the
position axis, batched over a leading text dimension. The forward copies
every position's window of ws zero-padded rows into one C-order
(B*k, ws*d_in) block and multiplies it by the kernels as a C-order
(ws*d_in, n_k) matrix: a gemm with no transposed operand ("NN"). The sums
run through BLAS gemms, whose summation order follows the BLAS thread
count, so results are bitwise reproducible at a fixed BLAS thread count,
whatever the number of cores.

The backward multiplies only the taps that reach a row of the text: for
texts of k positions, the central min(ws, 2k - 1); the others read and
write zero padding only. Its two products keep the B*k rows and trim their
columns, so each kept entry sums the same terms, and the kernel gradient
holds +0.0 at the dropped taps, as a product of exact zeros gives. A
product trims only when it keeps more than one row and more than one
column: a one-row product takes the BLAS's matrix-vector path, whose sums
follow the row length (trimmed, the input gradient of one float32 text of
one position at d=4 changed bits at ws=5 and 7). Whether a narrower
product sums each entry in the same order is the BLAS's choice. On
OpenBLAS 0.3.31 (SkylakeX kernels) the trimmed products gave the untrimmed
ones' bits at every shape tried with n_k = d'' and d'' in {4, 8, 64, 96,
128, 288}, at one and two BLAS threads; at d'' in {16, 32, 50, 100, 300}
some shapes differed in the last bit, the narrower product taking another
of the BLAS's kernel paths. The forward keeps every tap: trimming its
summed dimension changed bits on the same BLAS at one thread in 40 of 144
short-text shapes (ws 3 to 7, d'' 4 to 288), among them two-position texts at
d'' = 288 and ws=5 and one-row products at d'' = 32.

A large gemm runs in near-equal chunks of output rows (``_chunks``), on
``multires.parallel.run``: the forward's product and the input gradient's
by texts, the kernel gradient's by output kernels. The calling thread
allocates every buffer, and each chunk fills and multiplies into its own
slice only. A chunk holds at least ``CHUNK_ROWS`` rows and about
``CHUNK_MACS`` multiply-adds, past the BLAS's small-matrix and
matrix-vector paths, where the BLAS computes each row of a product the
same way whatever the number of rows; so the bits do not depend on the
split (``tests/test_kernel_split.py``). A gemm under two chunks' work is
one chunk, and so is every gemm when ``parallel.split_workers()`` is 1 or
the calling thread already works for a run (``parallel.inside_split()``).

The kernels operand is C-order whatever the kernels' memory layout, so
results never depend on that layout. The model keeps its kernels in
GEMM-major order: (ws, d_in, n_k) in memory behind the logical
(n_k, ws, d_in) shape (see ``multires.model.encoder.ConvBlock``), which
makes the operand a free view; a kernel in any other layout is copied
into it on every call. Viewed from a C-order kernel, the same matrix is
the transposed operand of an "NT" gemm, which OpenBLAS 0.3.31 ran 1.7x
slower on a 12 x 1440 x 288 product (one 12-position text at d''=288)
and, for products of a few rows, sums in another order than NN.

A served query runs one small forward per conv block, so the forward
keeps its fixed work per call small: the window view is a bare
``np.ndarray`` over the padded rows (not numpy's ``as_strided`` wrapper),
kernels and bias already in the common dtype and layout are used as they
are, and for a single text the bias is added in place. A batch keeps the
separate ``out + b``, whose allocation order the comment in
``conv_forward`` explains.

Shapes (everything row-major, any float dtype; mixed inputs run in their
common dtype):
    x    (B, k, d_in)    batch of texts, k positions, d_in features
    w    (n_k, ws, d_in) n_k kernels spanning ws contiguous positions
    b    (n_k,)          per-kernel bias
    out  (B, k, n_k)     one output row per position ("same" padding)
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from multires import parallel

# Least multiply-adds and rows per chunk of a split gemm, so that no chunk
# takes the BLAS's small-matrix or matrix-vector path. A gemm under
# 2 * CHUNK_MACS runs inline: the serving loop's one-query products (about
# 5 M) and every product of run_clustered_benchmark (at most about 42 M),
# where a split gained nothing; at d''=288 a split paid from about 60 M.
CHUNK_MACS = 1 << 25
CHUNK_ROWS = 32


def active_backend() -> str:
    """Name of the conv kernel backend."""
    return "numpy"


def _chunks(units: int, rows: int, macs: int) -> list[slice]:
    """Near-equal slices of ``units`` for a gemm of ``rows`` rows and ``macs`` work."""
    n = min(units, macs // CHUNK_MACS, rows // CHUNK_ROWS)
    n = min(n, parallel.split_workers()) if n > 1 and not parallel.inside_split() else 1
    return [slice(i * units // n, (i + 1) * units // n) for i in range(n)]


def conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """x (B,k,d), w (n_k,ws,d), b (n_k,) -> (B,k,n_k)."""
    batch, k, d = x.shape
    n_k, ws, _ = w.shape
    pad = (ws - 1) // 2
    dt = np.result_type(x, w, b)
    xp = np.zeros((batch, k + ws - 1, d), dtype=dt)
    xp[:, pad:pad + k] = x
    # win[i, t, s] is row t + s of padded text i: the window of position t
    win = np.ndarray((batch, k, ws, d), dt, xp, 0, xp.strides[:2] + xp.strides[1:])
    kern = w.transpose(1, 2, 0)  # a free view of GEMM-major kernels
    if kern.dtype != dt or not kern.flags.c_contiguous:
        kern = np.ascontiguousarray(kern, dtype=dt)
    kern = kern.reshape(ws * d, n_k)
    # With one position or one tap, the windows are the padded rows themselves.
    copy = k > 1 and ws > 1
    cols = np.empty((batch, k, ws, d), dtype=dt) if copy else win
    out = np.empty((batch, k, n_k), dtype=dt)

    def texts(rows: slice) -> None:
        if copy:
            cols[rows] = win[rows]
        np.dot(cols[rows].reshape(-1, ws * d), kern, out=out[rows].reshape(-1, n_k))

    parallel.run(texts, _chunks(batch, batch * k, batch * k * ws * d * n_k))
    del cols
    if batch == 1:  # one text, as a served query: add the bias in place
        return np.add(out, b, out=out)
    # The unsplit kernel's allocations in its order, which glibc serves without
    # fresh pages on run_clustered_benchmark's shapes (a bias added in place
    # cost 1376 page faults per two-block forward there).
    return out + b


def _taps(rows: int, d: int, k: int, ws: int) -> tuple[int, int]:
    """[lo, hi) of the taps a backward product of ``rows`` rows multiplies for k-position texts.

    The central ``min(ws, 2k - 1)`` taps, the ones that reach a row of the
    text, when the trimmed product keeps more than one row and more than
    one column; every tap otherwise, since a one-row or one-column product
    takes the BLAS's matrix-vector path, whose sums follow the row length.
    """
    pad = (ws - 1) // 2
    lo, hi = max(0, pad - k + 1), min(ws, pad + k)
    return (lo, hi) if rows > 1 and (hi - lo) * d > 1 else (0, ws)


def conv_backward(
    x: np.ndarray, w: np.ndarray, g: np.ndarray, input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray]:
    """Gradients of conv_forward: returns (gx, gw, gb); gx is None without ``input_grad``.

    gw is ``np.tensordot(g, windows, axes=([0, 1], [0, 1]))`` over the (d, ws)
    windows, returned in GEMM-major memory order; the input gradient sums
    the windows' gradients ``np.tensordot(g, w, axes=([2], [0]))`` tap by tap.

    Both products multiply only the taps that reach a row of the text (the
    central ``min(ws, 2k - 1)``, see ``_taps``) and sum over the same B*k
    rows; gw holds +0.0 at the other taps, as a product of exact zeros
    gives, and gx gets no term from them. Whether the kept entries keep
    tensordot's bits depends on the BLAS (see the module docstring). Texts
    with no position get the forward's mirror: a (B, 0, d) gx and +0.0 in
    gw and gb.
    """
    batch, k, d = x.shape
    n_k, ws, _ = w.shape
    pad = (ws - 1) // 2
    dt = np.result_type(x, w, g)
    g = g.astype(dt, copy=False)
    if k == 0:
        gx = np.zeros((batch, 0, d), dtype=dt) if input_grad else None
        return gx, np.zeros((ws, d, n_k), dtype=dt).transpose(2, 0, 1), g.sum(axis=(0, 1))
    g_rows = g.reshape(batch * k, n_k)
    lo, hi = _taps(n_k, d, k, ws)
    taps = hi - lo
    xp = np.zeros((batch, k + ws - 1, d), dtype=dt)
    xp[:, pad:pad + k] = x
    win = sliding_window_view(xp[:, lo:lo + k + taps - 1], taps, axis=1)  # (B,k,d,taps)
    block = np.empty((batch, k, d, taps), dtype=dt)
    block[...] = win
    cols = block.reshape(batch * k, d * taps)
    g_kernels = g_rows.T  # (n_k, B*k): the transposed operand tensordot passes
    gw_rows = np.empty((n_k, d * taps), dtype=dt)

    def kernel_grads(rows: slice) -> None:
        # matmul, unlike dot, multiplies a row slice of the transposed operand without a copy
        np.matmul(g_kernels[rows], cols, out=gw_rows[rows])

    parallel.run(kernel_grads, _chunks(n_k, n_k, batch * k * taps * d * n_k))
    del block, cols  # spent: free them before the copy below
    gw = np.empty((ws, d, n_k), dtype=dt)  # GEMM-major, as ConvBlock keeps kernels
    gw[:lo] = 0
    gw[hi:] = 0
    gw[lo:hi] = gw_rows.reshape(n_k, d, taps).transpose(2, 1, 0)
    gw = gw.transpose(2, 0, 1)
    del gw_rows
    gb = g.sum(axis=(0, 1))
    if not input_grad:
        return None, gw, gb
    lo, hi = _taps(batch * k, d, k, ws)
    taps = hi - lo
    kern = np.ascontiguousarray(w[:, lo:hi], dtype=dt).reshape(n_k, taps * d)
    gwin = np.empty((batch, k, taps, d), dtype=dt)

    def input_grads(texts: slice) -> None:
        rows = g_rows[texts.start * k:texts.stop * k]
        np.dot(rows, kern, out=gwin[texts].reshape(-1, taps * d))

    parallel.run(input_grads, _chunks(batch, batch * k, batch * k * taps * d * n_k))
    del kern
    # Tap s adds window row t's gradient to text row t + s - pad; rows that
    # land in the padding are dropped. Each text row sums its taps in tap
    # order from +0.0, as an accumulation into a zero-padded buffer would.
    gx = np.zeros((batch, k, d), dtype=dt)
    for s in range(lo, hi):
        shift = s - pad
        if abs(shift) < k:
            rows = gwin[:, max(0, -shift):k - max(0, shift), s - lo]
            gx[:, max(0, shift):k + min(0, shift)] += rows
    return gx, gw, gb
