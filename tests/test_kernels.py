"""Convolution kernel contract: oracle match, batch axis, linearity, bits of tensordot kernels."""

import numpy as np
import pytest

from multires.errors import ConfigError, ShapeError
from multires.numerics import conv1d_same, conv1d_same_backward
from multires.numerics import kernels


def naive_conv(inp, kern, bias):
    """Nested-loop oracle with explicit zero padding."""
    k, d = inp.shape
    n_k, ws, _ = kern.shape
    pad = (ws - 1) // 2
    out = np.zeros((k, n_k), dtype=np.float64)
    for t in range(k):
        for c in range(n_k):
            acc = float(bias[c])
            for s in range(ws):
                r = t + s - pad
                if 0 <= r < k:
                    for f in range(d):
                        acc += inp[r, f] * kern[c, s, f]
            out[t, c] = acc
    return out


def test_identity_kernel():
    inp = np.array([[1.0], [2.0], [3.0]])
    kern = np.array([[[1.0]]])
    out = conv1d_same(inp, kern, np.zeros(1))
    assert np.array_equal(out, inp)


def test_zero_kernels_zero_output(rng):
    inp = rng.normal(size=(5, 3))
    out = conv1d_same(inp, np.zeros((4, 3, 3)), np.zeros(4))
    assert np.array_equal(out, np.zeros((5, 4)))


def test_box_kernel_matches_hand_computation():
    inp = np.array([[1.0], [2.0], [3.0]])
    kern = np.ones((1, 3, 1))
    out = conv1d_same(inp, kern, np.zeros(1))
    assert np.array_equal(out.ravel(), [3.0, 6.0, 5.0])


@pytest.mark.parametrize("k,d,n_k,ws", [(3, 1, 1, 1), (4, 3, 2, 3), (7, 5, 4, 5), (2, 2, 3, 5)])
def test_matches_naive_oracle(rng, k, d, n_k, ws):
    inp = rng.normal(size=(k, d))
    kern = rng.normal(size=(n_k, ws, d))
    bias = rng.normal(size=n_k)
    assert np.allclose(conv1d_same(inp, kern, bias), naive_conv(inp, kern, bias), atol=1e-12)


def test_even_window_rejected(rng):
    with pytest.raises(ConfigError):
        conv1d_same(rng.normal(size=(3, 2)), rng.normal(size=(1, 2, 2)), np.zeros(1))


def test_feature_mismatch_rejected(rng):
    with pytest.raises(ShapeError):
        conv1d_same(rng.normal(size=(3, 2)), rng.normal(size=(1, 3, 4)), np.zeros(1))


def test_bias_mismatch_rejected(rng):
    with pytest.raises(ShapeError):
        conv1d_same(rng.normal(size=(3, 2)), rng.normal(size=(2, 3, 2)), np.zeros(3))


def test_upstream_shape_rejected(rng):
    inp = rng.normal(size=(3, 2))
    kern = rng.normal(size=(2, 3, 2))
    with pytest.raises(ShapeError):
        conv1d_same_backward(inp, kern, np.zeros(2), np.zeros((3, 3)))


def test_linear_in_input_and_kernels(rng):
    """f(aX + bY) == a f(X) + b f(Y) with zero bias, both arguments."""
    k, d, n_k, ws = 6, 4, 3, 3
    bias = np.zeros(n_k)
    a, b = 0.37, -1.21
    x1, x2 = rng.normal(size=(k, d)), rng.normal(size=(k, d))
    kern = rng.normal(size=(n_k, ws, d))
    lhs = conv1d_same(a * x1 + b * x2, kern, bias)
    rhs = a * conv1d_same(x1, kern, bias) + b * conv1d_same(x2, kern, bias)
    assert np.allclose(lhs, rhs, atol=1e-10)
    k1, k2 = rng.normal(size=(n_k, ws, d)), rng.normal(size=(n_k, ws, d))
    lhs = conv1d_same(x1, a * k1 + b * k2, bias)
    rhs = a * conv1d_same(x1, k1, bias) + b * conv1d_same(x1, k2, bias)
    assert np.allclose(lhs, rhs, atol=1e-10)


def test_zero_upstream_zero_gradients(rng):
    inp = rng.normal(size=(4, 3))
    kern = rng.normal(size=(2, 3, 3))
    gi, gk, gb = conv1d_same_backward(inp, kern, np.zeros(2), np.zeros((4, 2)))
    assert not gi.any() and not gk.any() and not gb.any()


def test_identity_kernel_backward_passes_upstream(rng):
    inp = rng.normal(size=(5, 1))
    kern = np.array([[[1.0]]])
    g = rng.normal(size=(5, 1))
    gi, _, _ = conv1d_same_backward(inp, kern, np.zeros(1), g)
    assert np.allclose(gi, g, atol=1e-15)


def test_mean_after_conv_permutation_sensitivity(rng):
    """Pooling after ws=1 conv is permutation invariant; ws=3 is not."""
    inp = rng.normal(size=(5, 3))
    perm = inp[::-1].copy()
    k1 = rng.normal(size=(2, 1, 3))
    m = conv1d_same(inp, k1, np.zeros(2)).mean(axis=0)
    mp = conv1d_same(perm, k1, np.zeros(2)).mean(axis=0)
    assert np.allclose(m, mp, atol=1e-12)
    k3 = rng.normal(size=(2, 3, 3))
    m = conv1d_same(inp, k3, np.zeros(2)).mean(axis=0)
    mp = conv1d_same(perm, k3, np.zeros(2)).mean(axis=0)
    assert np.abs(m - mp).max() > 1e-6


def test_batched_kernels_match_per_text_results(rng):
    """The batch axis: forward rows match the oracle, backward sums per-text gradients."""
    x = rng.normal(size=(3, 6, 5))
    w = rng.normal(size=(4, 3, 5))
    b = rng.normal(size=4)
    g = rng.normal(size=(3, 6, 4))
    out = kernels.conv_forward(x, w, b)
    for i in range(3):
        assert np.allclose(out[i], naive_conv(x[i], w, b), atol=1e-12, rtol=0)
    gx, gw, gb = kernels.conv_backward(x, w, g)
    per_text = [conv1d_same_backward(x[i], w, b, g[i]) for i in range(3)]
    assert np.allclose(gx, np.stack([p[0] for p in per_text]), atol=1e-12, rtol=0)
    assert np.allclose(gw, sum(p[1] for p in per_text), atol=1e-12, rtol=0)
    assert np.allclose(gb, sum(p[2] for p in per_text), atol=1e-12, rtol=0)


def sliding_windows(x, ws):
    """(B, k, d, ws) view of each position's zero-padded window, as tensordot reads it."""
    pad = (ws - 1) // 2
    xp = np.zeros((x.shape[0], x.shape[1] + 2 * pad, x.shape[2]), dtype=x.dtype)
    xp[:, pad:pad + x.shape[1]] = x
    return np.lib.stride_tricks.sliding_window_view(xp, ws, axis=1)


def tensordot_window_block(x, ws):
    """The C-order (B*k, ws*d) window block ``np.tensordot`` builds for the forward."""
    batch, k, d = x.shape
    return sliding_windows(x, ws).transpose(0, 1, 3, 2).reshape(batch * k, ws * d)


def tensordot_conv_forward(x, w, b):
    """The conv forward as ``np.tensordot`` over a sliding window view."""
    return np.tensordot(sliding_windows(x, w.shape[1]), w, axes=([3, 2], [1, 2])) + b


def tensordot_conv_backward(x, w, g):
    """Its gradients through ``np.tensordot`` on C-order kernels, with a C-order ``gw``."""
    batch, k, d = x.shape
    ws = w.shape[1]
    pad = (ws - 1) // 2
    gw = np.tensordot(g, sliding_windows(x, ws), axes=([0, 1], [0, 1]))  # (n_k, d, ws)
    gwin = np.tensordot(g, w, axes=([2], [0]))  # (B, k, ws, d)
    gxp = np.zeros((batch, k + 2 * pad, d), dtype=x.dtype)
    for s in range(ws):
        gxp[:, s:s + k, :] += gwin[:, :, s, :]
    return gxp[:, pad:pad + k, :], np.ascontiguousarray(gw.transpose(0, 2, 1)), g.sum(axis=(0, 1))


def gemm_major(w):
    """The same kernels laid out in memory as (ws, d_in, n_k)."""
    return np.ascontiguousarray(w.transpose(1, 2, 0)).transpose(2, 0, 1)


# Each window with text lengths 1, 2, its pad, its width and 40: texts shorter than the
# window clip taps at both edges.
WINDOW_LENGTHS = [(ws, k) for ws in (1, 3, 5, 7) for k in sorted({1, 2, (ws - 1) // 2, ws, 40} - {0})]
GRID = pytest.mark.parametrize("ws,k,batch,d", [
    (ws, k, batch, d) for ws, k in WINDOW_LENGTHS for batch in (1, 3, 64) for d in (4, 64, 288)
])


def grid_case(ws, k, batch, d, dtype):
    gen = np.random.default_rng([ws, k, batch, d, np.dtype(dtype).itemsize])
    x, g = (gen.normal(size=(batch, k, d)).astype(dtype) for _ in range(2))
    return x, gen.normal(size=(d, ws, d)).astype(dtype), gen.normal(size=d).astype(dtype), g


@GRID
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_forward_is_one_nn_gemm_of_the_tensordot_window_block(ws, k, batch, d, dtype):
    """Same operands as the tensordot forward, same bits in either kernel layout.

    tensordot multiplies the window block by a free F-order view of C-order kernels
    (an NT gemm); conv_forward passes a C-order kernels operand (NN). The BLAS may
    sum a product of a few rows in another order for NT than for NN (on OpenBLAS
    0.3.31 at d=288, ws=5: one or two rows), so the tensordot forward is matched
    exactly on the block it builds and closely on its output.
    """
    x, w, b, _ = grid_case(ws, k, batch, d, dtype)
    operand = np.ascontiguousarray(w.transpose(1, 2, 0)).reshape(ws * d, d)
    nn = np.dot(tensordot_window_block(x, ws), operand)
    want = nn.reshape(batch, k, d) + b
    for kern in (w, gemm_major(w)):
        out = kernels.conv_forward(x, kern, b)
        assert out.dtype == dtype and np.array_equal(out, want)
    tol = 1e-4 if dtype == np.float32 else 1e-12
    assert np.allclose(want, tensordot_conv_forward(x, w, b), rtol=tol, atol=tol * d)


@GRID
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_backward_matches_the_tensordot_formulation_bit_for_bit(ws, k, batch, d, dtype):
    x, w, _, g = grid_case(ws, k, batch, d, dtype)
    want = tensordot_conv_backward(x, w, g)
    for kern in (w, gemm_major(w)):
        gx, gw, gb = kernels.conv_backward(x, kern, g)
        for got, ref in zip((gx, gw, gb), want):
            assert got.dtype == dtype and np.array_equal(got, ref)
        assert gw.transpose(1, 2, 0).flags.c_contiguous  # GEMM-major, as ConvBlock keeps kernels


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_batch_of_zero_position_texts(dtype, input_grad):
    """The backward mirrors the forward's (B, 0, n_k): an empty gx, +0.0 in gw and gb."""
    gen = np.random.default_rng(3)
    w = gemm_major(gen.normal(size=(2, 5, 4)).astype(dtype))
    b = gen.normal(size=2).astype(dtype)
    x, g = np.zeros((3, 0, 4), dtype), np.zeros((3, 0, 2), dtype)
    out = kernels.conv_forward(x, w, b)
    assert out.shape == (3, 0, 2) and out.dtype == dtype
    gx, gw, gb = kernels.conv_backward(x, w, g, input_grad)
    if input_grad:
        assert gx.shape == (3, 0, 4) and gx.dtype == dtype
    else:
        assert gx is None
    assert gw.shape == (2, 5, 4) and gb.shape == (2,)
    for grad in (gw, gb):
        assert grad.dtype == dtype and not grad.any() and not np.signbit(grad).any()
    assert gw.transpose(1, 2, 0).flags.c_contiguous


def padded_input_gradient(x, w, g):
    """conv_backward's input gradient accumulated into a zero-padded buffer, tap by tap.

    Same taps and the same window-gradient GEMM as ``conv_backward``; each
    tap adds its rows into (B, k + ws - 1, d) and the text's rows are cut
    out at the end.
    """
    batch, k, d = x.shape
    n_k, ws, _ = w.shape
    pad = (ws - 1) // 2
    lo, hi = kernels._taps(batch * k, d, k, ws)
    kern = np.ascontiguousarray(w[:, lo:hi]).reshape(n_k, (hi - lo) * d)
    gwin = np.dot(g.reshape(batch * k, n_k), kern).reshape(batch, k, hi - lo, d)
    gxp = np.zeros((batch, k + ws - 1, d), dtype=x.dtype)
    for s in range(lo, hi):
        gxp[:, s:s + k] += gwin[:, :, s - lo]
    return gxp[:, pad:pad + k]


@pytest.mark.parametrize("ws", [1, 3, 5, 7])
@pytest.mark.parametrize("k", [1, 2, 3, 12])
@pytest.mark.parametrize("batch", [1, 3])
@pytest.mark.parametrize("d", [4, 64])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_the_unpadded_input_gradient_equals_the_padded_accumulation(ws, k, batch, d, dtype):
    """Texts shorter than the pad included; one text of one position keeps every tap."""
    x, w, _, g = grid_case(ws, k, batch, d, dtype)
    w = gemm_major(w)
    gx, _, _ = kernels.conv_backward(x, w, g)
    want = padded_input_gradient(x, w, g)
    assert gx.shape == x.shape and gx.dtype == dtype and gx.flags.c_contiguous
    assert gx.tobytes() == np.ascontiguousarray(want).tobytes()
