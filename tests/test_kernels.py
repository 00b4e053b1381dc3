"""Convolution kernel contract: oracle match, batch axis, linearity."""

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
