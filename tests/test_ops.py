"""Elementwise ops, pooling, normalization, and their gradients."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multires.errors import DegenerateVectorError, EmptyInputError
from multires.numerics import (
    conv1d_same,
    conv1d_same_backward,
    finite_diff_check,
    l2_normalize,
    l2_normalize_backward,
    mean_over_positions,
    mean_over_positions_backward,
    relu,
    relu_backward,
)


class TestRelu:
    def test_basic(self):
        assert np.array_equal(relu(np.array([-1.0, 2.0])), [0.0, 2.0])

    def test_identity_on_nonnegative(self, rng):
        x = np.abs(rng.normal(size=(3, 4)))
        assert np.array_equal(relu(x), x)

    def test_gradient(self, rng):
        x = rng.normal(size=(4, 3))
        x[np.abs(x) < 1e-3] += 0.1  # stay away from the kink
        g = rng.normal(size=x.shape)
        analytic = relu_backward(x, g)

        def f(z):
            return float(np.sum(relu(z) * g))

        assert finite_diff_check(f, x, analytic) < 1e-6

    def test_subgradient_zero_at_zero(self):
        x = np.array([0.0, -0.0, 1.0])
        g = np.ones(3)
        assert np.array_equal(relu_backward(x, g), [0.0, 0.0, 1.0])

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([np.float32, np.float64]),
        st.sampled_from([np.float32, np.float64]),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
    )
    def test_backward_is_np_where_byte_for_byte(self, x_dtype, g_dtype, n, seed):
        """NaN, signed zeros and infinities in either operand, any mix of the two dtypes."""
        gen = np.random.default_rng(seed)
        specials = np.array([np.nan, -np.nan, 0.0, -0.0, np.inf, -np.inf, 1e-45, -1e-45])
        x, g = (gen.normal(size=(n, 3)) for _ in range(2))
        for a in (x, g):
            hit = gen.random(a.shape) < 0.4
            a[hit] = gen.choice(specials, size=hit.sum())
        x, g = x.astype(x_dtype), g.astype(g_dtype)
        got, want = relu_backward(x, g), np.where(x > 0, g, 0)
        assert got.dtype == want.dtype == g_dtype
        assert got.tobytes() == want.tobytes()


class TestMeanOverPositions:
    def test_basic(self):
        assert np.array_equal(mean_over_positions(np.array([[1.0, 3.0], [3.0, 5.0]])), [2.0, 4.0])

    def test_single_row_identity(self, rng):
        row = rng.normal(size=(1, 5))
        assert np.array_equal(mean_over_positions(row), row[0])

    def test_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            mean_over_positions(np.zeros((0, 3)))

    def test_backward_distributes(self, rng):
        g = rng.normal(size=4)
        back = mean_over_positions_backward(g, 5)
        assert back.shape == (5, 4)
        assert np.array_equal(back, np.tile(g / 5, (5, 1)))

    def test_batched_equals_stacked_rows(self, rng):
        x = rng.normal(size=(3, 4, 5))
        assert np.array_equal(mean_over_positions(x), np.stack([mean_over_positions(r) for r in x]))
        g = rng.normal(size=(3, 5))
        back = mean_over_positions_backward(g, 4)
        assert np.array_equal(back, np.stack([mean_over_positions_backward(r, 4) for r in g]))

    def test_batched_empty_rejected(self):
        with pytest.raises(EmptyInputError):
            mean_over_positions(np.zeros((2, 0, 3)))


class TestL2Normalize:
    def test_three_four_five(self):
        assert np.allclose(l2_normalize(np.array([3.0, 4.0])), [0.6, 0.8], atol=1e-15)

    def test_idempotent_on_unit_sphere(self, rng):
        u = l2_normalize(rng.normal(size=7))
        assert np.allclose(l2_normalize(u), u, atol=1e-12)

    def test_output_norm_is_one(self, rng):
        for _ in range(50):
            v = rng.normal(size=rng.integers(2, 10))
            assert abs(np.linalg.norm(l2_normalize(v)) - 1.0) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateVectorError):
            l2_normalize(np.zeros(4))
        with pytest.raises(DegenerateVectorError):
            l2_normalize_backward(np.zeros(4), np.ones(4))

    def test_batched_equals_stacked_rows(self, rng):
        v = rng.normal(size=(4, 6))
        g = rng.normal(size=(4, 6))
        assert np.array_equal(l2_normalize(v), np.stack([l2_normalize(r) for r in v]))
        back = l2_normalize_backward(v, g)
        assert np.array_equal(back, np.stack([l2_normalize_backward(r, u) for r, u in zip(v, g)]))

    def test_one_zero_row_in_batch_rejected(self, rng):
        v = rng.normal(size=(4, 6))
        v[2] = 0
        with pytest.raises(DegenerateVectorError):
            l2_normalize(v)
        with pytest.raises(DegenerateVectorError):
            l2_normalize_backward(v, np.ones_like(v))

    def test_gradient(self, rng):
        v = rng.normal(size=6) + 0.5
        g = rng.normal(size=6)
        analytic = l2_normalize_backward(v, g)

        def f(z):
            return float(np.dot(l2_normalize(z), g))

        assert finite_diff_check(f, v, analytic) < 1e-6


class TestConvGradients:
    def test_random_instance_against_finite_differences(self, rng):
        inp = rng.normal(size=(4, 3))
        kern = rng.normal(size=(2, 3, 3))
        bias = rng.normal(size=2)
        g = rng.normal(size=(4, 2))
        gi, gk, gb = conv1d_same_backward(inp, kern, bias, g)

        def f_inp(z):
            return float(np.sum(conv1d_same(z, kern, bias) * g))

        def f_kern(z):
            return float(np.sum(conv1d_same(inp, z, bias) * g))

        def f_bias(z):
            return float(np.sum(conv1d_same(inp, kern, z) * g))

        assert finite_diff_check(f_inp, inp, gi) < 1e-6
        assert finite_diff_check(f_kern, kern, gk) < 1e-6
        assert finite_diff_check(f_bias, bias, gb) < 1e-6

    @pytest.mark.parametrize("ws", [3, 5, 7])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_texts_shorter_than_the_window(self, k, ws):
        """Taps that reach no row of the text get a +0.0 kernel gradient, in GEMM-major layout."""
        gen = np.random.default_rng([k, ws])
        inp = gen.normal(size=(k, 3))
        kern = gen.normal(size=(4, ws, 3))
        bias = gen.normal(size=4)
        g = gen.normal(size=(k, 4))
        gi, gk, gb = conv1d_same_backward(inp, kern, bias, g)

        def f_inp(z):
            return float(np.sum(conv1d_same(z, kern, bias) * g))

        def f_kern(z):
            return float(np.sum(conv1d_same(inp, z, bias) * g))

        def f_bias(z):
            return float(np.sum(conv1d_same(inp, kern, z) * g))

        # relative error: an entry near zero carries the difference quotient's rounding
        assert finite_diff_check(f_inp, inp, gi) < 1e-5
        assert finite_diff_check(f_kern, kern, gk) < 1e-5
        assert finite_diff_check(f_bias, bias, gb) < 1e-5
        reach = np.abs(np.arange(ws) - (ws - 1) // 2) < k
        assert reach.sum() == min(ws, 2 * k - 1)
        dropped = gk[:, ~reach]
        assert not dropped.any() and not np.signbit(dropped).any()
        assert gk[:, reach].all()
        assert gk.transpose(1, 2, 0).flags.c_contiguous

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_an_empty_text(self, dtype):
        """No position: an empty output and input gradient, zero kernel and bias gradients."""
        gen = np.random.default_rng(5)
        kern, bias = gen.normal(size=(2, 5, 3)).astype(dtype), gen.normal(size=2).astype(dtype)
        inp, g = np.zeros((0, 3), dtype), np.zeros((0, 2), dtype)
        out = conv1d_same(inp, kern, bias)
        assert out.shape == (0, 2) and out.dtype == dtype
        gi, gk, gb = conv1d_same_backward(inp, kern, bias, g)
        assert gi.shape == (0, 3) and gk.shape == kern.shape and gb.shape == (2,)
        for grad in (gi, gk, gb):
            assert grad.dtype == dtype
            assert not grad.any() and not np.signbit(grad).any()
