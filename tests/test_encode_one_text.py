"""One text encoded alone, as a served query is, against numpy primitives.

The reference builds each conv block's C-order window block from an
explicitly zero-padded copy of the text, multiplies it by the C-order
(ws * d'', n_k) kernel matrix with ``np.dot``, adds the bias and applies
``np.maximum``; it pools with ``.mean(axis=-2)`` and divides by the
Euclidean norm. ``encode_texts`` of a one-text list or TokenTexts must give
the same bytes.
"""

import numpy as np
import pytest

from multires.errors import DegenerateVectorError
from multires.model.encoder import (
    ConvBlock,
    ConvRRParams,
    TokenTexts,
    encode_texts,
    forward_many,
    init_convrr_params,
    init_fcrr_params,
)

LENGTHS = [1, 2, 3, 12, 40]
DTYPES = [np.float32, np.float64]


def _unit(raw):
    return raw / np.sqrt(np.sum(raw * raw))


def reference_convrr(x, params):
    ws = params.window
    pad = (ws - 1) // 2
    h = x
    for blk in params.blocks:
        k, d = h.shape
        padded = np.zeros((k + ws - 1, d), dtype=h.dtype)
        padded[pad:pad + k] = h
        windows = np.empty((k, ws * d), dtype=h.dtype)
        for t in range(k):
            windows[t] = padded[t:t + ws].reshape(-1)
        kern = np.ascontiguousarray(blk.kernels.transpose(1, 2, 0)).reshape(ws * d, -1)
        h = np.maximum(np.dot(windows, kern) + blk.bias, 0)
    return _unit(params.scale * h.mean(axis=-2) + x.mean(axis=-2))


def reference_fcrr(x, params):
    v = x.mean(axis=-2)
    z = v[None] @ params.weight.T + params.bias
    return _unit(params.scale * np.maximum(z, 0)[0] + v)


def _convrr(dim, depth, ws, dtype, seed):
    gen = np.random.default_rng(seed)
    params = init_convrr_params(dim, depth=depth, window=ws, rng=gen, dtype=dtype)
    blocks = [
        ConvBlock(blk.kernels, gen.normal(scale=0.1, size=dim).astype(dtype)) for blk in params.blocks
    ]
    return ConvRRParams(blocks, ws, params.scale)


def _forms(x):
    """The one text as a list of one matrix and as TokenTexts over a table of its rows."""
    table = np.concatenate([np.zeros((3, x.shape[1]), x.dtype), x])
    ids = np.arange(3, 3 + len(x), dtype=np.intp)
    return [x], TokenTexts(table, [ids])


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("depth", [1, 2])
@pytest.mark.parametrize("dim", [4, 64, 288])
@pytest.mark.parametrize("ws", [1, 3, 5])
@pytest.mark.parametrize("k", LENGTHS)
def test_one_convrr_text_equals_the_numpy_reference(k, ws, dim, depth, dtype):
    seed = [k, ws, dim, depth, np.dtype(dtype).itemsize]
    params = _convrr(dim, depth, ws, dtype, seed)
    x = np.random.default_rng([*seed, 1]).normal(size=(k, dim)).astype(dtype)
    want = reference_convrr(x, params)
    for texts in _forms(x):
        got = encode_texts(texts, params)
        assert got.shape == (1, dim) and got.dtype == want.dtype
        assert got[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("dim", [4, 64, 288])
@pytest.mark.parametrize("k", LENGTHS)
def test_one_fcrr_text_equals_the_numpy_reference(k, dim, dtype):
    gen = np.random.default_rng([k, dim, np.dtype(dtype).itemsize])
    params = init_fcrr_params(dim, rng=gen, dtype=dtype)
    params.bias[:] = gen.normal(scale=0.1, size=dim)
    x = gen.normal(size=(k, dim)).astype(dtype)
    want = reference_fcrr(x, params)
    for texts in _forms(x):
        got = encode_texts(texts, params)
        assert got.dtype == want.dtype and got[0].tobytes() == want.tobytes()


@pytest.mark.parametrize("layout", ["C", "F", "reversed", "strided", "list"])
def test_a_one_text_list_encodes_the_block_concatenation_gives(layout):
    """Whatever the matrix's layout, the forward runs on the bytes and layout np.concatenate gives."""
    params = _convrr(64, 2, 5, np.float32, 3)
    wide = np.random.default_rng(4).normal(size=(12, 128)).astype(np.float32)
    x = wide[:, ::2].copy()
    x = {
        "C": x, "F": np.asfortranarray(x), "reversed": x[::-1], "strided": wide[:, ::2], "list": x.tolist(),
    }[layout]
    block = np.concatenate([x]).reshape(1, 12, 64)
    want, _ = forward_many(block, params)
    assert encode_texts([x], params).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind", ["convrr", "fcrr"])
def test_a_zero_norm_single_text_is_named(kind):
    params = (init_convrr_params if kind == "convrr" else init_fcrr_params)(8)  # zero biases
    with pytest.raises(DegenerateVectorError, match="text 0"):
        encode_texts([np.zeros((3, 8), np.float32)], params)
