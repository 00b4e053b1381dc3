"""encode_texts runs each length group in parts within a GEMM-cell budget.

The budget is ENCODE_CELLS one part at a time, and ENCODE_CELLS // 4 when
parts run concurrently (``encoder._part_cells``).

The parts' rows must equal one batched forward of the whole group bit for
bit. That rests on the BLAS computing a row of a product the same way
whatever the number of rows, once past its small-matrix paths, which is a
property of the BLAS build, so these tests check it at the real budget.
"""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multires.model import encoder
from multires.model.encoder import (
    ENCODE_CELLS,
    TokenTexts,
    encode_texts,
    grouped_forward,
    init_convrr_params,
    init_fcrr_params,
    mean_embedding_encode,
)
from multires.numerics import kernels


def _params(kind, dim, dtype, seed=0):
    rng = np.random.default_rng(seed)
    if kind == "convrr":
        return init_convrr_params(dim, rng=rng, dtype=dtype)
    return init_fcrr_params(dim, rng=rng, dtype=dtype)


# (kind, k, d'', texts of length k): each group splits into 2-3 parts of
# unequal sizes.
SPLIT_SHAPES = [
    ("convrr", 1, 64, 10487),
    ("convrr", 2, 64, 7000),
    ("convrr", 40, 64, 350),
    ("fcrr", 1, 64, 36045),
    ("fcrr", 2, 64, 36046),
    ("fcrr", 40, 64, 2000),
]

# As above at two workers, where a part reads at most ENCODE_CELLS // 4 cells:
# the groups split into 5-10 parts of unequal sizes. fcrr's groups of k=1 and
# k=40 hold one text more than above, where they would make equal parts.
CONCURRENT_SPLIT_SHAPES = SPLIT_SHAPES[:3] + [
    ("fcrr", 1, 64, 36046),
    ("fcrr", 2, 64, 36046),
    ("fcrr", 40, 64, 2001),
]


def _check_parts(kind, k, dim, n, dtype, workers, budget, monkeypatch):
    """encode_texts at ``workers`` workers: parts within ``budget`` that equal one forward."""
    monkeypatch.setattr(kernels, "split_workers", lambda: workers)
    params = _params(kind, dim, dtype)
    rng = np.random.default_rng(n + k)
    texts = list(rng.normal(size=(n, k, dim)).astype(dtype))
    texts += list(rng.normal(size=(7, k + 1, dim)).astype(dtype))  # a group that fits
    order = rng.permutation(len(texts))
    texts = [texts[i] for i in order]

    sizes = []
    lock = threading.Lock()
    forward_many = encoder.forward_many

    def recording(xs, p):
        with lock:  # parts may run on several threads at once
            sizes.append(xs.shape[0])
        return forward_many(xs, p)

    monkeypatch.setattr(encoder, "forward_many", recording)
    got = encode_texts(texts, params)
    parts = sorted(sizes)  # a multiset: workers may finish parts in any order
    sizes.clear()
    expected, _ = grouped_forward(texts, params)  # one forward per group

    assert sizes == [n, 7]
    assert got.tobytes() == expected.tobytes()
    parts.remove(7)  # the group that fits
    assert sum(parts) == n and len(parts) >= 2 and len(set(parts)) == 2
    cells = encoder._text_cells(texts, params, k)
    fit = budget // cells
    for texts_in_part in parts:
        assert math.ceil(fit / 2) <= texts_in_part <= fit
        assert budget / 2 <= texts_in_part * cells <= budget


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind, k, dim, n", SPLIT_SHAPES)
def test_parts_equal_one_forward_of_the_group(kind, k, dim, n, dtype, monkeypatch):
    _check_parts(kind, k, dim, n, dtype, 1, ENCODE_CELLS, monkeypatch)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind, k, dim, n", CONCURRENT_SPLIT_SHAPES)
def test_concurrent_parts_equal_one_forward_of_the_group(kind, k, dim, n, dtype, monkeypatch):
    _check_parts(kind, k, dim, n, dtype, 2, ENCODE_CELLS // 4, monkeypatch)


# (dtype of the texts of length 2, of length 5, of the encoder's tensors)
OUTPUT_DTYPES = [
    (np.float32, np.float32, np.float64),
    (np.float64, np.float64, np.float32),
    (np.float16, np.float16, np.float32),
    (np.int8, np.int8, np.float32),
    (np.float32, np.float64, np.float32),  # the first part's dtype holds every row
    (np.float64, np.float32, np.float32),
]


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind", ["convrr", "fcrr", None])
@pytest.mark.parametrize("short, long, tensors", OUTPUT_DTYPES)
def test_outputs_take_the_dtype_of_the_first_parts_forward(
    short, long, tensors, kind, workers, monkeypatch
):
    monkeypatch.setattr(kernels, "split_workers", lambda: workers)
    rng = np.random.default_rng(3)
    texts = [rng.integers(1, 4, size=(2, 8)).astype(short) for _ in range(3)]
    texts += [rng.integers(1, 4, size=(5, 8)).astype(long) for _ in range(3)]
    got = encode_texts(texts, None if kind is None else _params(kind, 8, tensors))
    if kind is None:
        first = mean_embedding_encode(np.stack(texts[:3]))
        expected = np.vstack([first, mean_embedding_encode(np.stack(texts[3:]))]).astype(first.dtype)
    else:
        expected, _ = grouped_forward(texts, _params(kind, 8, tensors))
    assert got.dtype == expected.dtype and got.tobytes() == expected.tobytes()


@settings(max_examples=100, deadline=None)
@given(
    lengths=st.lists(st.integers(1, 4), min_size=0, max_size=60),
    max_cells=st.integers(1, 400),
)
def test_split_rule(lengths, max_cells):
    """Near-equal parts of whole texts, each within the budget, at least half full."""
    params = _params("convrr", 2, np.float64)
    texts = [np.ones((k, 2)) for k in lengths]
    parts = [idxs for _, idxs in encoder._parts(texts, params, max_cells)]
    assert sorted(i for part in parts for i in part) == list(range(len(texts)))
    for k in sorted(set(lengths)):
        group = [i for i, length in enumerate(lengths) if length == k]
        mine = [part for part in parts if lengths[part[0]] == k]
        assert [i for part in mine for i in part] == group  # input order within the group
        fit = max(1, max_cells // encoder._text_cells(texts, params, k))
        sizes = [len(part) for part in mine]
        assert max(sizes) - min(sizes) <= 1
        assert max(sizes) <= fit
        if len(mine) > 1:
            assert min(sizes) >= math.ceil(fit / 2)
        else:
            assert sizes == [len(group)] and len(group) <= fit


def _check_encode_memory(texts, params) -> None:
    tracemalloc.start()
    try:
        out = encode_texts(texts, params)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 4 * ENCODE_CELLS * out.itemsize


@pytest.mark.parametrize("n", [250, 2000])
def test_encode_memory_is_bounded(n):
    """convrr, depth 2, k=40, d''=64: the memory encode_texts adds stays bounded.

    The inputs exist before tracing starts, so the traced peak holds the
    outputs and the temporaries. One forward of all 2000 texts would hold
    12 times ENCODE_CELLS cells in its window copy alone, and a copy of all
    the inputs 2.4 times.
    """
    params = _params("convrr", 64, np.float32)
    texts = list(np.random.default_rng(n).normal(size=(n, 40, 64)).astype(np.float32))
    _check_encode_memory(texts, params)


@pytest.mark.parametrize("kind, n", [("convrr", 250), ("convrr", 2000), ("fcrr", 8000)])
def test_encode_memory_is_bounded_for_token_texts(kind, n):
    """As above, with the texts given as rows of one table.

    fcrr's dense GEMM reads one mean row per text, but each part gathers
    its (texts, 40, 64) block first: one part of all 8000 texts would hold
    almost 10 times ENCODE_CELLS cells.
    """
    params = _params(kind, 64, np.float32)
    table = np.random.default_rng(n).normal(size=(n * 40, 64)).astype(np.float32)
    rows = np.arange(len(table))
    texts = TokenTexts(table, [rows[i * 40:(i + 1) * 40] for i in range(n)])
    _check_encode_memory(texts, params)
