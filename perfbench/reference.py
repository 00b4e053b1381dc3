"""Reference computations the benchmark checks the program against.

They are written apart from the program, in float64 numpy, from the
definitions in the paper and the README: IDF, composition under the
benchmark's spec, the convrr forward pass, brute-force ranking and
recall@k. Float32 results of the program are compared with them under
the tolerances below.
"""

from __future__ import annotations

import math
from typing import Mapping, Sequence

import numpy as np

# Squared distances between unit vectors lie in [0, 4]; float32 rounding
# moves them by about 1e-7. Two documents closer than this are a tie that
# the program may order either way.
DIST_TOL = 1e-5
# Composed rows and encoder outputs: float32 against float64.
VALUE_RTOL = 1e-5
VALUE_ATOL = 1e-5
UNIT_NORM_TOL = 1e-5


def idf(token_lists: Sequence[Sequence[str]]) -> dict[str, float]:
    """ln(N / df) with df counted once per document."""
    df: dict[str, int] = {}
    for tokens in token_lists:
        for t in set(tokens):
            df[t] = df.get(t, 0) + 1
    n = len(token_lists)
    return {t: math.log(n / c) for t, c in df.items()}


def compose(
    tokens: Sequence[str],
    rows: Mapping[str, Mapping[str, np.ndarray]],
    idf_of: Mapping[str, float],
    num_docs: int,
) -> np.ndarray:
    """(k, 288) text matrix under the benchmark spec.

    Store A (12 x 64): layers 0-3, each scaled by 0.25, concatenated.
    Store B (3 x 32): layer 2 scaled by the token's IDF (ln N for a token
    the corpus lacks). The ensemble concatenates both at weight 1/2. A
    token missing from a store contributes zeros for that store.
    """
    out = np.zeros((len(tokens), 4 * 64 + 32))
    for i, t in enumerate(tokens):
        a = rows["a"].get(t)
        if a is not None:
            out[i, :256] = 0.5 * 0.25 * np.asarray(a, dtype=np.float64)[:4].reshape(-1)
        b = rows["b"].get(t)
        if b is not None:
            out[i, 256:] = 0.5 * idf_of.get(t, math.log(num_docs)) * np.asarray(b, dtype=np.float64)[2]
    return out


def convrr_forward(
    x: np.ndarray, kernels: Sequence[np.ndarray], biases: Sequence[np.ndarray], scale: float
) -> np.ndarray:
    """Unit vector of one (k, d) text: conv+ReLU blocks, mean pool, scale, add mean row.

    Each block is a "same" zero-padded convolution over positions:
    z[t, c] = b[c] + sum_s sum_f w[c, s, f] * x[t + s - pad, f].
    """
    x = np.asarray(x, dtype=np.float64)
    k = x.shape[0]
    h = x
    for w, b in zip(kernels, biases):
        w = np.asarray(w, dtype=np.float64)
        ws = w.shape[1]
        pad = (ws - 1) // 2
        z = np.tile(np.asarray(b, dtype=np.float64), (k, 1))
        for s in range(ws):
            lo, hi = max(0, pad - s), min(k, k + pad - s)
            if lo < hi:
                z[lo:hi] += h[lo + s - pad:hi + s - pad] @ w[:, s, :].T
        h = np.maximum(z, 0.0)
    raw = scale * h.mean(axis=0) + x.mean(axis=0)
    return raw / np.linalg.norm(raw)


def normalized_mean(x: np.ndarray) -> np.ndarray:
    """The mean-embedding baseline: unit-normalized mean of the rows."""
    m = np.asarray(x, dtype=np.float64).mean(axis=0)
    return m / np.linalg.norm(m)


def distances(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    diff = np.asarray(vectors, dtype=np.float64) - np.asarray(query, dtype=np.float64)
    return np.einsum("ij,ij->i", diff, diff)


def rank(vectors: np.ndarray, query: np.ndarray, k: int) -> list[int]:
    """Indices of the k nearest rows, ties broken by row order."""
    d = distances(vectors, query)
    return np.lexsort((np.arange(d.shape[0]), d))[:k].tolist()


def ranking_agrees(served: Sequence[int], vectors: np.ndarray, query: np.ndarray) -> bool:
    """True when ``served`` is the brute-force top-len(served) ranking.

    Where two documents lie within DIST_TOL of each other, either order is
    accepted; any other difference, in order or membership, is a mismatch.
    """
    k = len(served)
    d = distances(vectors, query)
    expected = rank(vectors, query, k)
    if list(served) == expected:
        return True
    if len(set(served)) != k:
        return False
    return bool(np.all(np.abs(d[list(served)] - d[expected]) <= DIST_TOL))


def recall(rankings: Sequence[Sequence[int]], gold: Sequence[int], k: int) -> float:
    return sum(1 for r, g in zip(rankings, gold) if g in list(r)[:k]) / len(gold)


def recall_bounds(dist: np.ndarray, gold: Sequence[int], k: int) -> tuple[float, float]:
    """Lowest and highest recall@k any tie-tolerant ranking of ``dist`` can give.

    ``dist`` is (queries, documents). A query counts as a sure hit when
    fewer than k other documents lie within DIST_TOL of its gold distance
    or closer, and as a possible hit when fewer than k lie clearly closer.
    """
    gold = np.asarray(gold)
    d_gold = dist[np.arange(dist.shape[0]), gold][:, None]
    others = np.ones_like(dist, dtype=bool)
    others[np.arange(dist.shape[0]), gold] = False
    surely_closer = ((dist < d_gold - DIST_TOL) & others).sum(axis=1)
    maybe_closer = ((dist <= d_gold + DIST_TOL) & others).sum(axis=1)
    return float(np.mean(maybe_closer < k)), float(np.mean(surely_closer < k))


def unit_rows(vectors: np.ndarray) -> bool:
    norms = np.linalg.norm(np.asarray(vectors, dtype=np.float64), axis=1)
    return bool(np.all(np.abs(norms - 1.0) <= UNIT_NORM_TOL))


def close(program: np.ndarray, expected: np.ndarray) -> bool:
    program = np.asarray(program, dtype=np.float64)
    return program.shape == expected.shape and bool(
        np.allclose(program, expected, rtol=VALUE_RTOL, atol=VALUE_ATOL)
    )
