"""Exact top-k through the Gram filter: ``nearest`` against the full sort.

The oracle ranks every elementwise distance with a stable sort; ``nearest``
must return the same indices and the same distance bits, near ties
included. Mining and the triplet step are checked against per-anchor and
per-triplet loops that rank and accumulate one item at a time.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multires.errors import NumericalError, ShapeError
from multires.model import LossConfig, mine_hard
from multires.model import encoder
from multires.model.encoder import BLOCK_CELLS, nearest, row_sq_norms, squared_distances
from multires.model.loss import triplet_loss, triplet_step
from multires.numerics import finite_diff_check

from test_model import brute_force_mine, unit


def oracle(queries, vectors, k, exclude=None, floor=None):
    """Per query: the stable full sort of the elementwise distances, filtered."""
    picks, dists = [], []
    for i, q in enumerate(queries):
        d = squared_distances(vectors, q)
        keep = [
            j for j in np.argsort(d, kind="stable")
            if (exclude is None or j != exclude[i]) and (floor is None or not d[j] < floor[i])
        ]
        picks.append(keep[:k])
        dists.append(d[keep[:k]])
    return picks, dists


def assert_matches_oracle(queries, vectors, k, exclude=None, floor=None, sq_norms=None):
    got_idx, got_dist = nearest(
        queries, vectors, k, sq_norms=sq_norms, exclude=exclude, floor=floor
    )
    want_idx, want_dist = oracle(queries, vectors, k, exclude, floor)
    for row, (picks, dists) in enumerate(zip(want_idx, want_dist)):
        found = got_idx[row] >= 0
        assert got_idx[row][found].tolist() == picks
        assert got_dist[row][found].dtype == dists.dtype
        assert got_dist[row][found].tobytes() == dists.tobytes()
        assert np.all(np.isinf(got_dist[row][~found]))


@st.composite
def near_tie_case(draw):
    """Unit-ish rows with duplicates, near duplicates and off-unit norms."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    d = draw(st.one_of(st.integers(1, 16), st.integers(1, 300)))
    n = draw(st.integers(1, 24))
    n_q = draw(st.integers(1, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = rng.normal(size=(n, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    # A cluster of near duplicates of row 0, closer to each other than the
    # Gram form can resolve, so only the exact recompute orders them.
    noise = np.finfo(dtype).eps * draw(st.sampled_from([0.5, 2.0, 8.0]))
    cluster = draw(st.integers(1, n))
    rows[1:cluster] = rows[0] + rng.normal(scale=noise, size=(cluster - 1, d))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n)):
        rows[dst] = rows[src]  # exact duplicates: exactly equal distances
    rows *= 1 + rng.uniform(-1e-6, 1e-6, size=(n, 1))  # off unit norm, as build_index allows
    vectors = rows.astype(dtype)
    kinds = draw(st.lists(st.sampled_from(["cluster", "row", "between", "random"]), min_size=n_q, max_size=n_q))
    queries = []
    for kind in kinds:
        if kind == "cluster":
            q = vectors[rng.integers(cluster)].astype(np.float64)
        elif kind == "row":
            q = vectors[rng.integers(n)].astype(np.float64)
        elif kind == "between":
            q = vectors[rng.integers(n)].astype(np.float64) + vectors[rng.integers(n)]
        else:
            q = rng.normal(size=d)
        norm = np.linalg.norm(q)
        queries.append(q / norm if norm > 0 else q)
    queries = np.array(queries).astype(dtype)
    k = draw(st.one_of(st.integers(1, 3), st.integers(1, n + 3)))
    exclude = rng.integers(0, n, size=n_q) if draw(st.booleans()) else None
    return queries, vectors, k, exclude


@settings(max_examples=300, deadline=None)
@given(near_tie_case())
def test_nearest_matches_full_sort(case):
    queries, vectors, k, exclude = case
    assert_matches_oracle(queries, vectors, k, exclude)


@settings(max_examples=200, deadline=None)
@given(near_tie_case(), st.integers(-3, 3), st.data())
def test_floor_inside_the_band_matches_full_sort(case, ulps, data):
    """A floor a few ulps from some row's exact distance is applied exactly."""
    queries, vectors, k, exclude = case
    floors = []
    for q in queries:
        d = squared_distances(vectors, q)
        f = d[data.draw(st.integers(0, len(d) - 1))]
        for _ in range(abs(ulps)):
            f = np.nextafter(f, np.inf if ulps > 0 else -np.inf)
        floors.append(f)
    assert_matches_oracle(queries, vectors, k, exclude, np.array(floors))


def test_stored_norms_give_the_same_ranking(rng):
    vectors = rng.normal(size=(50, 16)).astype(np.float32)
    queries = rng.normal(size=(7, 16)).astype(np.float32)
    assert_matches_oracle(queries, vectors, 5, sq_norms=row_sq_norms(vectors))


def test_blocks_cover_every_query(rng):
    """More query rows than one block holds: each block is ranked alike."""
    vectors = rng.normal(size=(300, 8)).astype(np.float32)
    queries = rng.normal(size=(2 * BLOCK_CELLS // 300 + 5, 8)).astype(np.float32)
    assert_matches_oracle(queries, vectors, 3)


def test_mixed_dtypes_rank_in_the_wider_one(rng):
    vectors = rng.normal(size=(40, 12)).astype(np.float32)
    queries = rng.normal(size=(3, 12))
    idx, dist = nearest(queries, vectors, 4)
    assert dist.dtype == np.float64
    assert_matches_oracle(queries, vectors, 4)


@pytest.mark.parametrize("scale", [1e19, 1e-20])
def test_extreme_magnitudes(rng, scale):
    """Products that overflow the dtype, or underflow into subnormals."""
    vectors = (rng.normal(size=(30, 20)) * scale).astype(np.float32)
    vectors[3] = vectors[7]
    queries = (rng.normal(size=(4, 20)) * scale).astype(np.float32)
    assert_matches_oracle(queries, vectors, 6)
    assert_matches_oracle(queries, vectors, 1, exclude=np.array([0, 3, 7, 29]))


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("floor", [None, (0.0, 0.0), (1.0, 1e30), (np.inf, np.inf)])
def test_an_excluded_column_is_never_returned(k, floor):
    """Beside an overflow-wide query (eps = inf), tied with its duplicates at the k-th distance.

    Rows 0 and 1 are one vector so large that a query equal to it overflows
    the float32 product bound, so all its estimates are recomputed; row 8
    duplicates row 3, which the second, ordinary query equals. Each query
    excludes one of its two exact matches, which tie at distance 0.
    """
    gen = np.random.default_rng(k)
    vectors = gen.normal(size=(9, 5)).astype(np.float32)
    vectors[0] = vectors[1] = np.float32(1.5e19 / np.sqrt(5))
    vectors[8] = vectors[3]
    queries = vectors[[0, 3]]
    exclude = np.array([0, 3])
    floor = None if floor is None else np.array(floor)
    idx, _ = nearest(queries, vectors, k, exclude=exclude, floor=floor)
    assert exclude[0] not in idx[0] and exclude[1] not in idx[1]
    if floor is None:
        assert idx[:, 0].tolist() == [1, 8]
    assert_matches_oracle(queries, vectors, k, exclude, floor)


def test_k_at_least_n_returns_every_allowed_row(rng):
    vectors = rng.normal(size=(5, 3))
    queries = rng.normal(size=(2, 3))
    idx, _ = nearest(queries, vectors, 9)
    assert idx.shape == (2, 5)
    idx, _ = nearest(queries, vectors, 9, exclude=np.array([4, 0]))
    assert idx.shape == (2, 4)
    assert 4 not in idx[0] and 0 not in idx[1]


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_query_raises(rng, bad):
    vectors = rng.normal(size=(6, 4))
    queries = rng.normal(size=(3, 4))
    queries[2, 1] = bad
    with pytest.raises(NumericalError, match="query row 2"):
        nearest(queries, vectors, 2)


def test_non_finite_vector_raises(rng):
    vectors = rng.normal(size=(6, 4))
    vectors[4, 0] = np.nan
    with pytest.raises(NumericalError, match="vector row 4"):
        nearest(rng.normal(size=(1, 4)), vectors, 2)


def test_shape_and_k_checked(rng):
    with pytest.raises(ShapeError):
        nearest(rng.normal(size=(2, 3)), rng.normal(size=(4, 5)), 1)
    with pytest.raises(ShapeError):
        nearest(rng.normal(size=(2, 3)), rng.normal(size=(4, 3)), 0)


# --- mining in every mode against per-anchor loops ---


def brute_force_semi_hard(anchors, positives, docs, gold):
    """Per anchor: the closest non-gold document not closer than the positive,
    else the closest non-gold document."""
    chosen = []
    for a_idx, anchor in enumerate(anchors):
        d_pos = float(np.sum((anchor - positives[a_idx]) ** 2))
        dists = [
            (float(np.sum((anchor - vec) ** 2)), d_idx)
            for d_idx, vec in enumerate(docs)
            if d_idx != gold[a_idx]
        ]
        far = [item for item in dists if not item[0] < d_pos]
        chosen.append(min(far or dists)[1])
    return chosen


@st.composite
def mining_case(draw):
    """A batch whose positives tie with, or sit ulps from, other documents."""
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    d = draw(st.one_of(st.integers(1, 16), st.integers(1, 64)))
    n_docs = draw(st.integers(2, 12))
    n_anchors = draw(st.integers(1, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    docs = rng.normal(size=(n_docs, d))
    docs /= np.linalg.norm(docs, axis=1, keepdims=True)
    # Near duplicates of document 0, about a float32 epsilon apart. In float64
    # two of their distances may differ by less than the 1e-18 that
    # brute_force_mine treats as a tie; exact_mine then has the last word.
    cluster = draw(st.integers(1, n_docs))
    docs[1:cluster] = docs[0] + rng.normal(scale=np.finfo(np.float32).eps, size=(cluster - 1, d))
    for src, dst in draw(st.lists(st.tuples(st.integers(0, n_docs - 1), st.integers(0, n_docs - 1)), max_size=4)):
        docs[dst] = docs[src]
    docs = docs.astype(dtype)
    gold_cols = rng.integers(0, n_docs, size=n_anchors)
    anchors = docs[gold_cols] + rng.normal(scale=0.3, size=(n_anchors, d))
    anchors = (anchors / np.linalg.norm(anchors, axis=1, keepdims=True)).astype(dtype)
    on_cluster = rng.random(n_anchors) < 0.5  # these anchors sit on document 0
    anchors[on_cluster] = docs[0]
    # Each positive is a copy of some document, nudged by a few ulps, so
    # d_pos lands on or next to another candidate's exact distance.
    positives = []
    for a in range(n_anchors):
        p = docs[rng.integers(n_docs)].copy()
        j = rng.integers(d)
        for _ in range(draw(st.integers(0, 2))):
            p[j] = np.nextafter(p[j], p.dtype.type(draw(st.sampled_from([-2.0, 2.0]))))
        positives.append(p)
    return anchors, np.array(positives), docs, gold_cols


def exact_mine(anchors, docs, gold):
    """Per anchor: the first non-gold document of the stable full sort."""
    return [picks[0] for picks in oracle(anchors, docs, 1, exclude=gold)[0]]


def has_sub_tolerance_gap(anchors, docs, gold):
    """Whether two of some anchor's candidate distances differ by (0, 1e-18]."""
    for a, anchor in enumerate(anchors):
        dists = np.unique([
            float(np.sum((anchor - vec) ** 2)) for col, vec in enumerate(docs) if col != gold[a]
        ])
        if np.any(np.diff(dists) <= 1e-18):
            return True
    return False


@settings(max_examples=200, deadline=None)
@given(mining_case())
def test_batch_hard_and_full_scan_match_brute_force(case):
    """full_scan differs from batch_hard only in the documents it passes."""
    anchors, positives, docs, gold = case
    got = mine_hard(anchors, positives, docs, gold)
    assert got.dtype == np.intp and got.shape == (len(anchors),)
    negatives = got.tolist()
    assert negatives == exact_mine(anchors, docs, gold)
    if not has_sub_tolerance_gap(anchors, docs, gold):
        assert negatives == brute_force_mine(anchors, docs, gold)


def test_mining_ranks_distances_closer_than_the_brute_force_tolerance():
    """Distances 0 and 8.7e-19 apart are not a tie: the exact 0 wins."""
    anchor = np.array([-1.0])
    docs = np.array([anchor, [-1.0000000009332621], anchor])
    got = mine_hard([anchor], [anchor], docs, [0])
    assert 0 < float(np.sum((anchor - docs[1]) ** 2)) <= 1e-18
    assert got[0] == 2 == exact_mine([anchor], docs, [0])[0]


@settings(max_examples=200, deadline=None)
@given(mining_case())
def test_semi_hard_matches_brute_force(case):
    anchors, positives, docs, gold = case
    got = mine_hard(anchors, positives, docs, gold, semi_hard=True)
    assert got.tolist() == brute_force_semi_hard(anchors, positives, docs, gold)


def test_semi_hard_positive_tied_with_a_negative_is_kept():
    """A candidate exactly as far as the positive is not closer: it stays."""
    anchor = unit([1.0, 0.2, 0.0])
    pos = unit([0.0, 1.0, 0.3])
    docs = np.array([unit([1.0, 0.0, 0.0]), unit([1.0, 0.25, 0.0]), pos])
    semi = mine_hard([anchor], [pos], docs, [0], semi_hard=True)
    assert semi.tolist() == [2]


# --- the array-valued triplet step against the per-triplet loop ---


def loop_triplet_step(anchors, docs, positive, negative, cfg):
    """One triplet at a time: the reference accumulation order."""
    g_anchor = np.zeros_like(anchors)
    g_doc = np.zeros_like(docs)
    losses = []
    active = 0
    inv_b = 1.0 / len(anchors)
    for i in range(len(anchors)):
        a, p, n = anchors[i], docs[positive[i]], docs[negative[i]]
        d_pos = float(np.sum((a - p) ** 2))
        d_neg = float(np.sum((a - n) ** 2))
        loss = max(d_pos - d_neg + cfg.margin, 0.0)
        losses.append(loss)
        if loss > 0:
            active += 1
            g_anchor[i] += (2 * inv_b) * ((a - p) - (a - n))
            g_doc[positive[i]] += (-2 * inv_b) * (a - p)
            g_doc[negative[i]] += (2 * inv_b) * (a - n)
    return np.array(losses), active, g_anchor, g_doc


@pytest.mark.parametrize("seed", range(6))
def test_triplet_step_matches_the_loop_bitwise(seed):
    """Shared negatives, and negatives that are other anchors' positives."""
    rng = np.random.default_rng(seed)
    n_anchors, n_docs, d = 24, 5, 16
    anchors = rng.normal(size=(n_anchors, d)).astype(np.float32)
    docs = rng.normal(size=(n_docs, d)).astype(np.float32)
    positive = rng.integers(0, n_docs, size=n_anchors)
    negative = (positive + rng.integers(1, n_docs, size=n_anchors)) % n_docs
    negative[:6] = negative[0]  # several anchors share one negative
    assert set(negative) & set(positive)
    cfg = LossConfig(margin=float(rng.uniform(0.5, 8.0)))
    losses, active, g_anchor, g_doc = triplet_step(anchors, docs, positive, negative, cfg)
    want_losses, want_active, want_anchor, want_doc = loop_triplet_step(
        anchors, docs, positive, negative, cfg
    )
    assert 0 < active == want_active
    assert losses.tobytes() == want_losses.tobytes()
    assert g_anchor.dtype == np.float32 and g_doc.dtype == np.float32
    assert g_anchor.tobytes() == want_anchor.tobytes()
    assert g_doc.tobytes() == want_doc.tobytes()


@pytest.mark.parametrize("seed", range(6))
def test_triplet_step_gradients_match_finite_differences(seed):
    """g_anchor and g_doc against central differences of the mean hinge loss,
    in float64 and away from its kink; document 0 is the positive of anchor 0
    and the negative of anchor 1."""
    rng = np.random.default_rng(seed)
    n_anchors, n_docs, d = 8, 4, 5
    anchors = rng.normal(size=(n_anchors, d))
    docs = rng.normal(size=(n_docs, d))
    positive = rng.integers(1, n_docs, size=n_anchors)
    negative = (positive + rng.integers(1, n_docs, size=n_anchors)) % n_docs
    positive[0], negative[0] = 0, 1
    negative[1] = 0
    anchors[:2] = docs[negative[:2]] + rng.normal(scale=0.1, size=(2, d))  # both active
    cfg = LossConfig(margin=float(rng.uniform(0.5, 8.0)))
    losses, _, g_anchor, g_doc = triplet_step(anchors, docs, positive, negative, cfg)
    hinge = (
        np.sum((anchors - docs[positive]) ** 2, axis=1)
        - np.sum((anchors - docs[negative]) ** 2, axis=1)
        + cfg.margin
    )
    assert np.abs(hinge).min() > 1e-3
    assert losses[0] > 0 and losses[1] > 0  # document 0 gets both kinds of term

    def mean_loss_of_anchors(z):
        return float(np.mean(triplet_step(z, docs, positive, negative, cfg)[0]))

    def mean_loss_of_docs(z):
        return float(np.mean(triplet_step(anchors, z, positive, negative, cfg)[0]))

    assert finite_diff_check(mean_loss_of_anchors, anchors, g_anchor) < 1e-6
    assert finite_diff_check(mean_loss_of_docs, docs, g_doc) < 1e-6


def test_triplet_step_inactive_batch_has_zero_gradients():
    anchors = np.array([[1.0, 0.0]], dtype=np.float32)
    docs = np.array([[1.0, 0.0], [-1.0, 0.0]], dtype=np.float32)
    losses, active, g_anchor, g_doc = triplet_step(
        anchors, docs, np.array([0]), np.array([1]), LossConfig(margin=0.5)
    )
    assert active == 0 and losses.tolist() == [0.0]
    assert not g_anchor.any() and not g_doc.any()
    assert not np.signbit(g_anchor).any()


def test_triplet_loss_takes_arrays():
    cfg = LossConfig(margin=1.0)
    got = triplet_loss(np.array([0.5, 0.2]), np.array([1.0, 1.5]), cfg)
    assert got.tolist() == [0.5, 0.0]


@pytest.mark.parametrize("n, d", [(5003, 288), (1001, 4), (1001, 64)])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_row_sq_norms_do_not_depend_on_the_chunking(n, d, dtype, monkeypatch):
    rows = np.random.default_rng(n + d).normal(size=(n, d)).astype(dtype)
    v = rows.astype(np.float64)
    whole = np.einsum("ij,ij->i", v, v)
    for cells in (1, 7 * d, encoder.NORM_CELLS):
        monkeypatch.setattr(encoder, "NORM_CELLS", cells)
        assert row_sq_norms(rows).tobytes() == whole.tobytes()


# --- one query against many rows, as a served query is ranked ---


def _served_case(dtype, d, k, seed):
    """1000 unit rows and one query near a scattered cluster of near duplicates.

    The cluster's rows differ by a few ulps, so only the exact recompute
    orders them. The row at rank k then gets an exact duplicate far away in
    the index, so the k-th distance is tied between rows about 500 apart.
    """
    gen = np.random.default_rng(seed)
    rows = gen.normal(size=(1000, d))
    rows /= np.linalg.norm(rows, axis=1, keepdims=True)
    cluster = np.arange(5, 1000, 33)
    noise = np.finfo(dtype).eps * gen.choice([0.5, 2.0, 8.0], size=(cluster.size, 1))
    rows[cluster] = rows[5] + noise * gen.normal(size=(cluster.size, d))
    vectors = rows.astype(dtype)
    query = (rows[5] + 0.01 * gen.normal(size=d)).astype(dtype)[None]
    dist = squared_distances(vectors, query[0])
    order = np.argsort(dist, kind="stable")
    kth = order[min(k, 1000) - 1]
    later = order[k:] if k < 1000 else order[:-1]
    far = later[np.argmax(np.abs(later - kth))]
    vectors[far] = vectors[kth]
    return query, vectors


@pytest.mark.parametrize("stored", [False, True])
@pytest.mark.parametrize("k", [1, 10, 1000])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_one_query_over_a_thousand_rows_matches_full_sort(dtype, k, stored):
    query, vectors = _served_case(dtype, 64, k, seed=k)
    d = squared_distances(vectors, query[0])
    want = np.argsort(d, kind="stable")[:k]
    assert np.sum(d == d[want[-1]]) >= 2  # the k-th distance is tied
    sq_norms = row_sq_norms(vectors) if stored else None
    assert_matches_oracle(query, vectors, k, sq_norms=sq_norms)


# Widths no other test ranks at, so the first call at each one is the first at that width.
@pytest.mark.parametrize("first, then, d", [(np.float32, np.float64, 301), (np.float64, np.float32, 302)])
def test_a_width_ranked_in_one_dtype_then_another_matches_full_sort(first, then, d):
    """Constants derived once per dtype and width are not shared across dtypes."""
    for dtype in (first, then):
        query, vectors = _served_case(dtype, d, 10, seed=d)
        assert_matches_oracle(query, vectors, 10)
