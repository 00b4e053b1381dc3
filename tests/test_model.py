"""Encoders, triplet loss, mining, and the training loop."""

import numpy as np
import pytest

from multires.corpus import QaPair
from multires.errors import (
    ConfigError,
    DatasetError,
    DegenerateVectorError,
    IntegrityError,
    MiningError,
    ShapeError,
)
from multires.model import (
    LossConfig,
    TrainConfig,
    init_convrr_params,
    init_fcrr_params,
    mine_hard,
    serialize_params,
    train,
    triplet_loss,
    zero_convrr_params,
)
from multires.model import encoder
from multires.model.encoder import (
    TokenTexts,
    as_token_texts,
    backward_many,
    convrr_backward,
    convrr_forward,
    encode_texts,
    fcrr_backward,
    fcrr_forward,
    grouped_backward,
    grouped_forward,
    mean_embedding_encode,
)
from multires.numerics import finite_diff_check
from multires.model.loss import triplet_step
from multires.numerics.adam import AdamConfig, AdamState, adam_step
from multires.retrieval import evaluate


def straight_line_convrr(X, params):
    """Independent reimplementation: explicit loops, no shared kernel code."""
    X = np.asarray(X, dtype=np.float64)
    k, d = X.shape
    h = X
    for blk in params.blocks:
        W, b = np.asarray(blk.kernels, np.float64), np.asarray(blk.bias, np.float64)
        n_k, ws, _ = W.shape
        pad = (ws - 1) // 2
        z = np.zeros((k, n_k))
        for t in range(k):
            for c in range(n_k):
                acc = b[c]
                for s in range(ws):
                    r = t + s - pad
                    if 0 <= r < k:
                        acc += float(np.dot(h[r], W[c, s]))
                z[t, c] = acc
        h = np.maximum(z, 0.0)
    pooled = h.sum(axis=0) / k
    residual = X.sum(axis=0) / k
    raw = params.scale * pooled + residual
    return raw / np.linalg.norm(raw)


class TestConvRRForward:
    def test_zero_network_reduces_to_residual(self, rng):
        X = rng.normal(size=(5, 4))
        params = zero_convrr_params(4, depth=2, window=3, dtype=np.float64)
        out = convrr_forward(X, params)
        mean = X.mean(axis=0)
        assert np.allclose(out, mean / np.linalg.norm(mean), atol=1e-15)

    def test_scale_zero_ignores_weights(self, rng):
        X = rng.normal(size=(4, 3))
        params = init_convrr_params(3, depth=2, window=3, scale=0.0, rng=rng, dtype=np.float64)
        zero = zero_convrr_params(3, depth=2, window=3, scale=0.0, dtype=np.float64)
        assert np.allclose(convrr_forward(X, params), convrr_forward(X, zero), atol=1e-15)

    def test_matches_independent_oracle(self, rng):
        X = rng.normal(size=(4, 6))
        params = init_convrr_params(6, depth=2, window=3, scale=0.3, rng=rng, dtype=np.float64)
        assert np.allclose(convrr_forward(X, params), straight_line_convrr(X, params), atol=1e-10)

    def test_output_is_unit(self, rng):
        for _ in range(20):
            k = int(rng.integers(1, 6))
            X = rng.normal(size=(k, 5))
            params = init_convrr_params(5, depth=2, window=5, scale=0.5, rng=rng, dtype=np.float64)
            assert abs(np.linalg.norm(convrr_forward(X, params)) - 1.0) < 1e-6

    def test_all_zero_text_rejected(self):
        params = zero_convrr_params(3, dtype=np.float64)
        with pytest.raises(DegenerateVectorError):
            convrr_forward(np.zeros((2, 3)), params)

    def test_scale_pool_commutes(self, rng):
        """sf * mean(Y) == mean(sf * Y): linearity guard for refactors."""
        Y = rng.normal(size=(6, 4))
        sf = 0.37
        assert np.allclose(sf * Y.mean(axis=0), (sf * Y).mean(axis=0), atol=1e-12)


class TestConvRRBackward:
    def test_zero_upstream_zero_grads(self, rng):
        X = rng.normal(size=(3, 4))
        params = init_convrr_params(4, depth=2, window=3, rng=rng, dtype=np.float64)
        grads, gx = convrr_backward(X, params, np.zeros(4))
        assert all(not g.any() for g in grads)
        assert not gx.any()

    def test_scale_zero_kills_parameter_gradients(self, rng):
        X = rng.normal(size=(3, 4))
        params = init_convrr_params(4, depth=2, window=3, scale=0.0, rng=rng, dtype=np.float64)
        grads, _ = convrr_backward(X, params, rng.normal(size=4))
        assert all(not g.any() for g in grads)

    def test_finite_difference_all_parameters(self, rng):
        X = rng.normal(size=(4, 5))
        params = init_convrr_params(5, depth=2, window=3, scale=0.8, rng=rng, dtype=np.float64)
        up = rng.normal(size=5)
        grads, gx = convrr_backward(X, params, up)
        tensors = params.tensors()
        for i in range(len(tensors)):
            def f(z, i=i):
                replaced = list(tensors)
                replaced[i] = z
                return float(np.dot(convrr_forward(X, params.replace_tensors(replaced)), up))

            assert finite_diff_check(f, tensors[i], grads[i]) < 1e-5

        def f_x(z):
            return float(np.dot(convrr_forward(z, params), up))

        assert finite_diff_check(f_x, X, gx) < 1e-5


class TestFCRR:
    def test_zero_weights_reduce_to_residual(self, rng):
        X = rng.normal(size=(3, 4))
        params = init_fcrr_params(4, rng=rng, dtype=np.float64)
        params.weight[:] = 0
        params.bias[:] = 0
        mean = X.mean(axis=0)
        assert np.allclose(fcrr_forward(X, params), mean / np.linalg.norm(mean), atol=1e-15)

    def test_single_row_residual_is_the_row(self, rng):
        x = rng.normal(size=(1, 4))
        params = init_fcrr_params(4, rng=rng, dtype=np.float64)
        params.weight[:] = 0
        params.bias[:] = 0
        assert np.allclose(fcrr_forward(x, params), x[0] / np.linalg.norm(x[0]), atol=1e-15)

    def test_finite_difference(self, rng):
        X = rng.normal(size=(3, 5))
        params = init_fcrr_params(5, scale=0.6, rng=rng, dtype=np.float64)
        up = rng.normal(size=5)
        grads, gx = fcrr_backward(X, params, up)

        def f_w(z):
            return float(np.dot(fcrr_forward(X, params.replace_tensors([z, params.bias])), up))

        def f_b(z):
            return float(np.dot(fcrr_forward(X, params.replace_tensors([params.weight, z])), up))

        def f_x(z):
            return float(np.dot(fcrr_forward(z, params), up))

        assert finite_diff_check(f_w, params.weight, grads[0]) < 1e-5
        assert finite_diff_check(f_b, params.bias, grads[1]) < 1e-5
        assert finite_diff_check(f_x, X, gx) < 1e-5


def _encoder(kind, dim, rng, dtype):
    if kind == "convrr":
        return init_convrr_params(dim, window=3, scale=0.7, rng=rng, dtype=dtype), convrr_forward
    return init_fcrr_params(dim, scale=0.7, rng=rng, dtype=dtype), fcrr_forward


class TestGroupedEncode:
    LENGTHS = (1, 3, 1, 5, 3)

    @pytest.mark.parametrize("kind", ["convrr", "fcrr"])
    def test_rows_follow_input_order(self, rng, kind):
        # not bitwise: BLAS may round a one-text product (gemv) differently
        # from the same row inside a batch (gemm)
        params, single = _encoder(kind, 4, rng, np.float64)
        texts = [rng.normal(size=(k, 4)) for k in self.LENGTHS]
        out = encode_texts(texts, params)
        assert out.shape == (len(texts), 4)
        for row, x in zip(out, texts):
            assert np.allclose(row, single(x, params), atol=1e-12, rtol=0)

    @pytest.mark.parametrize("kind", ["convrr", "fcrr"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_output_dtype_follows_params(self, rng, kind, dtype):
        params, _ = _encoder(kind, 4, rng, dtype)
        texts = [rng.normal(size=(k, 4)).astype(dtype) for k in self.LENGTHS]
        assert encode_texts(texts, params).dtype == dtype

    def test_no_texts_gives_empty_rows(self, rng):
        params, _ = _encoder("convrr", 4, rng, np.float32)
        assert encode_texts([], params).shape == (0, 4)

    def test_grouped_forward_and_backward(self, rng):
        params, _ = _encoder("convrr", 4, rng, np.float64)
        texts = [rng.normal(size=(k, 4)) for k in self.LENGTHS]
        upstream = rng.normal(size=(len(texts), 4))
        out, groups = grouped_forward(texts, params)
        assert np.array_equal(out, encode_texts(texts, params))
        assert [idxs.tolist() for idxs, _ in groups] == [[0, 2], [1, 4], [3]]
        grads = grouped_backward(params, groups, upstream)
        per_text = [convrr_backward(x, params, g)[0] for x, g in zip(texts, upstream)]
        for got, parts in zip(grads, zip(*per_text)):
            assert np.allclose(got, sum(parts), atol=1e-12, rtol=0)


class TestTokenTexts:
    """Named texts become one table; per-text matrices and tables enter one gather path."""

    @pytest.mark.parametrize("dtype", [None, np.float32])
    @pytest.mark.parametrize("form", ["pairs", "mapping"])
    def test_the_adapter_copies_rows_in_order(self, rng, dtype, form):
        named = [(n, rng.normal(size=(k, 4))) for n, k in [("b", 2), ("a", 1), ("c", 3)]]
        texts = as_token_texts(dict(named) if form == "mapping" else named, "query", dtype)
        assert texts.names == ("b", "a", "c") and texts.kind == "query"
        assert texts.table.dtype == (dtype or np.float64)
        for (_, m), ids in zip(named, texts.ids):
            assert texts.table[ids].tobytes() == m.astype(dtype or m.dtype).tobytes()

    def test_the_adapter_keeps_a_table_already_in_dtype(self, rng):
        table = rng.normal(size=(3, 4)).astype(np.float32)
        texts = TokenTexts(table, [np.array([0, 2])], ["d1"])
        got = as_token_texts(texts, "document", np.float32)
        assert got.table is table and got.name(0) == "document 'd1'"

    def test_texts_sharing_rows_encode_like_their_matrices(self, rng):
        params = init_convrr_params(4, depth=1, window=3, rng=rng)
        table = rng.normal(size=(5, 4)).astype(np.float32)
        ids = [np.array([0, 1, 0]), np.array([4]), np.array([2, 2, 3])]
        got = encode_texts(TokenTexts(table, ids), params)
        assert got.tobytes() == encode_texts([table[i] for i in ids], params).tobytes()

    def test_a_width_mismatch_is_a_shape_error(self, rng):
        params = init_convrr_params(4, depth=1, window=3, rng=rng)
        with pytest.raises(ShapeError, match="text matrices do not concatenate"):
            encode_texts([np.ones((1, 4)), np.ones((1, 3))], params)
        with pytest.raises(ShapeError, match=r"must be \(k, d\)"):
            encode_texts([np.ones(4), np.ones(4)], params)
        with pytest.raises(ShapeError, match=r"^document 'y': matrix of shape \(2, 3\)"):
            as_token_texts({"x": np.ones((1, 4)), "y": np.ones((2, 3))}, "document")

    def test_names_must_match_the_texts(self):
        with pytest.raises(ShapeError, match="1 names for 2 texts"):
            TokenTexts(np.ones((1, 4)), [np.array([0]), np.array([0])], ["a"])

    def test_train_and_evaluate_need_named_texts(self):
        pairs, queries, docs = two_cluster_pairs()
        unnamed = as_token_texts(docs, "document")
        unnamed = TokenTexts(unnamed.table, unnamed.ids)
        with pytest.raises(IntegrityError, match="^document texts carry no ids"):
            train(pairs, queries, unnamed, "convrr", TrainConfig(iterations=1, batch_size=4))
        with pytest.raises(IntegrityError, match="^document texts carry no ids"):
            evaluate(None, list(queries.items()), unnamed, [1], {p.query_id: p.positive_doc_id for p in pairs})

    @pytest.mark.parametrize("kind", ["convrr", "fcrr"])
    def test_a_zero_norm_text_is_named_by_its_input_position(self, rng, kind):
        params = zero_convrr_params(4, depth=1) if kind == "convrr" else init_fcrr_params(4, rng=rng)
        if kind == "fcrr":
            params.weight[:] = 0.0
        texts = [rng.normal(size=(2, 4)), rng.normal(size=(1, 4)), np.zeros((2, 4))]
        with pytest.raises(DegenerateVectorError, match="^text 2: vector norm 0 ") as err:
            encode_texts(texts, params)
        assert err.value.position == 2
        named = as_token_texts(zip("abc", texts), "query")
        with pytest.raises(DegenerateVectorError, match="^query 'c': vector norm 0 ") as err:
            encode_texts(named, params)
        assert err.value.position == 2

    @pytest.mark.parametrize("kind", ["convrr", "fcrr"])
    def test_grouped_forward_at_positions_equals_it_on_the_texts_taken(self, rng, kind):
        params, _ = _encoder(kind, 4, rng, np.float32)
        named = [(f"t{i}", rng.normal(size=(k, 4))) for i, k in enumerate((3, 1, 2, 3, 1, 2, 4))]
        texts = as_token_texts(named, "document", np.float32)
        positions = np.array([5, 0, 6, 2, 3, 1], dtype=np.intp)
        got, got_groups = grouped_forward(texts, params, positions)
        want, want_groups = grouped_forward(take(texts, positions), params)
        assert got.tobytes() == want.tobytes()
        assert all(idxs.dtype == np.intp for idxs, _ in got_groups)
        assert [idxs.tolist() for idxs, _ in got_groups] == [idxs.tolist() for idxs, _ in want_groups]
        assert [cache_bytes(c) for _, c in got_groups] == [cache_bytes(c) for _, c in want_groups]

    @pytest.mark.parametrize("kind", ["convrr", "fcrr"])
    def test_a_zero_norm_text_at_positions_is_named_by_its_batch_position(self, rng, kind):
        params = zero_convrr_params(4, depth=1) if kind == "convrr" else init_fcrr_params(4, rng=rng)
        if kind == "fcrr":
            params.weight[:] = 0.0
        named = [("a", rng.normal(size=(2, 4))), ("b", np.zeros((2, 4))), ("c", rng.normal(size=(1, 4)))]
        texts = as_token_texts(named, "query")
        with pytest.raises(DegenerateVectorError, match="^query 'b': vector norm 0 ") as err:
            grouped_forward(texts, params, np.array([2, 0, 1], dtype=np.intp))
        assert err.value.position == 2  # text 1 sits at batch position 2


def cache_bytes(cache):
    """Each entry of a forward cache as the bytes of its arrays."""
    return {
        key: [np.asarray(a).tobytes() for a in (value if isinstance(value, list) else [value])]
        for key, value in cache.items()
    }


class TestSkippedInputGradient:
    """Training drops the gradient with respect to the inputs, so it is not computed."""

    @pytest.mark.parametrize("kind", ["convrr", "fcrr"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_parameter_gradients_are_unchanged(self, rng, kind, dtype):
        params, _ = _encoder(kind, 6, rng, dtype)
        xs = rng.normal(size=(5, 4, 6)).astype(dtype)
        upstream = rng.normal(size=(5, 6)).astype(dtype)
        _, cache = encoder.forward_many(xs, params)
        full, gx = backward_many(params, cache, upstream)
        skipped, none = backward_many(params, cache, upstream, input_grad=False)
        assert none is None and gx.shape == xs.shape
        assert [g.tobytes() for g in skipped] == [g.tobytes() for g in full]

    def test_grouped_backward_skips_it(self, rng, monkeypatch):
        params, _ = _encoder("convrr", 4, rng, np.float64)
        texts = [rng.normal(size=(k, 4)) for k in (1, 3, 1)]
        _, groups = grouped_forward(texts, params)
        seen = []
        original = encoder.kernels.conv_backward

        def recording(x, w, g, input_grad=True):
            seen.append(input_grad)
            return original(x, w, g, input_grad)

        monkeypatch.setattr(encoder.kernels, "conv_backward", recording)
        grouped_backward(params, groups, rng.normal(size=(3, 4)))
        # per group, the last block's input gradient feeds the first block; the first's is dropped
        assert seen == [True, False, True, False]


class TestTripletLoss:
    def test_violating(self):
        assert triplet_loss(0.5, 1.0, LossConfig(margin=1.0)) == 0.5

    def test_satisfied_clamps(self):
        assert triplet_loss(0.2, 1.5, LossConfig(margin=1.0)) == 0.0

    def test_boundary_is_margin(self):
        assert triplet_loss(0.7, 0.7, LossConfig(margin=1.0)) == 1.0

    def test_nonnegative_and_lipschitz(self, rng):
        cfg = LossConfig(margin=1.0)
        for _ in range(200):
            d_pos, d_neg = rng.uniform(0, 4, size=2)
            eps = float(rng.uniform(-0.01, 0.01))
            base = triplet_loss(d_pos, d_neg, cfg)
            assert base >= 0
            assert abs(triplet_loss(d_pos + eps, d_neg, cfg) - base) <= abs(eps) + 1e-12
            assert abs(triplet_loss(d_pos, d_neg + eps, cfg) - base) <= abs(eps) + 1e-12

    def test_margin_must_be_positive(self):
        with pytest.raises(ConfigError):
            LossConfig(margin=0.0)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def brute_force_mine(anchors, docs, gold):
    """Exhaustive scan with naive per-pair distances."""
    chosen = []
    for a_idx, anchor in enumerate(anchors):
        best = None
        for d_idx, vec in enumerate(docs):
            if d_idx == gold[a_idx]:
                continue
            dist = float(np.sum((anchor - vec) ** 2))
            if best is None or dist < best[0] - 1e-18 or (dist == best[0] and d_idx < best[1]):
                best = (dist, d_idx)
        chosen.append(best[1])
    return chosen


class TestMineHard:
    def test_single_candidate(self):
        anchors = np.array([unit([1, 0, 0])])
        docs = np.array([unit([1, 0.1, 0]), unit([0, 1, 0])])
        negative = mine_hard(anchors, docs[[0]], docs, [0])
        assert negative.dtype == np.intp
        assert negative.tolist() == [1]

    def test_matches_brute_force(self, rng):
        for _ in range(25):
            n_docs = int(rng.integers(2, 9))
            n_anchors = int(rng.integers(1, 5))
            docs = np.array([unit(rng.normal(size=4)) for _ in range(n_docs)])
            gold = np.array([int(rng.integers(0, n_docs)) for _ in range(n_anchors)])
            anchors = np.array([unit(rng.normal(size=4)) for _ in range(n_anchors)])
            negative = mine_hard(anchors, docs[gold], docs, gold)
            assert negative.tolist() == brute_force_mine(anchors, docs, gold)

    def test_tie_breaks_to_lower_index(self):
        anchor = unit([1, 0, 0])
        same = unit([0, 1, 0])
        docs = np.array([unit([1, 0.2, 0]), same, same.copy()])
        assert mine_hard([anchor], docs[[0]], docs, [0]).tolist() == [1]

    def test_satisfied_anchors_kept(self):
        anchor = unit([1, 0, 0])
        docs = np.array([anchor.copy(), unit([-1, 0, 0])])
        negative = mine_hard([anchor], [anchor], docs, [0])
        assert negative.tolist() == [1]  # d_pos + m <= d_neg, still reported

    def test_counts_must_agree(self):
        docs = np.array([unit([1, 0, 0]), unit([0, 1, 0])])
        with pytest.raises(MiningError, match="2 anchors, 1 positives and 2 gold columns"):
            mine_hard(docs, docs[[0]], docs, [0, 1])
        with pytest.raises(MiningError, match="2 anchors, 2 positives and 1 gold columns"):
            mine_hard(docs, docs, docs, [0])

    @pytest.mark.parametrize("col", [-1, 2])
    def test_gold_column_outside_the_documents(self, col):
        docs = np.array([unit([1, 0, 0]), unit([0, 1, 0])])
        with pytest.raises(MiningError, match=f"anchor 1 has gold column {col}, outside"):
            mine_hard(docs, docs, docs, [0, col])

    def test_one_document_has_no_negative(self):
        anchor = unit([1, 0, 0])
        with pytest.raises(MiningError, match="no candidate negative"):
            mine_hard([anchor], [anchor], np.array([anchor]), [0])
        assert mine_hard(np.empty((0, 3)), np.empty((0, 3)), np.empty((0, 3)), []).size == 0

    def test_semi_hard_prefers_farther_than_positive(self):
        anchor = unit([1.0, 0.0, 0.0])
        pos = unit([1.0, 0.5, 0.0])
        closer = unit([1.0, 0.1, 0.0])
        farther = unit([0.0, 1.0, 0.0])
        docs = np.array([pos, closer, farther])
        hard = mine_hard([anchor], [pos], docs, [0])
        semi = mine_hard([anchor], [pos], docs, [0], semi_hard=True)
        assert hard.tolist() == [1]
        assert semi.tolist() == [2]

    def test_semi_hard_falls_back_to_hardest(self):
        anchor = unit([1.0, 0.0])
        pos = unit([0.0, 1.0])  # everything is closer than the positive
        near = unit([1.0, 0.05])
        semi = mine_hard([anchor], [pos], np.array([pos, near]), [0], semi_hard=True)
        assert semi.tolist() == [1]


def two_cluster_pairs(n_pairs=8, dim=6, seed=0, spread=0.05):
    gen = np.random.default_rng(seed)
    centers = np.eye(dim)[:2] * 3
    queries, docs, pairs = {}, {}, []
    for i in range(n_pairs):
        c = centers[i % 2]
        doc = c + gen.normal(0, spread, dim)
        query = c + gen.normal(0, spread, dim)
        docs[f"d{i}"] = doc.astype(np.float32)[None, :]
        queries[f"q{i}"] = query.astype(np.float32)[None, :]
        pairs.append(QaPair(f"q{i}", "", f"d{i}"))
    return pairs, queries, docs


def shared_gold_pairs(*gold):
    """One query per gold document id, over the documents a and b."""
    gen = np.random.default_rng(0)
    queries = {f"q{i}": gen.normal(size=(1, 4)).astype(np.float32) for i in range(len(gold))}
    docs = {d: gen.normal(size=(1, 4)).astype(np.float32) for d in "ab"}
    return [QaPair(f"q{i}", "", d) for i, d in enumerate(gold)], queries, docs


class TestTrain:
    def test_margin_satisfied_dataset_is_bitwise_fixpoint(self):
        dim = 4
        q1 = np.array([[3.0, 0, 0, 0]], dtype=np.float32)
        q2 = np.array([[-3.0, 0, 0, 0]], dtype=np.float32)
        pairs = [QaPair("q1", "", "d1"), QaPair("q2", "", "d2")]
        queries = {"q1": q1, "q2": q2}
        docs = {"d1": q1.copy(), "d2": q2.copy()}
        cfg = TrainConfig(
            iterations=3,
            batch_size=2,
            seed=11,
            adam=AdamConfig(weight_decay=0.0),
        )
        result = train(pairs, queries, docs, "convrr", cfg)
        fresh = init_convrr_params(
            dim,
            depth=cfg.depth,
            window=cfg.window,
            scale=cfg.scale,
            rng=np.random.default_rng(cfg.seed),
        )
        assert all(loss == 0.0 for loss in result.loss_trace)
        assert serialize_params(result.params, "convrr") == serialize_params(fresh, "convrr")

    def test_weight_decay_moves_params_even_when_clamped(self):
        q1 = np.array([[3.0, 0, 0, 0]], dtype=np.float32)
        q2 = np.array([[-3.0, 0, 0, 0]], dtype=np.float32)
        pairs = [QaPair("q1", "", "d1"), QaPair("q2", "", "d2")]
        cfg = TrainConfig(iterations=2, batch_size=2, seed=11, adam=AdamConfig(weight_decay=1e-3))
        result = train(pairs, {"q1": q1, "q2": q2}, {"d1": q1, "d2": q2}, "convrr", cfg)
        fresh = init_convrr_params(
            4, depth=cfg.depth, window=cfg.window, scale=cfg.scale,
            rng=np.random.default_rng(cfg.seed),
        )
        assert serialize_params(result.params, "convrr") != serialize_params(fresh, "convrr")

    def test_seed_determines_trace_bitwise(self):
        pairs, queries, docs = two_cluster_pairs()
        cfg = dict(iterations=4, batch_size=4, adam=AdamConfig(learning_rate=1e-2))
        run_a = train(pairs, queries, docs, "convrr", TrainConfig(seed=3, **cfg))
        run_b = train(pairs, queries, docs, "convrr", TrainConfig(seed=3, **cfg))
        run_c = train(pairs, queries, docs, "convrr", TrainConfig(seed=4, **cfg))
        assert run_a.loss_trace == run_b.loss_trace
        assert serialize_params(run_a.params, "convrr") == serialize_params(run_b.params, "convrr")
        assert run_a.loss_trace != run_c.loss_trace

    def test_loss_decreases_on_separable_data(self):
        pairs, queries, docs = two_cluster_pairs(n_pairs=16, spread=0.4)
        cfg = TrainConfig(
            iterations=30,
            batch_size=8,
            seed=5,
            adam=AdamConfig(learning_rate=1e-2, weight_decay=0.0),
            loss=LossConfig(margin=0.5),
        )
        result = train(pairs, queries, docs, "convrr", cfg)
        assert result.loss_trace[-1] < result.loss_trace[0]

    def test_fcrr_trains(self):
        pairs, queries, docs = two_cluster_pairs()
        cfg = TrainConfig(iterations=3, batch_size=4, seed=2)
        result = train(pairs, queries, docs, "fcrr", cfg)
        assert result.kind == "fcrr"
        assert len(result.loss_trace) == 3

    def test_full_scan_mining_runs(self):
        pairs, queries, docs = two_cluster_pairs()
        cfg = TrainConfig(iterations=2, batch_size=4, seed=2, mining="full_scan")
        result = train(pairs, queries, docs, "convrr", cfg)
        assert len(result.loss_trace) == 2

    @pytest.mark.parametrize("mining", ["batch_hard", "semi_hard"])
    def test_one_document_batch_trains(self, mining):
        """A batch of q0 and q1 holds document a alone; it mines against a and b."""
        data = shared_gold_pairs("a", "a", "b")
        cfg = TrainConfig(iterations=20, batch_size=2, seed=1, mining=mining)
        run_a, run_b = (train(*data, "convrr", cfg) for _ in range(2))
        assert len(run_a.loss_trace) == 20 and np.isfinite(run_a.loss_trace).all()
        assert run_a.loss_trace == run_b.loss_trace
        assert serialize_params(run_a.params, "convrr") == serialize_params(run_b.params, "convrr")

    def test_one_document_batches_mine_as_full_scan(self):
        data = shared_gold_pairs("a", "a")
        cfg = dict(iterations=5, batch_size=2, seed=1)
        hard = train(*data, "convrr", TrainConfig(mining="batch_hard", **cfg))
        full = train(*data, "convrr", TrainConfig(mining="full_scan", **cfg))
        assert hard.loss_trace == full.loss_trace
        assert serialize_params(hard.params, "convrr") == serialize_params(full.params, "convrr")

    def test_single_document_rejected(self):
        q = np.ones((1, 3), dtype=np.float32)
        with pytest.raises(DatasetError):
            train(
                [QaPair("q", "", "d")],
                {"q": q},
                {"d": q},
                "convrr",
                TrainConfig(iterations=1, batch_size=2),
            )

    def test_repeated_query_id_rejected(self):
        """A query's second positive could be mined as its first pair's negative."""
        pairs, queries, docs = two_cluster_pairs()
        pairs.append(QaPair("q3", "", "d5"))
        with pytest.raises(IntegrityError, match="query id 'q3' repeats"):
            train(pairs, queries, docs, "convrr", TrainConfig(iterations=1, batch_size=4))

    def test_shared_weights_across_branches(self):
        """Query and doc branches serialize to the same parameter bytes."""
        pairs, queries, docs = two_cluster_pairs()
        cfg = TrainConfig(iterations=2, batch_size=4, seed=9)
        result = train(pairs, queries, docs, "convrr", cfg)
        one = serialize_params(result.params, "convrr")
        again = serialize_params(result.params, "convrr")
        assert one == again


def take(texts, positions):
    """The TokenTexts at ``positions``, one list entry per text."""
    names = [texts.names[i] for i in positions]
    return TokenTexts(texts.table, [texts.ids[i] for i in positions], names, texts.kind)


def reference_train(pairs, query_matrices, doc_matrices, kind, cfg):
    """``train``'s loop written with per-pair bookkeeping, as a reference.

    Batch documents come from ``dict.fromkeys`` over the positives, each
    pair's positive from a column dict, and each batch's texts from
    ``take`` and ``grouped_forward``; the arithmetic is ``train``'s.
    Returns the loss trace, the active fractions and the final parameters.
    """
    queries = as_token_texts(query_matrices, "query", np.float32)
    docs = as_token_texts(doc_matrices, "document", np.float32)
    query_pos = {qid: i for i, qid in enumerate(queries.names)}
    doc_pos = {did: i for i, did in enumerate(docs.names)}
    rng = np.random.default_rng(cfg.seed)
    dim = docs.table.shape[1]
    if kind == "convrr":
        params = init_convrr_params(
            dim, depth=cfg.depth, window=cfg.window, scale=cfg.scale, rng=rng
        )
    else:
        params = init_fcrr_params(dim, scale=cfg.scale, rng=rng)
    tensors = params.tensors()
    states = [AdamState.zeros_like(t) for t in tensors]
    batch_size = min(cfg.batch_size, len(pairs))
    order, cursor = rng.permutation(len(pairs)), 0
    losses_trace, fractions = [], []
    for _ in range(cfg.iterations):
        if cursor + batch_size > len(pairs):
            order, cursor = rng.permutation(len(pairs)), 0
        batch = [pairs[i] for i in order[cursor:cursor + batch_size]]
        cursor += batch_size
        batch_doc_ids = list(dict.fromkeys(p.positive_doc_id for p in batch))
        if cfg.mining == "full_scan" or len(batch_doc_ids) < 2:
            batch_doc_ids = list(doc_pos)
        query_texts = take(queries, [query_pos[p.query_id] for p in batch])
        doc_texts = take(docs, [doc_pos[d] for d in batch_doc_ids])
        anchors, query_groups = grouped_forward(query_texts, params)
        doc_outs, doc_groups = grouped_forward(doc_texts, params)
        column = {did: i for i, did in enumerate(batch_doc_ids)}
        positive = np.array([column[p.positive_doc_id] for p in batch], dtype=np.intp)
        negative = mine_hard(
            anchors, doc_outs[positive], doc_outs, positive, semi_hard=cfg.mining == "semi_hard"
        )
        losses, active, g_anchor, g_doc = triplet_step(
            anchors, doc_outs, positive, negative, cfg.loss
        )
        losses_trace.append(float(np.mean(losses)))
        fractions.append(active / len(batch))
        grads = grouped_backward(params, query_groups, g_anchor)
        grads = [g + dg for g, dg in zip(grads, grouped_backward(params, doc_groups, g_doc))]
        for i, grad in enumerate(grads):
            tensors[i], states[i] = adam_step(tensors[i], grad, states[i], cfg.adam)
        params = params.replace_tensors(tensors)
    return losses_trace, fractions, params


def two_length_pairs(n_pairs=12, dim=6, seed=0):
    """Queries of 1 and 3 positions and documents of 2 and 4, some documents shared."""
    gen = np.random.default_rng(seed)
    queries, docs = {}, {}
    for i in range(n_pairs):
        queries[f"q{i}"] = gen.normal(size=(1 + 2 * (i % 2), dim)).astype(np.float32)
        docs[f"d{i}"] = gen.normal(size=(2 + 2 * (i % 3 == 0), dim)).astype(np.float32)
    pairs = [QaPair(f"q{i}", "", f"d{i // 2 if i % 3 else i}") for i in range(n_pairs)]
    return pairs, queries, docs


class TestTrainMatchesTheReferenceLoop:
    """Index-array batches give the per-pair loop's loss traces, active fractions and bytes."""

    CASES = {
        "two_clusters": lambda: two_cluster_pairs(n_pairs=16, spread=0.4),
        "one_document_batch": lambda: shared_gold_pairs("a", "a", "b"),
        "repeated_positives": lambda: shared_gold_pairs("a", "b", "a", "a", "b", "b", "a"),
        "two_lengths": two_length_pairs,
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    @pytest.mark.parametrize("mining", ["batch_hard", "semi_hard", "full_scan"])
    @pytest.mark.parametrize("kind", ["convrr", "fcrr"])
    def test_same_traces_and_parameter_bytes(self, case, mining, kind):
        pairs, queries, docs = self.CASES[case]()
        batch_size = 2 if case == "one_document_batch" else 5
        cfg = TrainConfig(
            iterations=7, batch_size=batch_size, seed=3, mining=mining,
            adam=AdamConfig(learning_rate=1e-2), loss=LossConfig(margin=0.5),
        )
        got = train(pairs, queries, docs, kind, cfg)
        trace, fractions, params = reference_train(pairs, queries, docs, kind, cfg)
        assert got.loss_trace == trace
        assert got.active_fractions == fractions
        assert serialize_params(got.params, kind) == serialize_params(params, kind)

    @pytest.mark.parametrize("kind", ["convrr", "fcrr"])
    def test_each_length_group_is_one_call_of_the_module_forward(self, kind, monkeypatch):
        """perfbench's ``encoder.forward`` spans wrap ``encoder.forward_many`` and count its calls."""
        pairs, queries, docs = two_length_pairs()
        shapes = []
        forward_many = encoder.forward_many

        def recording(xs, params):
            shapes.append(xs.shape[:2])
            return forward_many(xs, params)

        monkeypatch.setattr(encoder, "forward_many", recording)
        train(pairs, queries, docs, kind, TrainConfig(iterations=1, batch_size=len(pairs)))
        # the batch holds every pair: 6 queries of 1 position and 6 of 3, then
        # its 8 distinct positives, 4 of 2 positions and 4 of 4
        assert shapes == [(6, 1), (6, 3), (4, 2), (4, 4)]


class TestMeanEmbeddingBaseline:
    def test_matches_zero_weight_encoder(self, rng):
        X = rng.normal(size=(4, 6)).astype(np.float32)
        params = zero_convrr_params(6)
        assert np.allclose(convrr_forward(X, params), mean_embedding_encode(X), atol=1e-7)
