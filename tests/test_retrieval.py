"""Index construction, exact search, recall@k, and evaluation."""

import json
import re

import numpy as np
import pytest

from multires.errors import (
    ContractError,
    DegenerateVectorError,
    DuplicateIdError,
    EmptyIndexError,
    IntegrityError,
    ShapeError,
)
from multires.model import encoder, init_convrr_params, zero_convrr_params
from multires.model.encoder import TokenTexts, encode_texts, mean_embedding_encode
from multires.retrieval import (
    EvalReport,
    RetrievalIndex,
    build_index,
    evaluate,
    recall_at_k,
    search,
)


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_unit_docs(rng, n, dim=6):
    return [(f"d{i}", unit(rng.normal(size=dim))) for i in range(n)]


class TestBuildIndex:
    def test_preserves_order(self, rng):
        docs = random_unit_docs(rng, 3)
        index = build_index(docs)
        assert index.ids == ("d0", "d1", "d2")

    def test_duplicate_id_named(self, rng):
        docs = [("dup", unit(rng.normal(size=4))), ("dup", unit(rng.normal(size=4)))]
        with pytest.raises(DuplicateIdError, match="dup"):
            build_index(docs)

    def test_empty_rejected(self):
        with pytest.raises(EmptyIndexError):
            build_index([])

    def test_dim_mismatch(self, rng):
        docs = [("a", unit(rng.normal(size=4))), ("b", unit(rng.normal(size=5)))]
        with pytest.raises(ShapeError):
            build_index(docs)

    def test_non_unit_rejected(self, rng):
        with pytest.raises(ContractError):
            build_index([("a", np.array([2.0, 0.0]))])


class TestRetrievalIndex:
    """The one constructor checks every index, whoever builds it."""

    def test_keeps_a_read_only_block_without_copying(self):
        block = np.eye(3, dtype=np.float32)
        block.flags.writeable = False
        index = RetrievalIndex(("a", "b", "c"), block)
        assert index.vectors is block
        assert [d for d, _ in search(index, block[1], k=1)] == ["b"]

    def test_empty_rejected(self):
        with pytest.raises(EmptyIndexError):
            RetrievalIndex((), np.zeros((0, 3)))

    @pytest.mark.parametrize("shape", [(3,), (2, 3), (4, 3), (3, 1, 3)])
    def test_block_that_is_not_one_row_per_id_rejected(self, shape):
        with pytest.raises(ShapeError, match=re.escape(f"vectors of shape {shape} for 3")):
            RetrievalIndex(("a", "b", "c"), np.ones(shape))

    def test_first_duplicate_id_named(self):
        with pytest.raises(DuplicateIdError, match="duplicate document id 'b'"):
            RetrievalIndex(("a", "b", "b", "c", "c"), np.eye(5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_first_non_finite_row_named(self, bad):
        block = np.eye(3)
        block[1:, 0] = bad
        with pytest.raises(ContractError, match="vector for 'b' is non-finite"):
            RetrievalIndex(("a", "b", "c"), block)

    def test_first_non_unit_row_named(self):
        block = np.eye(3) * [[1.0], [2.0], [3.0]]
        with pytest.raises(ContractError, match="vector for 'b' has norm 2.0, expected unit"):
            RetrievalIndex(("a", "b", "c"), block)

class TestSearch:
    def test_exact_match_first(self, rng):
        docs = random_unit_docs(rng, 5)
        index = build_index(docs)
        ranked = search(index, docs[2][1], k=3)
        assert ranked[0][0] == "d2"
        assert ranked[0][1] == 0.0

    def test_k_larger_than_index(self, rng):
        docs = random_unit_docs(rng, 4)
        ranked = search(build_index(docs), docs[0][1], k=100)
        assert len(ranked) == 4

    def test_matches_full_sort_oracle(self, rng):
        docs = random_unit_docs(rng, 20)
        index = build_index(docs)
        query = unit(rng.normal(size=6))
        ranked = search(index, query, k=5)
        # oracle: per-pair distances, stable full sort, take the prefix
        dists = [float(np.sum((vec - query) ** 2)) for _, vec in docs]
        oracle = sorted(range(20), key=lambda i: (dists[i], i))[:5]
        assert [doc_id for doc_id, _ in ranked] == [docs[i][0] for i in oracle]
        assert [dist for _, dist in ranked] == [dists[i] for i in oracle]

    def test_prefix_consistency(self, rng):
        docs = random_unit_docs(rng, 30)
        index = build_index(docs)
        query = unit(rng.normal(size=6))
        top3 = [d for d, _ in search(index, query, k=3)]
        top10 = [d for d, _ in search(index, query, k=10)]
        assert top10[:3] == top3

    def test_dim_mismatch(self, rng):
        index = build_index(random_unit_docs(rng, 3))
        with pytest.raises(ShapeError):
            search(index, unit(rng.normal(size=9)), k=1)


class TestRecallAtK:
    def test_gold_always_first(self):
        rankings = {"q1": ["a", "b"], "q2": ["c", "d"]}
        gold = {"q1": "a", "q2": "c"}
        assert recall_at_k(rankings, gold, 1) == 1.0

    def test_gold_at_rank_three(self):
        rankings = {f"q{i}": ["x", "y", "gold", "z"] for i in range(4)}
        gold = {f"q{i}": "gold" for i in range(4)}
        assert recall_at_k(rankings, gold, 1) == 0.0
        assert recall_at_k(rankings, gold, 3) == 1.0

    def test_hand_counted_mixed_fixture(self):
        """Gold at ranks 1, 2, 4, 6: two of four queries hit within k=3."""
        docs = [f"d{i}" for i in range(8)]

        def ranking_with_gold_at(rank):
            rest = [d for d in docs if d != "gold"]
            return rest[: rank - 1] + ["gold"] + rest[rank - 1 :]

        rankings = {
            "q1": ranking_with_gold_at(1),
            "q2": ranking_with_gold_at(2),
            "q3": ranking_with_gold_at(4),
            "q4": ranking_with_gold_at(6),
        }
        gold = {q: "gold" for q in rankings}
        assert recall_at_k(rankings, gold, 3) == 0.5

    def test_missing_gold_rejected(self):
        with pytest.raises(IntegrityError):
            recall_at_k({"q1": ["a"]}, {}, 1)

    def test_gold_may_be_a_collection_of_ids(self):
        rankings = {"q1": ["a", "b", "c"], "q2": ["c", "d", "e"], "q3": ["f", "g"]}
        gold = {"q1": ["x", "b"], "q2": ("e",), "q3": "f"}
        assert recall_at_k(rankings, gold, 1) == 1 / 3
        assert recall_at_k(rankings, gold, 2) == 2 / 3
        assert recall_at_k(rankings, gold, 3) == 1.0
        assert recall_at_k(rankings, {"q1": [], "q2": [], "q3": []}, 3) == 0.0

    def test_monotone_in_k(self, rng):
        docs = [f"d{i}" for i in range(10)]
        rankings = {}
        gold = {}
        for q in range(6):
            perm = list(rng.permutation(docs))
            rankings[f"q{q}"] = perm
            gold[f"q{q}"] = perm[int(rng.integers(0, 10))]
        values = [recall_at_k(rankings, gold, k) for k in range(1, 11)]
        assert all(a <= b for a, b in zip(values, values[1:]))
        assert values[-1] == 1.0


class TestEvaluate:
    def _clustered(self, rng, n_docs=6, dim=5):
        docs = []
        queries = []
        gold = {}
        for i in range(n_docs):
            base = rng.normal(size=dim)
            docs.append((f"d{i}", base.astype(np.float32)[None, :]))
            q = base + rng.normal(0, 0.05, size=dim)
            queries.append((f"q{i}", q.astype(np.float32)[None, :]))
            gold[f"q{i}"] = f"d{i}"
        return queries, docs, gold

    def test_zero_weight_encoder_equals_baseline(self, rng):
        queries, docs, gold = self._clustered(rng)
        report_zero = evaluate(zero_convrr_params(5), queries, docs, [1, 3], gold)
        report_base = evaluate(None, queries, docs, [1, 3], gold)
        assert report_zero.recalls == report_base.recalls

    def test_monotone_recalls(self, rng):
        queries, docs, gold = self._clustered(rng)
        report = evaluate(None, queries, docs, [1, 3, 5], gold)
        assert report.recalls[1] <= report.recalls[3] <= report.recalls[5]

    def test_scale_zero_parameter_independence(self, rng):
        queries, docs, gold = self._clustered(rng)
        p1 = init_convrr_params(5, scale=0.0, rng=np.random.default_rng(1))
        p2 = init_convrr_params(5, scale=0.0, rng=np.random.default_rng(2))
        r1 = evaluate(p1, queries, docs, [1, 3], gold)
        r2 = evaluate(p2, queries, docs, [1, 3], gold)
        assert r1.recalls == r2.recalls

    def test_candidate_list_mode(self, rng):
        queries, docs, gold = self._clustered(rng)
        # restrict one query to candidates that exclude its gold
        candidates = {"q0": ["d1", "d2"]}
        full = evaluate(None, queries, docs, [1], gold)
        restricted = evaluate(None, queries, docs, [1], gold, candidates=candidates)
        assert restricted.recalls[1] <= full.recalls[1]

    def test_a_query_with_two_positives_counts_once(self):
        # q0's positives are d0 and d1, and its top-1 is d0; q1's is d2
        rows = np.array([[1, 0, 0], [0, 1, 0], [0, 0, 1], [1, 0.1, 0]], dtype=np.float32)[:, None]
        docs = [("d0", rows[0]), ("d1", rows[1]), ("d2", rows[2])]
        queries = [("q0", rows[3]), ("q1", rows[2])]
        report = evaluate(None, queries, docs, [1], {"q0": ["d0", "d1"], "q1": "d2"})
        assert report.num_queries == 2
        assert report.recalls == {1: 1.0}

    def test_repeated_query_id_rejected(self):
        m = np.ones((1, 3), dtype=np.float32)
        queries = [("q0", m), ("q1", m), ("q0", m)]
        with pytest.raises(IntegrityError, match="query id 'q0' repeats"):
            evaluate(None, queries, [("d0", m)], [1], {"q0": "d0", "q1": "d0"})

    def test_candidate_list_with_a_repeated_document_rejected(self, rng):
        queries, docs, gold = self._clustered(rng)
        with pytest.raises(DuplicateIdError, match="'d1'"):
            evaluate(None, queries, docs, [1], gold, candidates={"q0": ["d1", "d1"]})

    def test_unknown_candidate_rejected(self, rng):
        queries, docs, gold = self._clustered(rng)
        with pytest.raises(IntegrityError):
            evaluate(None, queries, docs, [1], gold, candidates={"q0": ["ghost"]})

    def test_report_json_shape(self):
        report = EvalReport(num_queries=4, recalls={1: 0.25, 3: 0.5, 5: 1.0})
        payload = json.loads(report.to_json())
        assert payload == {"num_queries": 4, "recall": {"1": 0.25, "3": 0.5, "5": 1.0}}


class TestMeanEmbeddingBaseline:
    """``evaluate(None, ...)`` encodes by length group through ``encode_texts(texts, None)``."""

    @staticmethod
    def _texts(rng, n=40, dim=16):
        lengths = rng.integers(1, 6, size=n)
        table = rng.normal(size=(int(lengths.sum()) + 3, dim)).astype(np.float32)
        ids = [rng.integers(0, len(table), size=k) for k in lengths]
        return TokenTexts(table, ids, [f"d{i}" for i in range(n)], "document")

    @pytest.mark.parametrize("cells", [None, 5 * 16])
    def test_rows_equal_each_text_encoded_alone(self, rng, cells, monkeypatch):
        texts = self._texts(rng)
        if cells is not None:  # length groups run in parts of at most 5 one-token texts
            monkeypatch.setattr(encoder, "ENCODE_CELLS", cells)
        want = np.array([mean_embedding_encode(texts.table[i]) for i in texts.ids])
        got = encode_texts(texts, None)
        assert got.dtype == np.float32 and got.tobytes() == want.tobytes()
        matrices = [texts.table[i] for i in texts.ids]
        assert encode_texts(matrices, None).tobytes() == want.tobytes()

    def test_a_zero_norm_document_is_named(self):
        docs = [("d1", np.ones((2, 3), dtype=np.float32)), ("d2", np.zeros((2, 3), dtype=np.float32))]
        queries = [("q1", np.ones((1, 3), dtype=np.float32))]
        with pytest.raises(DegenerateVectorError, match=r"^document 'd2': vector norm 0 ") as info:
            evaluate(None, queries, docs, [1], {"q1": "d1"})
        assert info.value.position == 1
