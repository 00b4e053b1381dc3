"""Tokenization, document frequencies, and the QA pair loader."""

import math

import pytest
from hypothesis import given, strategies as st

from multires.corpus import (
    Document,
    build_idf,
    load_corpus,
    load_idf,
    load_qa_pairs,
    lookup_idf,
    save_idf,
    tokenize,
)
from multires.errors import EmptyCorpusError, IntegrityError, ParseError


class TestTokenize:
    def test_sentence(self):
        assert tokenize("Java is an island.") == ["java", "is", "an", "island"]

    def test_empty(self):
        assert tokenize("") == []

    def test_intra_token_punctuation_is_lossy(self):
        assert tokenize("C++ vs. Java!") == ["c", "vs", "java"]

    def test_unicode_whitespace_and_digits(self):
        assert tokenize("café 42") == ["café", "42"]


class TestBuildIdf:
    def test_two_doc_example(self):
        table = build_idf([Document("1", "a b"), Document("2", "a c")])
        assert table.num_documents == 2
        assert table.entries["a"] == (2, 0.0)
        assert abs(table.entries["b"][1] - math.log(2)) < 1e-12
        assert abs(table.entries["c"][1] - math.log(2)) < 1e-12

    def test_everywhere_token_idf_zero(self):
        table = build_idf([Document(str(i), f"shared w{i}") for i in range(5)])
        assert table.entries["shared"][1] == 0.0

    def test_rare_token(self):
        table = build_idf([Document(str(i), "x" if i else "x rare") for i in range(4)])
        df, idf = table.entries["rare"]
        assert df == 1 and abs(idf - math.log(4)) < 1e-12

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpusError):
            build_idf([])

    def test_duplicate_tokens_in_one_doc_count_once(self):
        table = build_idf([Document("1", "echo echo echo"), Document("2", "other")])
        assert table.entries["echo"][0] == 1

    def test_entries_match_one_log_per_token(self):
        """One log per distinct df gives each token's own log's entries, order and bits."""
        texts = ["a b a c", "b c d", "a e e", "b", "c a", "f g f", "d e", "b c a"]
        docs = [Document(str(i), t) for i, t in enumerate(texts)]
        n, df = len(docs), {}
        for doc in docs:
            for token in set(tokenize(doc.text)):
                df[token] = df.get(token, 0) + 1
        expected = [(tok, count, math.log(n / count).hex()) for tok, count in df.items()]
        got = [(tok, count, idf.hex()) for tok, (count, idf) in build_idf(docs).entries.items()]
        assert got == expected and len(set(df.values())) < len(df)

    @given(st.lists(st.text(alphabet="abc ", min_size=1, max_size=12), min_size=1, max_size=8))
    def test_permutation_invariant(self, texts):
        docs = [Document(str(i), t) for i, t in enumerate(texts)]
        table = build_idf(docs)
        table_rev = build_idf(list(reversed(docs)))
        assert table.entries == table_rev.entries

    @given(
        st.lists(
            st.lists(st.sampled_from(["red", "green", "blue", "cyan"]), min_size=1, max_size=6),
            min_size=1,
            max_size=10,
        )
    )
    def test_df_idf_consistency(self, token_lists):
        docs = [Document(str(i), " ".join(toks)) for i, toks in enumerate(token_lists)]
        table = build_idf(docs)
        for df, idf in table.entries.values():
            assert 1 <= df <= table.num_documents
            assert abs(math.exp(idf) * df - table.num_documents) / table.num_documents < 1e-9


class TestLookupIdf:
    def test_known_token(self):
        table = build_idf([Document("1", "a b"), Document("2", "a c")])
        assert lookup_idf(table, "b") == table.entries["b"][1]

    def test_oov_default(self):
        table = build_idf([Document(str(i), "w") for i in range(4)])
        assert abs(lookup_idf(table, "nope") - math.log(4)) < 1e-12

    def test_single_doc_corpus(self):
        table = build_idf([Document("1", "only words here")])
        assert lookup_idf(table, "only") == 0.0


class TestIdfRoundTrip:
    def test_tsv_round_trip(self, tmp_path):
        table = build_idf([Document("1", "a b"), Document("2", "a c d"), Document("3", "a")])
        path = tmp_path / "idf.tsv"
        save_idf(table, str(path))
        loaded = load_idf(str(path))
        assert loaded.num_documents == table.num_documents
        assert loaded.entries == table.entries

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "idf.tsv"
        path.write_text("N=2\n")
        with pytest.raises(ParseError):
            load_idf(str(path))

    def test_inconsistent_idf_rejected(self, tmp_path):
        path = tmp_path / "idf.tsv"
        path.write_text("#N=4\nword\t2\t0.125\n")
        with pytest.raises(ParseError) as err:
            load_idf(str(path))
        assert err.value.line == 2

    def test_df_out_of_range_rejected(self, tmp_path):
        path = tmp_path / "idf.tsv"
        path.write_text("#N=4\nword\t5\t0.0\n")
        with pytest.raises(ParseError):
            load_idf(str(path))

    @pytest.mark.parametrize("count", ["0", "-1"])
    def test_document_count_below_one_rejected(self, tmp_path, count):
        path = tmp_path / "idf.tsv"
        path.write_text(f"#N={count}\n")
        with pytest.raises(ParseError, match="not an integer >= 1") as err:
            load_idf(str(path))
        assert err.value.line == 1

    def test_token_listed_twice_rejected_at_its_second_line(self, tmp_path):
        ln2 = repr(math.log(2))
        path = tmp_path / "idf.tsv"
        path.write_text(f"#N=2\na\t1\t{ln2}\nb\t1\t{ln2}\na\t2\t0.0\n")
        with pytest.raises(ParseError, match="'a' is listed twice") as err:
            load_idf(str(path))
        assert err.value.line == 4


class TestLoaders:
    def test_load_corpus_and_pairs(self, tmp_path):
        corpus_path = tmp_path / "c.jsonl"
        corpus_path.write_text('{"id": "d1", "text": "hello"}\n{"id": "d2", "text": "bye"}\n')
        docs = load_corpus(str(corpus_path))
        assert [d.id for d in docs] == ["d1", "d2"]

        pairs_path = tmp_path / "p.jsonl"
        pairs_path.write_text('{"query_id": "q1", "query_text": "hi", "positive_doc_id": "d1"}\n')
        pairs = load_qa_pairs(str(pairs_path), docs)
        assert pairs[0].positive_doc_id == "d1"

    def test_missing_field_names_line(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text(
            '{"query_id": "q1", "query_text": "hi", "positive_doc_id": "d1"}\n'
            '{"query_id": "q2", "query_text": "yo"}\n'
        )
        docs = [Document("d1", "x")]
        with pytest.raises(ParseError) as err:
            load_qa_pairs(str(path), docs)
        assert err.value.line == 2

    @pytest.mark.parametrize(
        "line", ["5", "null", '"query_id query_text positive_doc_id"'], ids=["int", "null", "str"]
    )
    @pytest.mark.parametrize(
        "first, load",
        [
            ('{"id": "d1", "text": "x"}', load_corpus),
            (
                '{"query_id": "q1", "query_text": "hi", "positive_doc_id": "d1"}',
                lambda path: load_qa_pairs(path, [Document("d1", "x")]),
            ),
        ],
        ids=["corpus", "qa_pairs"],
    )
    def test_non_object_line_names_line(self, tmp_path, line, first, load):
        path = tmp_path / "f.jsonl"
        path.write_text(f"{first}\n{line}\n")
        with pytest.raises(ParseError, match="JSON object") as err:
            load(str(path))
        assert err.value.line == 2

    def test_repeated_query_id_needs_the_same_text(self, tmp_path):
        path = tmp_path / "p.jsonl"
        line = '{"query_id": "q1", "query_text": "%s", "positive_doc_id": "%s"}\n'
        docs = [Document("d1", "x"), Document("d2", "y")]
        path.write_text(line % ("hi", "d1") + line % ("hi", "d2"))  # two positives for q1
        pairs = load_qa_pairs(str(path), docs)
        assert [(p.query_id, p.positive_doc_id) for p in pairs] == [("q1", "d1"), ("q1", "d2")]

        path.write_text(line % ("hi", "d1") + line % ("yo", "d2"))
        with pytest.raises(ParseError, match="'q1' repeats with a different query_text") as err:
            load_qa_pairs(str(path), docs)
        assert err.value.line == 2

    def test_dangling_doc_id_names_it(self, tmp_path):
        path = tmp_path / "p.jsonl"
        path.write_text('{"query_id": "q1", "query_text": "hi", "positive_doc_id": "ghost"}\n')
        with pytest.raises(IntegrityError, match="ghost"):
            load_qa_pairs(str(path), [Document("d1", "x")])

    def test_malformed_json_names_line(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "text": "ok"}\n{oops\n')
        with pytest.raises(ParseError) as err:
            load_corpus(str(path))
        assert err.value.line == 2

    def test_duplicate_doc_id_rejected(self, tmp_path):
        path = tmp_path / "c.jsonl"
        path.write_text('{"id": "d1", "text": "a"}\n{"id": "d1", "text": "b"}\n')
        with pytest.raises(ParseError):
            load_corpus(str(path))
