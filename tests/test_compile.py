"""compile_texts: a run's texts as one composed table of distinct tokens plus row ids."""

import itertools

import numpy as np
import pytest

from multires.corpus import Document, build_idf
from multires.embedding import compose as compose_mod
from multires.embedding.compose import compile_texts, compose_text
from multires.embedding.specs import AGGREGATORS, EnsembleSpec, MixtureSpec
from multires.embedding.stores import ContextFreeStore
from multires.errors import EmptyTextError, MissingModelError

WORDS = [f"w{i}" for i in range(12)]
GHOSTS = ["ghost0", "ghost1", "ghost2", "ghost3"]  # in no store


def _stores(dtype=np.float32):
    rng = np.random.default_rng(7)

    def store(model_id, num_layers, dim, words):
        rows = rng.normal(size=(len(words), num_layers, dim)).astype(dtype)
        return ContextFreeStore(model_id, num_layers, dim, tokens=words, rows=rows)

    # store b lacks every other word, so those words resolve in store a only
    return {"a": store("a", 3, 4, WORDS), "b": store("b", 2, 3, WORDS[::2])}


def _texts():
    """Texts whose first three distinct tokens resolve nowhere, then random words and ghosts."""
    rng = np.random.default_rng(11)
    texts = [GHOSTS[:3] + ["w1"], ["w0"]]
    for _ in range(30):
        pool = WORDS + GHOSTS
        texts.append([pool[i] for i in rng.integers(0, len(pool), size=rng.integers(1, 7))])
    return [t for t in texts if set(t) - set(GHOSTS)]  # every text resolves somewhere


def _idf():
    return build_idf([Document(str(i), " ".join(WORDS[: i + 2])) for i in range(len(WORDS) - 1)])


# one negative mixture weight per model: a token missing from a store then
# composes to -0.0 in some segments, not to +0.0
WEIGHTS = {"a": (-0.25, 0.0, 1.25), "b": (1.5, -0.5)}


@pytest.mark.parametrize("scale_segments", [True, False])
@pytest.mark.parametrize("idf_a, idf_b", [(True, True), (True, False), (False, True), (False, False)])
@pytest.mark.parametrize("ens_agg", AGGREGATORS)
@pytest.mark.parametrize("agg_a, agg_b", list(itertools.product(AGGREGATORS, repeat=2)))
def test_table_rows_are_compose_text_rows(
    agg_a, agg_b, ens_agg, idf_a, idf_b, scale_segments, monkeypatch
):
    monkeypatch.setattr(compose_mod, "COMPILE_TOKENS", 3)  # many chunks, the first unresolved
    mixtures = (
        MixtureSpec("a", WEIGHTS["a"], agg_a, use_idf=idf_a, scale_segments=scale_segments),
        MixtureSpec("b", WEIGHTS["b"], agg_b, use_idf=idf_b, scale_segments=scale_segments),
    )
    spec = EnsembleSpec.normalized(mixtures, (1.0, 3.0), ens_agg)
    stores, idf, texts = _stores(), _idf(), _texts()
    table, ids = compile_texts(texts, stores, spec, idf)
    assert table.dtype == np.float32 and len(ids) == len(texts)
    assert table.shape[0] == len({t for text in texts for t in text})
    for tokens, row_ids in zip(texts, ids):
        assert row_ids.dtype == np.intp
        assert table[row_ids].tobytes() == compose_text(tokens, stores, spec, idf).tobytes()


def test_float64_stores_compile_to_their_float32_cast():
    stores = _stores(np.float64)
    spec = EnsembleSpec.normalized((MixtureSpec("a", WEIGHTS["a"], "sum", use_idf=True),), (1.0,), "sum")
    texts = _texts()
    table, ids = compile_texts(texts, stores, spec, _idf())
    for tokens, row_ids in zip(texts, ids):
        expected = compose_text(tokens, stores, spec, _idf()).astype(np.float32)
        assert table[row_ids].tobytes() == expected.tobytes()


def _spec():
    return EnsembleSpec.normalized(
        (MixtureSpec("a", WEIGHTS["a"], "sum"), MixtureSpec("b", WEIGHTS["b"], "sum")),
        (1.0, 1.0), "concatenate",
    )


@pytest.mark.parametrize("unresolved", [["ghost0", "ghost1"], []])
def test_a_text_that_resolves_nowhere_is_named_by_position(unresolved):
    texts = [["w0"], ["w1", "ghost0"], unresolved, ["ghost2"]]
    with pytest.raises(EmptyTextError, match="^text 2: no token of the text resolves") as err:
        compile_texts(texts, _stores(), _spec(), _idf())
    assert err.value.position == 2


def test_a_missing_store_is_named():
    with pytest.raises(MissingModelError, match="no store for model 'b'"):
        compile_texts([["w0"]], {"a": _stores()["a"]}, _spec(), _idf())


def test_no_texts_give_an_empty_table():
    table, ids = compile_texts([], _stores(), _spec(), _idf())
    assert table.shape == (0, 7) and ids == []
