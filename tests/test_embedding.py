"""Mixture/ensemble algebra and text composition."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import multires.embedding.compose as compose_mod
from multires.corpus import Document, IdfTable, build_idf, lookup_idf
from multires.embedding import (
    ContextFreeStore,
    EnsembleSpec,
    LayeredTokenEmbedding,
    MixtureSpec,
    compose_text,
    compose_token,
    composed_dim,
    ensemble,
    mix_layers,
    parse_spec_file,
)
from multires.embedding.specs import AGGREGATORS
from multires.embedding.stores import ContextualStore
from multires.errors import EmptyTextError, MissingModelError, ParseError, ShapeError, SpecError


def one_model_spec(model_id, weights, aggregator, use_idf=False, u=(1.0,)):
    mix = MixtureSpec(model_id=model_id, weights=weights, aggregator=aggregator, use_idf=use_idf)
    return EnsembleSpec.normalized((mix,), u, "concatenate")


class TestMixLayers:
    def test_last_layer_selection_with_idf(self, rng):
        layers = rng.normal(size=(3, 5))
        emb = LayeredTokenEmbedding("elmoish", layers)
        spec = MixtureSpec("elmoish", (0.0, 0.0, 1.0), "sum", use_idf=True)
        out = mix_layers(emb, spec, idf_weight=2.0)
        assert np.allclose(out, 2.0 * layers[2], atol=1e-15)

    def test_scale_then_join(self):
        emb = LayeredTokenEmbedding("m", np.array([[1.0, 2.0], [3.0, 4.0]]))
        spec = MixtureSpec("m", (0.5, 0.5), "concatenate")
        assert np.allclose(mix_layers(emb, spec), [0.5, 1.0, 1.5, 2.0], atol=1e-15)

    def test_one_hot_sum_is_selection_identity(self, rng):
        layers = rng.normal(size=(4, 3))
        emb = LayeredTokenEmbedding("m", layers)
        for hot in range(4):
            weights = tuple(1.0 if i == hot else 0.0 for i in range(4))
            out = mix_layers(emb, MixtureSpec("m", weights, "sum"))
            assert np.array_equal(out, layers[hot])

    def test_average_divides_by_layer_count(self, rng):
        layers = rng.normal(size=(2, 3))
        emb = LayeredTokenEmbedding("m", layers)
        out = mix_layers(emb, MixtureSpec("m", (0.5, 0.5), "average"))
        assert np.allclose(out, (0.5 * layers[0] + 0.5 * layers[1]) / 2, atol=1e-15)

    def test_concatenate_drops_zero_weight_layers(self, rng):
        layers = rng.normal(size=(3, 2))
        emb = LayeredTokenEmbedding("m", layers)
        out = mix_layers(emb, MixtureSpec("m", (0.5, 0.0, 0.5), "concatenate"))
        assert out.shape == (4,)
        assert np.allclose(out, np.concatenate([0.5 * layers[0], 0.5 * layers[2]]), atol=1e-15)

    def test_unscaled_segments_flag(self, rng):
        layers = rng.normal(size=(2, 3))
        emb = LayeredTokenEmbedding("m", layers)
        spec = MixtureSpec("m", (0.5, 0.5), "concatenate", scale_segments=False)
        assert np.array_equal(mix_layers(emb, spec), layers.ravel())

    def test_weight_length_mismatch(self, rng):
        emb = LayeredTokenEmbedding("m", rng.normal(size=(3, 2)))
        with pytest.raises(SpecError):
            mix_layers(emb, MixtureSpec("m", (0.5, 0.5), "sum"))

    def test_model_id_mismatch(self, rng):
        emb = LayeredTokenEmbedding("m", rng.normal(size=(2, 2)))
        with pytest.raises(SpecError):
            mix_layers(emb, MixtureSpec("other", (0.5, 0.5), "sum"))

    def test_weights_must_sum_to_one(self):
        with pytest.raises(SpecError):
            MixtureSpec("m", (0.5, 0.6), "sum")

    def test_idf_shape_must_be_the_leading_shape(self, rng):
        spec = MixtureSpec("m", (0.5, 0.5), "sum", use_idf=True)
        stack = LayeredTokenEmbedding("m", rng.normal(size=(4, 2, 3)))
        for bad in (1.0, np.ones(3), np.ones(5), np.ones((4, 1))):
            with pytest.raises(ShapeError):
                mix_layers(stack, spec, bad)
        with pytest.raises(ShapeError):
            mix_layers(LayeredTokenEmbedding("m", rng.normal(size=(2, 3))), spec, np.ones(2))
        assert mix_layers(stack, spec, np.ones(4)).shape == (4, 3)

    def test_use_idf_false_ignores_weight(self, rng):
        emb = LayeredTokenEmbedding("m", rng.normal(size=(2, 4)))
        spec = MixtureSpec("m", (0.3, 0.7), "sum", use_idf=False)
        assert np.array_equal(mix_layers(emb, spec, 1.0), mix_layers(emb, spec, 123.0))


class TestEnsemble:
    def test_scale_then_join(self):
        spec = EnsembleSpec.normalized(
            (
                MixtureSpec("a", (1.0,), "sum"),
                MixtureSpec("b", (1.0,), "sum"),
            ),
            (1.0, 1.0),
            "concatenate",
        )
        out = ensemble([np.array([1.0, 0.0]), np.array([0.0, 2.0])], spec)
        assert np.allclose(out, [0.5, 0.0, 0.0, 1.0], atol=1e-15)

    def test_single_part_identity(self, rng):
        part = rng.normal(size=5)
        for agg in ("sum", "average", "concatenate"):
            spec = EnsembleSpec.normalized((MixtureSpec("a", (1.0,), "sum"),), (1.0,), agg)
            assert np.allclose(ensemble([part], spec), part, atol=1e-15)

    def test_sum_zero_pads_to_max_dim(self):
        spec = EnsembleSpec.normalized(
            (
                MixtureSpec("a", (1.0,), "sum"),
                MixtureSpec("b", (1.0,), "sum"),
            ),
            (1.0, 1.0),
            "sum",
        )
        p1 = np.array([2.0, 4.0])
        p2 = np.array([1.0, 1.0, 6.0])
        out = ensemble([p1, p2], spec)
        # pad-and-add oracle, by hand
        expect = 0.5 * np.array([2.0, 4.0, 0.0]) + 0.5 * p2
        assert np.allclose(out, expect, atol=1e-15)

    def test_part_count_mismatch(self):
        spec = one_model_spec("a", (1.0,), "sum")
        with pytest.raises(SpecError):
            ensemble([np.zeros(2), np.zeros(2)], spec)

    def test_zero_weight_sum_rejected(self):
        with pytest.raises(SpecError):
            EnsembleSpec.normalized((MixtureSpec("a", (1.0,), "sum"),), (0.0,), "sum")

    def test_raw_weights_recorded(self):
        spec = EnsembleSpec.normalized(
            (MixtureSpec("a", (1.0,), "sum"), MixtureSpec("b", (1.0,), "sum")),
            (2.0, 2.0),
            "sum",
        )
        assert spec.raw_weights == (2.0, 2.0)
        assert spec.weights == (0.5, 0.5)


class TestComposeToken:
    def test_double_identity(self, rng):
        layers = rng.normal(size=(3, 4))
        spec = one_model_spec("m", (0.0, 1.0, 0.0), "sum")
        out = compose_token({"m": LayeredTokenEmbedding("m", layers)}, spec)
        assert np.array_equal(out, layers[1])

    def test_missing_model(self, rng):
        spec = one_model_spec("m", (1.0,), "sum")
        with pytest.raises(MissingModelError):
            compose_token({}, spec)

    def test_equals_manual_composition(self, rng):
        spec = EnsembleSpec.normalized(
            (
                MixtureSpec("a", (0.25, 0.75), "sum", use_idf=True),
                MixtureSpec("b", (1.0,), "sum"),
            ),
            (1.0, 2.0),
            "concatenate",
        )
        for _ in range(100):
            sets = {
                "a": LayeredTokenEmbedding("a", rng.normal(size=(2, 3))),
                "b": LayeredTokenEmbedding("b", rng.normal(size=(1, 5))),
            }
            idf_w = float(rng.uniform(0.1, 3.0))
            manual = ensemble(
                [
                    mix_layers(sets["a"], spec.mixtures[0], idf_w),
                    mix_layers(sets["b"], spec.mixtures[1], idf_w),
                ],
                spec,
            )
            assert np.array_equal(compose_token(sets, spec, idf_w), manual)

    def test_best_config_dimension_wiring(self, rng):
        """Last-4 concat over 12 layers, plus two single-mixture models."""

        def wiring(d_a, d_b, d_c):
            return EnsembleSpec.normalized(
                (
                    MixtureSpec("bert", (0.25,) * 4 + (0.0,) * 8, "concatenate"),
                    MixtureSpec("elmo", (0.0, 0.0, 1.0), "sum", use_idf=True),
                    MixtureSpec("fasttext", (1.0,), "sum", use_idf=True),
                ),
                (1.0, 1.0, 1.0),
                "concatenate",
            ), {
                "bert": LayeredTokenEmbedding("bert", rng.normal(size=(12, d_a))),
                "elmo": LayeredTokenEmbedding("elmo", rng.normal(size=(3, d_b))),
                "fasttext": LayeredTokenEmbedding("fasttext", rng.normal(size=(1, d_c))),
            }

        spec, sets = wiring(256, 256, 300)
        assert compose_token(sets, spec, 1.3).shape == (4 * 256 + 256 + 300,)
        assert compose_token(sets, spec, 1.3).shape == (1580,)

        spec, sets = wiring(768, 1000, 300)
        out = compose_token(sets, spec, 0.7)
        assert out.shape == (4372,)
        dims = {"bert": (12, 768), "elmo": (3, 1000), "fasttext": (1, 300)}
        assert composed_dim(spec, dims) == 4372


class TestComposeText:
    def _store(self, rng, tokens, num_layers=2, dim=3, model_id="m"):
        return ContextFreeStore(
            model_id=model_id,
            num_layers=num_layers,
            dim=dim,
            vectors={t: rng.normal(size=(num_layers, dim)).astype(np.float32) for t in tokens},
        )

    def test_single_token_matches_compose_token(self, rng):
        store = self._store(rng, ["hello"])
        spec = one_model_spec("m", (0.5, 0.5), "sum")
        idf = IdfTable(num_documents=1, entries={})
        matrix = compose_text(["hello"], {"m": store}, spec, idf)
        assert matrix.shape == (1, 3)
        token_out = compose_token(
            {"m": LayeredTokenEmbedding("m", store.vectors["hello"])}, spec, 0.0
        )
        assert np.array_equal(matrix[0], token_out)

    def test_row_order_preserved(self, rng):
        store = self._store(rng, ["x", "y", "z"])
        spec = one_model_spec("m", (1.0, 0.0), "sum")
        idf = IdfTable(num_documents=1, entries={})
        matrix = compose_text(["z", "x", "y"], {"m": store}, spec, idf)
        assert np.array_equal(matrix[0], store.vectors["z"][0])
        assert np.array_equal(matrix[1], store.vectors["x"][0])
        assert np.array_equal(matrix[2], store.vectors["y"][0])

    def test_oov_token_zero_segment_other_models_kept(self, rng):
        store_a = self._store(rng, ["known"], num_layers=1, dim=2, model_id="a")
        store_b = self._store(rng, ["known", "partial"], num_layers=1, dim=3, model_id="b")
        spec = EnsembleSpec.normalized(
            (
                MixtureSpec("a", (1.0,), "sum", use_idf=True),
                MixtureSpec("b", (1.0,), "sum", use_idf=True),
            ),
            (1.0, 1.0),
            "concatenate",
        )
        docs = [Document("1", "known"), Document("2", "known partial")]
        idf = build_idf(docs)
        matrix = compose_text(["known", "partial"], {"a": store_a, "b": store_b}, spec, idf)
        assert matrix.shape == (2, 5)
        assert np.array_equal(matrix[1, :2], np.zeros(2))  # model a segment zeroed
        assert np.abs(matrix[1, 2:]).sum() > 0  # model b segment survives with idf scaling

    def test_all_oov_rejected(self, rng):
        store = self._store(rng, ["known"])
        spec = one_model_spec("m", (0.5, 0.5), "sum")
        idf = IdfTable(num_documents=1, entries={})
        with pytest.raises(EmptyTextError):
            compose_text(["ghost", "phantom"], {"m": store}, spec, idf)

    def test_contextual_store_rows_follow_positions(self, rng):
        from multires.embedding.stores import ContextualStore

        layers = rng.normal(size=(3, 2, 4)).astype(np.float32)  # k=3 occurrences
        ctx = ContextualStore(model_id="ctx", text_id=0, layers=layers)
        spec = one_model_spec("ctx", (1.0, 0.0), "sum")
        idf = IdfTable(num_documents=1, entries={})
        matrix = compose_text(["w", "w", "w"], {"ctx": ctx}, spec, idf)
        # same token string, different positions: rows come from the position key
        for pos in range(3):
            assert np.array_equal(matrix[pos], layers[pos, 0])

    def test_mixed_contextual_and_context_free(self, rng):
        from multires.embedding.stores import ContextualStore

        free = self._store(rng, ["w"], num_layers=1, dim=2, model_id="free")
        ctx = ContextualStore(
            model_id="ctx", text_id=0, layers=rng.normal(size=(2, 1, 3)).astype(np.float32)
        )
        spec = EnsembleSpec.normalized(
            (MixtureSpec("free", (1.0,), "sum"), MixtureSpec("ctx", (1.0,), "sum")),
            (1.0, 1.0),
            "concatenate",
        )
        idf = IdfTable(num_documents=1, entries={})
        matrix = compose_text(["w", "w"], {"free": free, "ctx": ctx}, spec, idf)
        assert matrix.shape == (2, 5)
        assert np.array_equal(matrix[0, :2], matrix[1, :2])  # context-free segment repeats
        assert not np.array_equal(matrix[0, 2:], matrix[1, 2:])  # contextual differs


class TestComposeTextStacks:
    """compose_text composes each text in one call; its rows equal per-token composition."""

    TOKENS = ["x", "y", "ghost", "x", "z"]

    def _inputs(self, rng, mix_agg, ens_agg, use_idf, scale_segments, dtype):
        def free(model_id, num_layers, dim, words):
            vectors = {w: rng.normal(size=(num_layers, dim)).astype(dtype) for w in words}
            return ContextFreeStore(model_id, num_layers, dim, vectors, np.dtype(dtype))

        stores = {
            "a": free("a", 3, 4, ["x", "y", "z"]),
            "b": free("b", 2, 3, ["x", "z"]),  # "y" resolves in store a only
            "c": ContextualStore("c", 0, rng.normal(size=(len(self.TOKENS), 2, 5)).astype(dtype)),
        }
        weights = {"a": (0.5, 0.0, 0.5), "b": (0.25, 0.75), "c": (1.0, 0.0)}
        mixtures = tuple(
            MixtureSpec(m, w, mix_agg, use_idf=use_idf, scale_segments=scale_segments)
            for m, w in weights.items()
        )
        spec = EnsembleSpec.normalized(mixtures, (1.0, 2.0, 3.0), ens_agg)
        idf = build_idf([Document("1", "x y"), Document("2", "x z"), Document("3", "x")])
        return stores, spec, idf

    @staticmethod
    def _per_token(tokens, stores, spec, idf):
        rows = []
        for position, token in enumerate(tokens):
            sets = {}
            for mixture in spec.mixtures:
                store = stores[mixture.model_id]
                layers = store.lookup(token, position)
                if layers is None:
                    layers = np.zeros((store.num_layers, store.dim), dtype=store.dtype)
                sets[mixture.model_id] = LayeredTokenEmbedding(mixture.model_id, layers)
            rows.append(compose_token(sets, spec, lookup_idf(idf, token)))
        return np.stack(rows)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("scale_segments", [True, False])
    @pytest.mark.parametrize("use_idf", [True, False])
    @pytest.mark.parametrize("ens_agg", AGGREGATORS)
    @pytest.mark.parametrize("mix_agg", AGGREGATORS)
    def test_rows_equal_per_token_composition(
        self, rng, mix_agg, ens_agg, use_idf, scale_segments, dtype
    ):
        stores, spec, idf = self._inputs(rng, mix_agg, ens_agg, use_idf, scale_segments, dtype)
        matrix = compose_text(self.TOKENS, stores, spec, idf)
        expected = self._per_token(self.TOKENS, stores, spec, idf)
        assert matrix.dtype == expected.dtype == dtype
        assert np.array_equal(matrix, expected)

    def test_one_compose_token_call_per_text(self, rng, monkeypatch):
        calls = Counter()

        def counted(name):
            original = getattr(compose_mod, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(compose_mod, name, wrapper)

        for name in ("LayeredTokenEmbedding", "mix_layers", "ensemble", "compose_token"):
            counted(name)
        stores, spec, idf = self._inputs(rng, "sum", "concatenate", True, True, np.float32)
        assert compose_mod.compose_text(self.TOKENS, stores, spec, idf).shape[0] == 5
        # one layer stack per model, one mixture per model, one ensemble
        assert calls == {
            "LayeredTokenEmbedding": 3, "mix_layers": 3, "ensemble": 1, "compose_token": 1
        }


class TestProperties:
    @given(
        st.integers(1, 4),
        st.integers(1, 5),
        st.integers(1, 3),
        st.sampled_from(["sum", "average", "concatenate"]),
        st.sampled_from(["sum", "average", "concatenate"]),
        st.integers(0, 2**31 - 1),
    )
    @settings(max_examples=40, deadline=None)
    def test_dimension_law(self, l, d, n, mix_agg, ens_agg, seed):
        gen = np.random.default_rng(seed)
        mixtures = []
        sets = {}
        dims = {}
        for j in range(n):
            counts = gen.integers(0, 3, size=l)
            if counts.sum() == 0:
                counts[int(gen.integers(0, l))] = 1
            weights = tuple(float(c) / float(counts.sum()) for c in counts)
            mixtures.append(MixtureSpec(f"m{j}", weights, mix_agg))
            sets[f"m{j}"] = LayeredTokenEmbedding(f"m{j}", gen.normal(size=(l, d)))
            dims[f"m{j}"] = (l, d)
        spec = EnsembleSpec.normalized(tuple(mixtures), (1.0,) * n, ens_agg)
        out = compose_token(sets, spec, 1.0)
        assert out.shape == (composed_dim(spec, dims),)
        part_dims = [
            mix_layers(sets[m.model_id], m, 1.0).shape[0] for m in spec.mixtures
        ]
        if ens_agg == "concatenate":
            assert out.shape[0] == sum(part_dims)
        else:
            assert out.shape[0] == max(part_dims)

    @given(st.integers(0, 2**31 - 1), st.floats(-3.0, 3.0))
    @settings(max_examples=30, deadline=None)
    def test_homogeneity(self, seed, c):
        gen = np.random.default_rng(seed)
        spec = EnsembleSpec.normalized(
            (
                MixtureSpec("a", (0.5, 0.5), "concatenate", use_idf=True),
                MixtureSpec("b", (1.0,), "sum"),
            ),
            (1.0, 3.0),
            "concatenate",
        )
        a = gen.normal(size=(2, 3))
        b = gen.normal(size=(1, 4))
        base = compose_token(
            {"a": LayeredTokenEmbedding("a", a), "b": LayeredTokenEmbedding("b", b)}, spec, 1.7
        )
        scaled = compose_token(
            {
                "a": LayeredTokenEmbedding("a", c * a),
                "b": LayeredTokenEmbedding("b", c * b),
            },
            spec,
            1.7,
        )
        assert np.allclose(scaled, c * base, atol=1e-10, rtol=1e-10)

    def test_segment_level_equivariance(self, rng):
        mix_a = MixtureSpec("a", (1.0,), "sum")
        mix_b = MixtureSpec("b", (1.0,), "sum")
        sets = {
            "a": LayeredTokenEmbedding("a", rng.normal(size=(1, 2))),
            "b": LayeredTokenEmbedding("b", rng.normal(size=(1, 3))),
        }
        fwd = EnsembleSpec.normalized((mix_a, mix_b), (1.0, 3.0), "concatenate")
        rev = EnsembleSpec.normalized((mix_b, mix_a), (3.0, 1.0), "concatenate")
        out_fwd = compose_token(sets, fwd, 1.0)
        out_rev = compose_token(sets, rev, 1.0)
        assert np.array_equal(out_rev, np.concatenate([out_fwd[2:], out_fwd[:2]]))


class TestSpecFile:
    def test_parse_round_trip(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text(
            "# best wiring\n"
            "ensemble.aggregator=concatenate\n"
            "ensemble.weights=1,1,1\n"
            "mixture.1.model=bert\n"
            "mixture.1.weights=0.25,0.25,0.25,0.25,0,0,0,0,0,0,0,0\n"
            "mixture.1.aggregator=concatenate\n"
            "mixture.1.use_idf=false\n"
            "mixture.2.model=elmo\n"
            "mixture.2.weights=0,0,1\n"
            "mixture.2.aggregator=sum\n"
            "mixture.2.use_idf=true\n"
            "mixture.3.model=fasttext\n"
            "mixture.3.weights=1\n"
            "mixture.3.aggregator=sum\n"
            "mixture.3.use_idf=true\n"
        )
        spec = parse_spec_file(str(path))
        assert [m.model_id for m in spec.mixtures] == ["bert", "elmo", "fasttext"]
        assert spec.weights == (1 / 3, 1 / 3, 1 / 3)
        assert spec.mixtures[1].use_idf

    def test_error_carries_line_number(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text("ensemble.aggregator=concatenate\nbogus line\n")
        with pytest.raises(ParseError) as err:
            parse_spec_file(str(path))
        assert err.value.line == 2

    def test_bad_boolean_carries_line_number(self, tmp_path):
        path = tmp_path / "spec.cfg"
        path.write_text(
            "ensemble.aggregator=sum\n"
            "ensemble.weights=1\n"
            "mixture.1.model=m\n"
            "mixture.1.weights=1\n"
            "mixture.1.aggregator=sum\n"
            "mixture.1.use_idf=maybe\n"
        )
        with pytest.raises(ParseError) as err:
            parse_spec_file(str(path))
        assert err.value.line == 6
