"""Contract-violation paths: each named error class fires where promised."""

import struct
import zlib

import numpy as np
import pytest

from multires.cli import main, parse_run_config
from multires.corpus import QaPair
from multires.embedding import (
    LayeredTokenEmbedding,
    MixtureSpec,
    composed_dim,
    parse_spec_file,
)
from multires.embedding.specs import EnsembleSpec
from multires.embedding.stores import read_context_free_store, write_context_free_store
from multires.errors import (
    ConfigError,
    DatasetError,
    FormatError,
    IntegrityError,
    MissingModelError,
    NumericalError,
    ParseError,
    ShapeError,
    SpecError,
)
from multires.model import read_checkpoint, serialize_params, write_checkpoint
from multires.model.encoder import (
    ConvBlock,
    ConvRRParams,
    FCRRParams,
    convrr_forward_many,
    init_convrr_params,
    init_fcrr_params,
)
from multires.model.train import TrainConfig, train
from multires.retrieval import build_index, evaluate, recall_at_k, search


class TestSpecFileValidation:
    def _write(self, tmp_path, text):
        path = tmp_path / "spec.cfg"
        path.write_text(text)
        return str(path)

    def test_missing_ensemble_aggregator(self, tmp_path):
        path = self._write(tmp_path, "ensemble.weights=1\nmixture.1.model=m\n")
        with pytest.raises(SpecError, match="aggregator"):
            parse_spec_file(path)

    def test_missing_mixture_field(self, tmp_path):
        path = self._write(
            tmp_path,
            "ensemble.aggregator=sum\nensemble.weights=1\n"
            "mixture.1.model=m\nmixture.1.aggregator=sum\n",
        )
        with pytest.raises(SpecError, match="weights"):
            parse_spec_file(path)

    def test_non_contiguous_mixture_indices(self, tmp_path):
        path = self._write(
            tmp_path,
            "ensemble.aggregator=sum\nensemble.weights=1,1\n"
            "mixture.1.model=a\nmixture.1.weights=1\nmixture.1.aggregator=sum\n"
            "mixture.3.model=b\nmixture.3.weights=1\nmixture.3.aggregator=sum\n",
        )
        with pytest.raises(SpecError, match="1..n"):
            parse_spec_file(path)

    def test_misspelled_mixture_key_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            "ensemble.aggregator=sum\nensemble.weights=1\n"
            "mixture.1.model=m\nmixture.1.weights=1\nmixture.1.aggregator=sum\n"
            "mixture.1.useidf=true\n",
        )
        with pytest.raises(ParseError, match="unknown key 'mixture.1.useidf'") as err:
            parse_spec_file(path)
        assert err.value.line == 6

    def test_misspelled_ensemble_key_rejected(self, tmp_path):
        path = self._write(
            tmp_path,
            "ensemble.aggregator=sum\nensemble.weights=1\nensemble.wieghts=3\n"
            "mixture.1.model=m\nmixture.1.weights=1\nmixture.1.aggregator=sum\n",
        )
        with pytest.raises(ParseError, match="unknown key 'ensemble.wieghts'") as err:
            parse_spec_file(path)
        assert err.value.line == 3

    def test_bad_weights_carry_line(self, tmp_path):
        path = self._write(
            tmp_path,
            "ensemble.aggregator=sum\nensemble.weights=1\n"
            "mixture.1.model=m\nmixture.1.weights=1,oops\nmixture.1.aggregator=sum\n",
        )
        with pytest.raises(ParseError) as err:
            parse_spec_file(path)
        assert err.value.line == 4


class TestSpecTypes:
    def test_unknown_aggregator(self):
        with pytest.raises(SpecError):
            MixtureSpec("m", (1.0,), "median")

    def test_empty_weights(self):
        with pytest.raises(SpecError):
            MixtureSpec("m", (), "sum")

    def test_ensemble_without_mixtures(self):
        with pytest.raises(SpecError):
            EnsembleSpec(mixtures=(), weights=(), aggregator="sum")

    def test_ensemble_weight_count_mismatch(self):
        with pytest.raises(SpecError):
            EnsembleSpec.normalized(
                (MixtureSpec("m", (1.0,), "sum"),), (0.5, 0.5), "sum"
            )

    def test_nonfinite_layers_rejected(self):
        layers = np.array([[1.0, np.inf]])
        with pytest.raises(NumericalError):
            LayeredTokenEmbedding("m", layers)

    def test_bad_layer_rank_rejected(self):
        with pytest.raises(SpecError):
            LayeredTokenEmbedding("m", np.zeros(3))

    def test_composed_dim_missing_model(self):
        spec = EnsembleSpec.normalized((MixtureSpec("m", (1.0,), "sum"),), (1.0,), "sum")
        with pytest.raises(MissingModelError):
            composed_dim(spec, {})

    def test_composed_dim_weight_count_mismatch(self):
        spec = EnsembleSpec.normalized((MixtureSpec("m", (1.0,), "sum"),), (1.0,), "sum")
        with pytest.raises(SpecError):
            composed_dim(spec, {"m": (3, 4)})


class TestEncoderValidation:
    def test_even_window_rejected(self):
        blocks = [ConvBlock(kernels=np.zeros((2, 4, 2)), bias=np.zeros(2))]
        with pytest.raises(ConfigError):
            ConvRRParams(blocks=blocks, window=4, scale=0.05)

    def test_depth_bounds(self, rng):
        with pytest.raises(ConfigError):
            ConvRRParams(blocks=[], window=3, scale=0.05)
        blocks = [
            ConvBlock(kernels=np.zeros((2, 3, 2)), bias=np.zeros(2)) for _ in range(5)
        ]
        with pytest.raises(ConfigError):
            ConvRRParams(blocks=blocks, window=3, scale=0.05)

    def test_block_shape_mismatch(self):
        blocks = [
            ConvBlock(kernels=np.zeros((2, 3, 2)), bias=np.zeros(2)),
            ConvBlock(kernels=np.zeros((3, 3, 3)), bias=np.zeros(3)),
        ]
        with pytest.raises(ShapeError):
            ConvRRParams(blocks=blocks, window=3, scale=0.05)

    def test_fcrr_nonsquare_rejected(self):
        with pytest.raises(ShapeError):
            FCRRParams(weight=np.zeros((2, 3)), bias=np.zeros(2))

    def test_forward_dim_mismatch(self, rng):
        params = init_convrr_params(4, rng=rng)
        with pytest.raises(ShapeError):
            convrr_forward_many(rng.normal(size=(1, 2, 5)), params)

    def test_forward_empty_text(self, rng):
        params = init_convrr_params(4, rng=rng)
        with pytest.raises(ShapeError):
            convrr_forward_many(np.zeros((1, 0, 4)), params)


class TestTrainValidation:
    def test_bad_iterations(self):
        with pytest.raises(ConfigError):
            TrainConfig(iterations=0)

    def test_bad_batch_size(self):
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=1)

    def test_bad_mining_mode(self):
        with pytest.raises(ConfigError):
            TrainConfig(mining="hardest")

    def test_bad_encoder_kind(self):
        q = np.ones((1, 3), dtype=np.float32)
        pairs = [QaPair("q", "", "d1"), QaPair("q2", "", "d2")]
        data = {"q": q, "q2": q}
        docs = {"d1": q, "d2": 2 * q}
        with pytest.raises(ConfigError):
            train(pairs, data, docs, "transformer", TrainConfig(iterations=1))

    def test_empty_pairs(self):
        with pytest.raises(DatasetError):
            train([], {}, {"d1": np.ones((1, 2)), "d2": np.ones((1, 2))}, "convrr")

    def test_missing_query_matrix(self):
        q = np.ones((1, 3), dtype=np.float32)
        pairs = [QaPair("ghost", "", "d1")]
        with pytest.raises(IntegrityError, match="ghost"):
            train(pairs, {}, {"d1": q, "d2": q}, "convrr", TrainConfig(iterations=1))


class TestRetrievalValidation:
    def test_search_k_zero(self, rng):
        v = rng.normal(size=3)
        v /= np.linalg.norm(v)
        index = build_index([("d", v)])
        with pytest.raises(ShapeError):
            search(index, v, k=0)

    def test_recall_no_rankings(self):
        with pytest.raises(IntegrityError):
            recall_at_k({}, {}, 1)

    def test_recall_and_evaluate_reject_k_below_1(self):
        with pytest.raises(ShapeError, match="k must be >= 1, got -1"):
            recall_at_k({"q": ["d", "e"]}, {"q": "e"}, -1)
        docs = [("d", np.ones((1, 2), np.float32))]
        with pytest.raises(ShapeError, match="k must be >= 1, got -1"):
            evaluate(None, [("q", docs[0][1])], docs, [-1, 1], {"q": "d"})


class TestFormatVersions:
    def test_store_unsupported_version(self, tmp_path, rng):
        from multires.embedding.stores import ContextFreeStore

        store = ContextFreeStore(
            model_id="m", num_layers=1, dim=2,
            vectors={"a": rng.normal(size=(1, 2)).astype(np.float32)},
        )
        path = tmp_path / "s.mre"
        write_context_free_store(str(path), store)
        blob = bytearray(path.read_bytes())
        blob[4:6] = struct.pack("<H", 9)
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            read_context_free_store(str(path), "m")

    def test_checkpoint_unsupported_version(self, tmp_path, rng):
        blob = bytearray(serialize_params(init_fcrr_params(3, rng=rng), "fcrr")[:-4])
        blob[4:6] = struct.pack("<H", 9)
        blob += struct.pack("<I", zlib.crc32(bytes(blob)) & 0xFFFFFFFF)
        path = tmp_path / "m.crr"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="version"):
            read_checkpoint(str(path))

    def test_serialize_unknown_kind(self, rng):
        with pytest.raises(FormatError):
            serialize_params(init_fcrr_params(3, rng=rng), "mlp")

    @pytest.mark.parametrize(
        "init, kind, other",
        [(init_fcrr_params, "convrr", "fcrr"), (init_convrr_params, "fcrr", "convrr")],
    )
    def test_kind_that_does_not_match_the_params_keeps_the_old_checkpoint(
        self, tmp_path, rng, init, kind, other
    ):
        params = init(4, rng=rng)
        path = tmp_path / "m.crr"
        write_checkpoint(str(path), params, other)
        before = path.read_bytes()
        with pytest.raises(FormatError, match=f"cannot be written as kind {kind!r}"):
            write_checkpoint(str(path), params, kind)
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["m.crr"]


class TestRunConfigValidation:
    def test_bad_line_reports_position(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("seed=1\nnot a key value line\n")
        with pytest.raises(ParseError) as err:
            parse_run_config(str(path))
        assert err.value.line == 2

    def test_bad_stores_value(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("stores=no-colon-here\n")
        with pytest.raises(ParseError):
            parse_run_config(str(path))

    def test_unknown_key_rejected(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("bogus_key=1\n")
        with pytest.raises(ParseError):
            parse_run_config(str(path))

    def test_train_without_checkpoint_key(self, cli_workspace, tmp_path):
        ws = cli_workspace
        cfg = tmp_path / "run.cfg"
        text = ws["config"].read_text()
        cfg.write_text(
            "\n".join(l for l in text.splitlines() if not l.startswith("checkpoint=")) + "\n"
        )
        assert main(["train", "--config", str(cfg)]) == 2


class TestFcrrThroughCli:
    def test_train_and_eval_fcrr(self, cli_workspace, tmp_path):
        ws = cli_workspace
        cfg = tmp_path / "fcrr.cfg"
        cfg.write_text(ws["config"].read_text() + "encoder=fcrr\n")
        assert main(["train", "--config", str(cfg)]) == 0
        params, kind = read_checkpoint(str(ws["checkpoint"]))
        assert kind == "fcrr"
        assert params.weight.shape == (4, 4)
        assert main(["eval", "--config", str(cfg)]) == 0
        assert ws["report"].exists()
