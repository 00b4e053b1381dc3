"""Binary store formats: bitwise round-trips and corruption rejection."""

import numpy as np
import pytest

from multires import fileio
from multires.embedding.stores import (
    ContextFreeStore,
    ContextualStore,
    read_context_free_store,
    read_contextual_store,
    write_context_free_store,
    write_contextual_store,
)
from multires.errors import FormatError, ShapeError


def make_store(rng, vocab=("alpha", "beta", "ümläut"), num_layers=3, dim=4):
    return ContextFreeStore(
        model_id="m",
        num_layers=num_layers,
        dim=dim,
        vectors={t: rng.normal(size=(num_layers, dim)).astype(np.float32) for t in vocab},
    )


class TestContextFree:
    def test_round_trip_bitwise(self, rng, tmp_path):
        store = make_store(rng)
        path = tmp_path / "s.mre"
        write_context_free_store(str(path), store)
        loaded = read_context_free_store(str(path), "m")
        assert loaded.num_layers == store.num_layers
        assert loaded.dim == store.dim
        assert set(loaded.vectors) == set(store.vectors)
        for tok, vec in store.vectors.items():
            assert np.array_equal(loaded.vectors[tok], vec)

    def test_rewrite_is_byte_identical(self, rng, tmp_path):
        store = make_store(rng)
        p1, p2 = tmp_path / "a.mre", tmp_path / "b.mre"
        write_context_free_store(str(p1), store)
        write_context_free_store(str(p2), store)
        assert p1.read_bytes() == p2.read_bytes()

    def test_failed_rewrite_keeps_the_old_store(self, rng, tmp_path, monkeypatch):
        path = tmp_path / "s.mre"
        write_context_free_store(str(path), make_store(rng))
        good = path.read_bytes()

        def broken_fsync(fd):
            raise OSError("disk full")

        monkeypatch.setattr(fileio.os, "fsync", broken_fsync)
        with pytest.raises(OSError, match="disk full"):
            write_context_free_store(str(path), make_store(rng))
        assert path.read_bytes() == good
        read_context_free_store(str(path), "m")
        assert [p.name for p in tmp_path.iterdir()] == ["s.mre"]

    def test_wrong_layer_shape_is_rejected(self, rng):
        vectors = {"a": np.zeros((3, 4), np.float32), "wrong-shape": np.zeros((1, 2), np.float32)}
        with pytest.raises(ShapeError, match="layer shape"):
            ContextFreeStore("m", 3, 4, vectors)

    def test_rows_and_index_hold_the_vectors(self, rng):
        store = make_store(rng)
        assert store.rows.shape == (3, 3, 4) and store.rows.dtype == np.float32
        assert store.index == {"alpha": 0, "beta": 1, "ümläut": 2}
        assert np.array_equal(store.vectors["beta"], store.rows[1])

    def test_gather_stacks_rows_with_zeros_for_missing_tokens(self, rng):
        store = make_store(rng)
        stack, hits = store.gather(["beta", "nope", "alpha", "beta"])
        assert hits == 3 and stack.shape == (4, 3, 4) and stack.dtype == np.float32
        assert np.array_equal(stack[[0, 2, 3]], store.rows[[1, 0, 1]])
        assert not stack[1].any()
        empty = ContextFreeStore("m", 2, 2)
        stack, hits = empty.gather(["a"])
        assert hits == 0 and stack.shape == (1, 2, 2) and not stack.any()

    def test_bad_magic_rejected(self, rng, tmp_path):
        path = tmp_path / "s.mre"
        write_context_free_store(str(path), make_store(rng))
        blob = bytearray(path.read_bytes())
        blob[0] = ord("X")
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="bad magic"):
            read_context_free_store(str(path), "m")

    def test_truncation_rejected(self, rng, tmp_path):
        path = tmp_path / "s.mre"
        write_context_free_store(str(path), make_store(rng))
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 5])
        with pytest.raises(FormatError, match="truncated"):
            read_context_free_store(str(path), "m")

    def test_lookup_ignores_position(self, rng):
        store = make_store(rng)
        assert np.array_equal(store.lookup("alpha", 0), store.lookup("alpha", 99))
        assert store.lookup("missing", 0) is None


class TestContextual:
    def test_round_trip_bitwise(self, rng, tmp_path):
        layers = rng.normal(size=(4, 2, 5)).astype(np.float32)
        store = ContextualStore(model_id="ctx", text_id=17, layers=layers)
        path = tmp_path / "t.mrt"
        write_contextual_store(str(path), store)
        loaded = read_contextual_store(str(path), "ctx")
        assert loaded.text_id == 17
        assert np.array_equal(loaded.layers, layers)

    def test_lookup_by_position(self, rng):
        layers = rng.normal(size=(3, 1, 2)).astype(np.float32)
        store = ContextualStore(model_id="ctx", text_id=0, layers=layers)
        assert np.array_equal(store.lookup("anything", 1), layers[1])
        assert store.lookup("anything", 3) is None

    @pytest.mark.parametrize("length", [0, 2, 3, 5])
    def test_gather_takes_positions_and_zeros_past_the_end(self, rng, length):
        layers = rng.normal(size=(3, 1, 2)).astype(np.float32)
        stack, hits = ContextualStore("ctx", 0, layers).gather(["w"] * length)
        assert hits == min(length, 3) and stack.shape == (length, 1, 2)
        assert np.array_equal(stack[:hits], layers[:hits]) and not stack[hits:].any()

    def test_bad_magic_rejected(self, rng, tmp_path):
        path = tmp_path / "t.mrt"
        store = ContextualStore(model_id="c", text_id=0, layers=np.zeros((1, 1, 1), np.float32))
        write_contextual_store(str(path), store)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="bad magic"):
            read_contextual_store(str(path), "c")

    def test_trailing_garbage_rejected(self, rng, tmp_path):
        path = tmp_path / "t.mrt"
        store = ContextualStore(model_id="c", text_id=0, layers=np.zeros((1, 1, 1), np.float32))
        write_contextual_store(str(path), store)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError):
            read_contextual_store(str(path), "c")
