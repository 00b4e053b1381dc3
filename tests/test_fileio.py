"""The frame every binary file shares: checksums, crafted headers, every store version."""

import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from multires.cli import main
from multires.corpus import Document, build_idf
from multires.embedding.compose import compose_text
from multires.embedding.specs import EnsembleSpec, MixtureSpec
from multires.embedding.stores import (
    ContextFreeStore,
    ContextualStore,
    read_context_free_store,
    read_contextual_store,
    write_context_free_store,
    write_contextual_store,
)
from multires.errors import FormatError
from multires.model import init_convrr_params, read_checkpoint, write_checkpoint

DATA = Path(__file__).parent / "data"


def _read_mre(path):
    return read_context_free_store(str(path), "m")


def _read_mrt(path):
    return read_contextual_store(str(path), "c")


def _read_crr(path):
    return read_checkpoint(str(path))


@pytest.fixture(params=["mre", "mrt", "crr", "cli-index"])
def small_file(request, tmp_path, cli_workspace):
    """(path, reader) of one small version-2 MRE, MRT, CRR or CLI-written index file."""
    gen = np.random.default_rng(3)
    path = tmp_path / f"small.{request.param}"
    if request.param == "mre":
        vectors = {t: gen.normal(size=(1, 2)).astype(np.float32) for t in ("a", "ü")}
        write_context_free_store(str(path), ContextFreeStore("m", 1, 2, vectors))
        return path, _read_mre
    if request.param == "mrt":
        layers = gen.normal(size=(2, 1, 2)).astype(np.float32)
        write_contextual_store(str(path), ContextualStore("c", 4, layers))
        return path, _read_mrt
    if request.param == "crr":
        write_checkpoint(str(path), init_convrr_params(2, depth=1, window=1, rng=gen), "convrr")
        return path, _read_crr
    assert main(["train", "--config", str(cli_workspace["config"])]) == 0
    assert main(["index", "--config", str(cli_workspace["config"]), "--out", str(path)]) == 0
    return path, _read_mre


class TestCorruption:
    def test_every_single_bit_flip_is_rejected(self, small_file, tmp_path):
        path, read = small_file
        blob = path.read_bytes()
        bad = tmp_path / "flipped"
        for bit in range(8 * len(blob)):
            flipped = bytearray(blob)
            flipped[bit // 8] ^= 1 << (bit % 8)
            bad.write_bytes(bytes(flipped))
            with pytest.raises(FormatError):
                read(bad)

    def test_every_proper_prefix_is_rejected(self, small_file, tmp_path):
        path, read = small_file
        blob = path.read_bytes()
        cut = tmp_path / "cut"
        for length in range(len(blob)):
            cut.write_bytes(blob[:length])
            with pytest.raises(FormatError):
                read(cut)

    @pytest.mark.parametrize(
        "name, read",
        [("v1_store.mre", _read_mre), ("v1_index.mre", _read_mre), ("v1_text.mrt", _read_mrt)],
    )
    def test_every_proper_prefix_of_a_v1_file_is_rejected(self, name, read, tmp_path):
        blob = (DATA / name).read_bytes()
        cut = tmp_path / name
        for length in range(len(blob)):
            cut.write_bytes(blob[:length])
            with pytest.raises(FormatError):
                read(cut)


def _v1(magic, body):
    return magic + struct.pack("<H", 1) + body


def _v2(magic, body, version=2):
    framed = magic + struct.pack("<H", version) + body
    return framed + struct.pack("<I", zlib.crc32(framed))


_HUGE_MRT = struct.pack("<IIHI", 0, 2**20, 2**10, 2**12)  # 2^42 floats claimed
_HUGE_TOKEN = struct.pack("<IHII", 1, 1, 1, 0xFFFFFFF0) + b"abc"
_NON_UTF8_TOKEN = struct.pack("<IHII", 1, 1, 1, 1) + b"\xff" + struct.pack("<f", 1.0)
_HUGE_TENSOR = struct.pack("<BHHfI", 1, 1, 1, 0.05, 2**16) + struct.pack("<B3I", 3, 2**16, 1, 2**16)
_MANY_RECORDS = struct.pack("<IHI", 2**22, 1, 16) + b"\0" * 68  # 256 MB of rows claimed
_HUGE_VOCAB = struct.pack("<IHII", 2**31, 2**10, 2**12, 2) + b"a\0"  # 2^53 floats claimed
_HUGE_TABLE = struct.pack("<IHII", 1, 1, 1, 0xFFFFFFF0) + b"a\0" + struct.pack("<f", 1.0)
_NON_UTF8_TABLE = struct.pack("<IHII", 1, 1, 1, 2) + b"\xff\0" + struct.pack("<f", 1.0)


@pytest.mark.parametrize(
    "blob, read",
    [
        (_v1(b"MRT1", _HUGE_MRT), _read_mrt),
        (_v2(b"MRT1", _HUGE_MRT), _read_mrt),
        (_v1(b"MRE1", _HUGE_TOKEN), _read_mre),
        (_v2(b"MRE1", _HUGE_TOKEN), _read_mre),
        (_v1(b"MRE1", _NON_UTF8_TOKEN), _read_mre),
        (_v2(b"MRE1", _NON_UTF8_TOKEN), _read_mre),
        (_v2(b"MRE1", _MANY_RECORDS), _read_mre),
        (_v2(b"MRE1", _HUGE_VOCAB, version=3), _read_mre),
        (_v2(b"MRE1", _HUGE_TABLE, version=3), _read_mre),
        (_v2(b"MRE1", _NON_UTF8_TABLE, version=3), _read_mre),
        (_v2(b"CRR1", _HUGE_TENSOR, version=1), _read_crr),
    ],
    ids=["mrt-v1-payload", "mrt-v2-payload", "mre-v1-token-length", "mre-v2-token-length",
         "mre-v1-non-utf8-token", "mre-v2-non-utf8-token", "mre-v2-vocab", "mre-v3-vocab",
         "mre-v3-table-length", "mre-v3-non-utf8-table", "crr-tensor-dims"],
)
def test_crafted_header_is_rejected_without_allocating(blob, read, tmp_path):
    path = tmp_path / "crafted"
    path.write_bytes(blob)
    tracemalloc.start()
    try:
        with pytest.raises(FormatError):
            read(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


class TestVersion1Files:
    """The fixtures under tests/data were written by the version-1 writers."""

    def test_v1_store_loads_the_values_written(self):
        gen = np.random.default_rng(7)
        expected = {t: gen.normal(size=(2, 3)).astype(np.float32) for t in ("alpha", "ümläut")}
        store = _read_mre(DATA / "v1_store.mre")
        assert (store.num_layers, store.dim) == (2, 3)
        assert list(store.vectors) == list(expected)
        for token, layers in expected.items():
            assert np.array_equal(store.vectors[token], layers)

    def test_v1_text_loads_the_values_written(self):
        gen = np.random.default_rng(7)
        gen.normal(size=(2, 2, 3))  # the draws of v1_store.mre
        text = _read_mrt(DATA / "v1_text.mrt")
        assert text.text_id == 7
        assert np.array_equal(text.layers, gen.normal(size=(3, 2, 2)).astype(np.float32))

    def test_v2_rewrite_is_the_v1_body_plus_a_trailer(self, tmp_path):
        v1 = (DATA / "v1_text.mrt").read_bytes()
        path = tmp_path / "v1_text.mrt"
        write_contextual_store(str(path), _read_mrt(DATA / "v1_text.mrt"))
        v2 = path.read_bytes()
        assert v1[4:6] == struct.pack("<H", 1) and v2[4:6] == struct.pack("<H", 2)
        assert v2[:4] == v1[:4]
        assert v2[6:-4] == v1[6:]


def _rows_bits(store):
    return [(token, store.vectors[token].tobytes()) for token in store.vectors]


class TestStoreVersions:
    """The fixtures under tests/data hold one store and one index, as version 1 and version 2."""

    @pytest.mark.parametrize("name", ["store", "index"])
    def test_v1_v2_and_v3_copies_are_one_store(self, name, tmp_path):
        v3 = tmp_path / f"v3_{name}.mre"
        write_context_free_store(str(v3), _read_mre(DATA / f"v2_{name}.mre"))
        assert v3.read_bytes()[4:6] == struct.pack("<H", 3)
        copies = [_read_mre(p) for p in (DATA / f"v1_{name}.mre", DATA / f"v2_{name}.mre", v3)]
        assert len({(s.num_layers, s.dim) for s in copies}) == 1
        assert _rows_bits(copies[0]) == _rows_bits(copies[1]) == _rows_bits(copies[2])

        tokens = list(copies[0].vectors)
        docs = [Document(str(i), " ".join(tokens[: i + 1])) for i in range(len(tokens))]
        idf = build_idf(docs)
        num_layers = copies[0].num_layers
        spec = EnsembleSpec.normalized(
            (MixtureSpec("m", (1.0 / num_layers,) * num_layers, "concatenate", use_idf=True),),
            (1.0,),
            "concatenate",
        )
        text = tokens[::-1] + ["unseen"] + tokens
        composed = [compose_text(text, {"m": s}, spec, idf).tobytes() for s in copies]
        assert composed[0] == composed[1] == composed[2]

    @pytest.mark.parametrize(
        "name", ["v1_store.mre", "v1_index.mre", "v2_store.mre", "v2_index.mre"]
    )
    def test_rewrite_as_v3_keeps_tokens_and_rows(self, name, tmp_path):
        old = _read_mre(DATA / name)
        path = tmp_path / name
        write_context_free_store(str(path), old)
        new = _read_mre(path)
        assert path.read_bytes()[4:6] == struct.pack("<H", 3)
        assert (new.num_layers, new.dim) == (old.num_layers, old.dim)
        assert _rows_bits(new) == _rows_bits(old)


def _v3_store_blob(tokens, rows, vocab=None):
    """A version-3 MRE frame with a valid checksum, whatever the table holds."""
    table = b"".join(t + b"\0" for t in tokens)
    num = len(tokens) if vocab is None else vocab
    head = struct.pack("<IHII", num, rows.shape[1], rows.shape[2], len(table))
    return _v2(b"MRE1", head + table + rows.astype("<f4").tobytes(), version=3)


class TestVersion3Store:
    ROWS = np.arange(2 * 2 * 3, dtype=np.float32).reshape(2, 2, 3)

    def _written(self, tmp_path):
        path = tmp_path / "s.mre"
        store = ContextFreeStore("m", 2, 3, {"ab": self.ROWS[0], "ü": self.ROWS[1]})
        write_context_free_store(str(path), store)
        return path, path.read_bytes()

    def test_layout_is_head_table_rows(self, tmp_path):
        _, blob = self._written(tmp_path)
        table = "ab\0ü\0".encode("utf-8")
        assert blob == _v3_store_blob([b"ab", "ü".encode("utf-8")], self.ROWS)
        assert blob[6:20] == struct.pack("<IHII", 2, 2, 3, len(table))
        assert blob[20 : 20 + len(table)] == table

    @pytest.mark.parametrize("where", ["table", "rows"])
    def test_flipped_byte_is_rejected(self, where, tmp_path):
        path, blob = self._written(tmp_path)
        at = 21 if where == "table" else len(blob) - 10
        flipped = bytearray(blob)
        flipped[at] ^= 0x01
        path.write_bytes(bytes(flipped))
        with pytest.raises(FormatError, match="checksum"):
            _read_mre(path)

    @pytest.mark.parametrize(
        "tokens, vocab, match",
        [
            ([b"a", b"b"], 3, "truncated file or trailing bytes"),  # rows too short for V
            ([b"a", b"b", b"c"], 2, "NUL-terminated tokens"),  # three tokens, V says two
            ([b"a", b"a"], None, "duplicate token 'a'"),
            ([b"a", b"\xc3"], None, "not UTF-8"),
        ],
        ids=["vocab-above-count", "vocab-below-count", "duplicate", "non-utf8"],
    )
    def test_bad_token_table_is_rejected(self, tokens, vocab, match, tmp_path):
        rows = np.zeros((2, 1, 1), np.float32)
        path = tmp_path / "s.mre"
        path.write_bytes(_v3_store_blob(tokens, rows, vocab))
        with pytest.raises(FormatError, match=match):
            _read_mre(path)

    def test_unterminated_table_is_rejected(self, tmp_path):
        head = struct.pack("<IHII", 1, 1, 1, 1)
        path = tmp_path / "s.mre"
        path.write_bytes(_v2(b"MRE1", head + b"a" + struct.pack("<f", 1.0), version=3))
        with pytest.raises(FormatError, match="NUL-terminated tokens"):
            _read_mre(path)

    def test_trailing_bytes_are_rejected(self, tmp_path):
        path, blob = self._written(tmp_path)
        path.write_bytes(_v2(b"MRE1", blob[6:-4] + b"\0\0\0\0", version=3))
        with pytest.raises(FormatError, match="trailing bytes"):
            _read_mre(path)

    @pytest.mark.parametrize("size", [0, 3, 5])
    def test_file_shorter_than_the_frame_head_is_rejected(self, size, tmp_path):
        _, blob = self._written(tmp_path)
        path = tmp_path / "short.mre"
        path.write_bytes(blob[:size])
        with pytest.raises(FormatError, match="truncated file"):
            _read_mre(path)

    def test_writer_rejects_a_token_holding_nul(self, tmp_path):
        path, blob = self._written(tmp_path)
        store = ContextFreeStore("m", 1, 1, {"a": np.ones((1, 1)), "b\0c": np.ones((1, 1))})
        with pytest.raises(FormatError, match="NUL"):
            write_context_free_store(str(path), store)
        assert path.read_bytes() == blob

    @settings(max_examples=40, deadline=None)
    @given(
        tokens=st.lists(
            st.text(st.characters(blacklist_characters="\0", blacklist_categories=("Cs",))),
            max_size=40,
            unique=True,
        ),
        num_layers=st.integers(1, 3),
        dim=st.integers(1, 4),
    )
    def test_round_trip_any_vocabulary(self, tmp_path_factory, tokens, num_layers, dim):
        gen = np.random.default_rng(len(tokens))
        rows = gen.normal(size=(len(tokens), num_layers, dim)).astype(np.float32)
        store = ContextFreeStore("m", num_layers, dim, tokens=tokens, rows=rows)
        path = tmp_path_factory.mktemp("v3") / "s.mre"
        write_context_free_store(str(path), store)
        loaded = _read_mre(path)
        assert list(loaded.vectors) == tokens
        assert loaded.rows.tobytes() == rows.tobytes()


class TestReadOnlyBodies:
    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_loaded_store_rows_reject_writes(self, version, tmp_path):
        path = tmp_path / "s.mre"
        write_context_free_store(str(path), _read_mre(DATA / "v2_store.mre"))
        store = _read_mre(path if version == 3 else DATA / f"v{version}_store.mre")
        with pytest.raises(ValueError, match="read-only"):
            store.rows[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            store.vectors["alpha"][0] = 1.0

    def test_loaded_contextual_layers_reject_writes(self):
        text = _read_mrt(DATA / "v1_text.mrt")
        with pytest.raises(ValueError, match="read-only"):
            text.layers[0, 0, 0] = 1.0

    def test_checkpoint_tensors_stay_writable(self, tmp_path):
        path = tmp_path / "m.crr"
        gen = np.random.default_rng(3)
        write_checkpoint(str(path), init_convrr_params(2, depth=1, window=1, rng=gen), "convrr")
        params, _ = read_checkpoint(str(path))
        for tensor in params.tensors():
            tensor[...] = 0.0
