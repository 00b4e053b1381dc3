"""The frame every binary file shares: checksums, crafted headers, one version per format."""

import os
import re
import struct
import subprocess
import sys
import threading
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from multires import fileio, parallel
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


def _write_small(kind, path):
    """Write one small current-version MRE, MRT or CRR file at ``path``; return its reader."""
    gen = np.random.default_rng(3)
    if kind == "mre":
        vectors = {t: gen.normal(size=(1, 2)).astype(np.float32) for t in ("a", "ü")}
        write_context_free_store(str(path), ContextFreeStore("m", 1, 2, vectors))
        return _read_mre
    if kind == "mrt":
        layers = gen.normal(size=(2, 1, 2)).astype(np.float32)
        write_contextual_store(str(path), ContextualStore("c", 4, layers))
        return _read_mrt
    write_checkpoint(str(path), init_convrr_params(2, depth=1, window=1, rng=gen), "convrr")
    return _read_crr


@pytest.fixture(params=["mre", "mrt", "crr", "cli-index"])
def small_file(request, tmp_path, cli_workspace):
    """(path, reader) of one small MRE, MRT, CRR or CLI-written index file."""
    path = tmp_path / f"small.{request.param}"
    if request.param != "cli-index":
        return path, _write_small(request.param, path)
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


def _framed(magic, version, body):
    """A frame with a valid checksum, whatever the body holds."""
    framed = magic + struct.pack("<H", version) + body
    return framed + struct.pack("<I", zlib.crc32(framed))


_HUGE_MRT = struct.pack("<IIHI", 0, 2**20, 2**10, 2**12)  # 2^42 floats claimed
_HUGE_TENSOR = struct.pack("<BHHfI", 1, 1, 1, 0.05, 2**16) + struct.pack("<B3I", 3, 2**16, 1, 2**16)
_HUGE_VOCAB = struct.pack("<IHII", 2**31, 2**10, 2**12, 2) + b"a\0"  # 2^53 floats claimed
_HUGE_TABLE = struct.pack("<IHII", 1, 1, 1, 0xFFFFFFF0) + b"a\0" + struct.pack("<f", 1.0)
_NON_UTF8_TABLE = struct.pack("<IHII", 1, 1, 1, 2) + b"\xff\0" + struct.pack("<f", 1.0)


@pytest.mark.parametrize(
    "blob, read",
    [
        (_framed(b"MRT1", 2, _HUGE_MRT), _read_mrt),
        (_framed(b"MRE1", 3, _HUGE_VOCAB), _read_mre),
        (_framed(b"MRE1", 3, _HUGE_TABLE), _read_mre),
        (_framed(b"MRE1", 3, _NON_UTF8_TABLE), _read_mre),
        (_framed(b"CRR1", 1, _HUGE_TENSOR), _read_crr),
    ],
    ids=["mrt-v2-payload", "mre-v3-vocab", "mre-v3-table-length", "mre-v3-non-utf8-table",
         "crr-tensor-dims"],
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


@pytest.mark.parametrize(
    "blob, read, message",
    [
        ((DATA / "v1_index.mre").read_bytes(), _read_mre, "unsupported version 1 (expected 3)"),
        (_framed(b"MRE1", 3, b"\0" * 6), _read_mre, "truncated file: expected a 14-byte header"),
        (_framed(b"MRE1", 3, _NON_UTF8_TABLE), _read_mre, "token table is not UTF-8 at byte 14"),
        (_framed(b"MRT1", 2, _HUGE_MRT), _read_mrt, "truncated file or trailing bytes"),
        (_framed(b"CRR1", 1, _HUGE_TENSOR), _read_crr, "truncated file: tensor"),
        (b"CRR1", _read_crr, "truncated file: 4 bytes, no frame head"),
    ],
    ids=["frame-version", "frame-header", "mre-body", "mrt-body", "crr-body", "crr-head"],
)
def test_format_error_names_the_file(blob, read, message, tmp_path):
    path = tmp_path / "named.bin"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as caught:
        read(path)
    assert str(caught.value).startswith(f"{path}: {message}")


def _unsupported(found, expected):
    return rf"unsupported version {found} \(expected {expected}\)"


class TestOtherVersions:
    """Each format reads only the version its writer emits: MRE 3, MRT 2, CRR 1.

    The fixtures under tests/data were written by the earlier MRE (1, 2)
    and MRT (1) writers, which version 1 wrote without a checksum.
    """

    @pytest.mark.parametrize(
        "name, read, found, expected",
        [
            ("v1_store.mre", _read_mre, 1, 3),
            ("v1_index.mre", _read_mre, 1, 3),
            ("v2_store.mre", _read_mre, 2, 3),
            ("v2_index.mre", _read_mre, 2, 3),
            ("v1_text.mrt", _read_mrt, 1, 2),
        ],
    )
    def test_old_fixture_is_rejected(self, name, read, found, expected):
        with pytest.raises(FormatError, match=_unsupported(found, expected)):
            read(DATA / name)

    @pytest.mark.parametrize(
        "kind, found, expected",
        [("mre", 4, 3), ("mrt", 1, 2), ("mrt", 3, 2), ("crr", 0, 1), ("crr", 2, 1)],
    )
    def test_checksummed_frame_of_another_version_is_rejected(
        self, kind, found, expected, tmp_path
    ):
        path = tmp_path / f"small.{kind}"
        read = _write_small(kind, path)
        blob = path.read_bytes()
        path.write_bytes(_framed(blob[:4], found, blob[6:-4]))
        with pytest.raises(FormatError, match=_unsupported(found, expected)):
            read(path)

    def test_flipped_byte_of_a_v1_index_is_rejected(self, tmp_path):
        blob = bytearray((DATA / "v1_index.mre").read_bytes())
        blob[100] ^= 0x01
        path = tmp_path / "v1_index.mre"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="unsupported version 1"):
            _read_mre(path)


def test_mrt_body_is_head_then_layers_as_version_1_wrote_it(tmp_path):
    gen = np.random.default_rng(7)
    gen.normal(size=(2, 2, 3))  # the draws of v1_store.mre
    layers = gen.normal(size=(3, 2, 2)).astype(np.float32)  # those of v1_text.mrt
    path = tmp_path / "t.mrt"
    write_contextual_store(str(path), ContextualStore("c", 7, layers))
    head = struct.pack("<IIHI", 7, 3, 2, 2)
    assert path.read_bytes() == _framed(b"MRT1", 2, head + layers.astype("<f4").tobytes())
    assert path.read_bytes()[6:-4] == (DATA / "v1_text.mrt").read_bytes()[6:]


def _v3_store_blob(tokens, rows, vocab=None):
    """A version-3 MRE frame with a valid checksum, whatever the table holds."""
    table = b"".join(t + b"\0" for t in tokens)
    num = len(tokens) if vocab is None else vocab
    head = struct.pack("<IHII", num, rows.shape[1], rows.shape[2], len(table))
    return _framed(b"MRE1", 3, head + table + rows.astype("<f4").tobytes())


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
        path.write_bytes(_framed(b"MRE1", 3, head + b"a" + struct.pack("<f", 1.0)))
        with pytest.raises(FormatError, match="NUL-terminated tokens"):
            _read_mre(path)

    def test_trailing_bytes_are_rejected(self, tmp_path):
        path, blob = self._written(tmp_path)
        path.write_bytes(_framed(b"MRE1", 3, blob[6:-4] + b"\0\0\0\0"))
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


@pytest.fixture(params=["store", "index"])
def written_mre(request, tmp_path, cli_workspace):
    """Path of a pretrained store or of a CLI-written index, both current-version MRE."""
    if request.param == "store":
        return tmp_path / "toy.mre"
    path = tmp_path / "index.mre"
    assert main(["train", "--config", str(cli_workspace["config"])]) == 0
    assert main(["index", "--config", str(cli_workspace["config"]), "--out", str(path)]) == 0
    return path


def _rows_bits(store):
    return [(token, store.vectors[token].tobytes()) for token in store.vectors]


class TestLoadedStores:
    """A store read back, with its mapped read-only rows, acts as the store written."""

    def test_rewrite_of_a_loaded_store_keeps_its_bytes(self, written_mre, tmp_path):
        loaded = _read_mre(written_mre)
        path = tmp_path / "rewritten.mre"
        write_context_free_store(str(path), loaded)
        assert path.read_bytes() == written_mre.read_bytes()
        rewritten = _read_mre(path)
        assert (rewritten.num_layers, rewritten.dim) == (loaded.num_layers, loaded.dim)
        assert _rows_bits(rewritten) == _rows_bits(loaded)

    def test_loaded_and_owned_rows_compose_alike(self, written_mre):
        loaded = _read_mre(written_mre)
        owned = ContextFreeStore(
            "m", loaded.num_layers, loaded.dim, {t: np.array(v) for t, v in loaded.vectors.items()}
        )
        tokens = list(loaded.vectors)
        docs = [Document(str(i), " ".join(tokens[: i + 1])) for i in range(len(tokens))]
        idf = build_idf(docs)
        num_layers = loaded.num_layers
        spec = EnsembleSpec.normalized(
            (MixtureSpec("m", (1.0 / num_layers,) * num_layers, "concatenate", use_idf=True),),
            (1.0,),
            "concatenate",
        )
        text = tokens[::-1] + ["unseen"] + tokens
        composed = [compose_text(text, {"m": s}, spec, idf).tobytes() for s in (loaded, owned)]
        assert composed[0] == composed[1]


class TestReadOnlyBodies:
    def test_loaded_store_rows_reject_writes(self, tmp_path):
        path = tmp_path / "s.mre"
        vectors = {"alpha": np.zeros((2, 3)), "beta": np.ones((2, 3))}
        write_context_free_store(str(path), ContextFreeStore("m", 2, 3, vectors))
        store = _read_mre(path)
        with pytest.raises(ValueError, match="read-only"):
            store.rows[0, 0, 0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            store.vectors["alpha"][0] = 1.0

    def test_loaded_contextual_layers_reject_writes(self, tmp_path):
        path = tmp_path / "t.mrt"
        text = _write_small("mrt", path)(path)
        with pytest.raises(ValueError, match="read-only"):
            text.layers[0, 0, 0] = 1.0

    def test_checkpoint_tensors_stay_writable(self, tmp_path):
        path = tmp_path / "m.crr"
        gen = np.random.default_rng(3)
        write_checkpoint(str(path), init_convrr_params(2, depth=1, window=1, rng=gen), "convrr")
        params, _ = read_checkpoint(str(path))
        for tensor in params.tensors():
            tensor[...] = 0.0


class TestSplitChecksum:
    """``fileio.crc32`` cuts a large view into slices, one per core, and combines their CRCs."""

    SPLIT, SLICE, CORES = 64, 16, 3

    @pytest.fixture
    def slices(self, monkeypatch):
        """Small split and slice sizes; records how many slices each split ran in."""
        monkeypatch.setattr(fileio, "SPLIT_BYTES", self.SPLIT)
        monkeypatch.setattr(fileio, "SLICE_BYTES", self.SLICE)
        monkeypatch.setattr(parallel, "usable_cores", lambda: self.CORES)
        counts = []
        run = parallel.run

        def recording(task, items, workers=None):
            counts.append(len(items))
            run(task, items, workers)

        monkeypatch.setattr(parallel, "run", recording)
        return counts

    @given(st.binary(max_size=300), st.binary(max_size=300))
    @example(b"", b"")
    @example(b"ab", b"")
    @example(b"", b"ab")
    def test_combine_gives_the_crc_of_the_concatenation(self, a, b):
        assert fileio.crc32_combine(zlib.crc32(a), zlib.crc32(b), len(b)) == zlib.crc32(a + b)

    def test_crc_equals_zlib_below_at_and_above_the_split(self, slices):
        blob = np.random.default_rng(5).bytes(self.SPLIT + self.CORES * self.SLICE + 2)
        sizes = range(self.SPLIT - 2, len(blob) + 1)
        for size in sizes:
            for crc in (0, 0x9E3779B9):
                assert fileio.crc32(blob[:size], crc) == zlib.crc32(blob[:size], crc), (size, crc)
        expected = [min(self.CORES, size // self.SLICE) for size in sizes if size >= self.SPLIT]
        assert slices == [n for n in expected for _ in range(2)]

    def test_a_byte_flipped_anywhere_changes_the_crc_as_zlib_does(self, slices):
        blob = bytearray(np.random.default_rng(6).bytes(self.SPLIT + 5))
        for at in range(len(blob)):  # every byte of every slice, each side of each boundary
            blob[at] ^= 0x40
            assert fileio.crc32(blob) == zlib.crc32(blob), at
            blob[at] ^= 0x40
        assert slices == [self.CORES] * len(blob)

    def test_a_multibyte_item_view_is_checksummed_by_its_bytes(self, slices):
        rows = np.arange(40, dtype="<f4").reshape(4, 10)
        assert fileio.crc32(memoryview(rows.reshape(-1))) == zlib.crc32(rows.tobytes())
        assert slices == [self.CORES]

    @pytest.mark.parametrize("where", ["first", "last"])
    def test_a_flipped_byte_in_a_split_frame_is_rejected(self, slices, where, tmp_path):
        path = tmp_path / "t.mrt"
        layers = np.random.default_rng(7).normal(size=(8, 2, 4)).astype(np.float32)
        write_contextual_store(str(path), ContextualStore("c", 4, layers))
        blob = bytearray(path.read_bytes())
        assert _read_mrt(path).layers.tobytes() == layers.tobytes()
        blob[10 if where == "first" else len(blob) - 10] ^= 1  # a body byte of that slice
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match=f"^{re.escape(str(path))}: bad checksum"):
            _read_mrt(path)
        assert slices == [self.CORES] * 3  # written, read, read again

    def test_concurrent_callers_each_get_their_own_crc(self, slices):
        blobs = [np.random.default_rng(20 + i).bytes(self.SPLIT + 7 * i) for i in range(6)]
        found = [None] * len(blobs)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=lambda i=i: found.__setitem__(i, fileio.crc32(blobs[i])))
                for i in range(len(blobs))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(switch)
        assert not any(t.is_alive() for t in threads)
        assert found == [zlib.crc32(b) for b in blobs] and slices == [self.CORES] * len(blobs)

    def test_a_checksum_inside_a_pool_chunk_runs_inline(self, slices):
        blob = np.random.default_rng(8).bytes(self.SPLIT)
        found = []
        parallel.run(lambda _: found.append(fileio.crc32(blob)), range(2))
        assert found == [zlib.crc32(blob)] * 2 and slices == [2]


def test_reading_a_small_frame_starts_no_pool(tmp_path):
    src = os.path.dirname(os.path.dirname(fileio.__file__))  # the directory holding multires
    script = (
        "import sys, numpy as np\n"
        "from multires.embedding.stores import ContextualStore, read_contextual_store,"
        " write_contextual_store\n"
        "from multires import parallel\n"
        "write_contextual_store(sys.argv[1], ContextualStore('c', 4, np.ones((2, 1, 2), np.float32)))\n"
        "read_contextual_store(sys.argv[1], 'c')\n"
        "print(parallel._pool is None)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "t.mrt")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, check=True, timeout=60,
    )
    assert out.stdout.strip() == "True"
