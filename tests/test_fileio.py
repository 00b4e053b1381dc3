"""The frame every binary file shares: checksums, crafted headers, version-1 files."""

import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from multires.cli import main
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


@pytest.mark.parametrize(
    "blob, read",
    [
        (_v1(b"MRT1", _HUGE_MRT), _read_mrt),
        (_v2(b"MRT1", _HUGE_MRT), _read_mrt),
        (_v1(b"MRE1", _HUGE_TOKEN), _read_mre),
        (_v2(b"MRE1", _HUGE_TOKEN), _read_mre),
        (_v1(b"MRE1", _NON_UTF8_TOKEN), _read_mre),
        (_v2(b"MRE1", _NON_UTF8_TOKEN), _read_mre),
        (_v2(b"CRR1", _HUGE_TENSOR, version=1), _read_crr),
    ],
    ids=["mrt-v1-payload", "mrt-v2-payload", "mre-v1-token-length", "mre-v2-token-length",
         "mre-v1-non-utf8-token", "mre-v2-non-utf8-token", "crr-tensor-dims"],
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

    @pytest.mark.parametrize(
        "name, read, write",
        [
            ("v1_store.mre", _read_mre, write_context_free_store),
            ("v1_index.mre", _read_mre, write_context_free_store),
            ("v1_text.mrt", _read_mrt, write_contextual_store),
        ],
    )
    def test_v2_rewrite_is_the_v1_body_plus_a_trailer(self, name, read, write, tmp_path):
        v1 = (DATA / name).read_bytes()
        path = tmp_path / name
        write(str(path), read(DATA / name))
        v2 = path.read_bytes()
        assert v1[4:6] == struct.pack("<H", 1) and v2[4:6] == struct.pack("<H", 2)
        assert v2[:4] == v1[:4]
        assert v2[6:-4] == v1[6:]
