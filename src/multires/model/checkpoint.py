"""Checkpoint file: magic "CRR1", tensor payloads as f32 LE, trailing CRC32.

Layout:
    magic "CRR1" | u16 version=1 | u8 kind (1=convrr, 2=fcrr) | u16 depth
    | u16 ws | f32 sf | u32 dim
    then per block: kernels tensor, bias tensor, each as
    [u8 ndim | u32 dims... | payload f32 LE]
    finally u32 CRC32 of every preceding byte.
"""

from __future__ import annotations

import io
import struct
import zlib

import numpy as np

from multires.errors import FormatError
from multires.fileio import atomic_write, read_exact
from multires.model.encoder import ConvBlock, ConvRRParams, FCRRParams

CRR_MAGIC = b"CRR1"
_VERSION = 1
_KIND_CODES = {"convrr": 1, "fcrr": 2}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}


def _write_tensor(buf: io.BytesIO, arr: np.ndarray) -> None:
    buf.write(struct.pack("<B", arr.ndim))
    for dim in arr.shape:
        buf.write(struct.pack("<I", dim))
    buf.write(np.ascontiguousarray(arr, dtype="<f4").tobytes())


def _read_tensor(fh) -> np.ndarray:
    (ndim,) = struct.unpack("<B", read_exact(fh, 1, "tensor rank"))
    shape = tuple(
        struct.unpack("<I", read_exact(fh, 4, "tensor dim"))[0] for _ in range(ndim)
    )
    count = int(np.prod(shape)) if shape else 1
    raw = read_exact(fh, count * 4, "tensor payload")
    return np.frombuffer(raw, dtype="<f4").reshape(shape).copy()


def serialize_params(params, kind: str) -> bytes:
    if kind not in _KIND_CODES:
        raise FormatError(f"unknown encoder kind {kind!r}")
    buf = io.BytesIO()
    buf.write(CRR_MAGIC)
    buf.write(
        struct.pack(
            "<HBHHfI",
            _VERSION,
            _KIND_CODES[kind],
            params.depth,
            params.window,
            params.scale,
            params.dim,
        )
    )
    for tensor in params.tensors():
        _write_tensor(buf, tensor)
    payload = buf.getvalue()
    return payload + struct.pack("<I", zlib.crc32(payload) & 0xFFFFFFFF)


def write_checkpoint(path: str, params, kind: str) -> None:
    """Atomic write: a failed write leaves any previous checkpoint in place."""
    data = serialize_params(params, kind)
    with atomic_write(path) as fh:
        fh.write(data)


def read_checkpoint(path: str):
    """Returns (params, kind); raises FormatError on any corruption."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 4 or blob[:4] != CRR_MAGIC:
        raise FormatError(f"bad magic {blob[:4]!r}, expected {CRR_MAGIC!r}")
    if len(blob) < 8:
        raise FormatError("truncated checkpoint: missing checksum")
    payload, (crc,) = blob[:-4], struct.unpack("<I", blob[-4:])
    if zlib.crc32(payload) & 0xFFFFFFFF != crc:
        raise FormatError("bad checksum")
    fh = io.BytesIO(payload)
    read_exact(fh, 4, "magic")
    version, kind_code, depth, window, scale, dim = struct.unpack(
        "<HBHHfI", read_exact(fh, 15, "header")
    )
    if version != _VERSION:
        raise FormatError(f"unsupported version {version}")
    if kind_code not in _KIND_NAMES:
        raise FormatError(f"unknown encoder kind code {kind_code}")
    kind = _KIND_NAMES[kind_code]
    tensors = []
    expected = 2 * depth if kind == "convrr" else 2
    for _ in range(expected):
        tensors.append(_read_tensor(fh))
    if fh.read(1):
        raise FormatError("trailing bytes before checksum")
    if kind == "convrr":
        blocks = [
            ConvBlock(kernels=tensors[2 * i], bias=tensors[2 * i + 1]) for i in range(depth)
        ]
        params = ConvRRParams(blocks=blocks, window=window, scale=float(scale))
    else:
        params = FCRRParams(weight=tensors[0], bias=tensors[1], scale=float(scale))
    if params.dim != dim:
        raise FormatError(f"tensor dim {params.dim} disagrees with header dim {dim}")
    return params, kind
