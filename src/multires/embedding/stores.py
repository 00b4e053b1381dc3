"""Binary embedding stores, each one version-2 frame (see ``multires.fileio``).

Context-free store "MRE1" (one file per model), little-endian body:
    u32 vocab V | u16 layers l | u32 dim d
    then V records of [u32 byte-length | UTF-8 token | l*d float32 layer-major]

Contextual store "MRT1" (one file per text per model), body:
    u32 text_id | u32 k | u16 l | u32 d
    then k*l*d float32, token-major then layer-major

Version-1 files hold the same body without the CRC32 trailer and are still
read. Every size a header claims is checked against the bytes present; the
rows read are views into the file's buffer. Both writers replace the file
atomically, so a failed write leaves the old one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from multires.errors import FormatError
from multires.fileio import atomic_write, frame, read_frame

MRE_MAGIC = b"MRE1"
MRT_MAGIC = b"MRT1"
_VERSION = 2
_U32 = struct.Struct("<I")
_MRE_HEAD = struct.Struct("<IHI")  # vocab, layers, dim
_MRT_HEAD = struct.Struct("<IIHI")  # text id, k, layers, dim


@dataclass
class ContextFreeStore:
    """Token-keyed layer matrices; the same matrix for every occurrence."""

    model_id: str
    num_layers: int
    dim: int
    vectors: dict[str, np.ndarray] = field(default_factory=dict)
    dtype: np.dtype = np.dtype(np.float32)

    def lookup(self, token: str, position: int) -> np.ndarray | None:
        return self.vectors.get(token)


@dataclass
class ContextualStore:
    """Per-occurrence layer matrices for one text, keyed by position."""

    model_id: str
    text_id: int
    layers: np.ndarray  # (k, l, d)

    @property
    def num_layers(self) -> int:
        return self.layers.shape[1]

    @property
    def dim(self) -> int:
        return self.layers.shape[2]

    @property
    def dtype(self) -> np.dtype:
        return self.layers.dtype

    def lookup(self, token: str, position: int) -> np.ndarray | None:
        if 0 <= position < self.layers.shape[0]:
            return self.layers[position]
        return None


def write_context_free_store(path: str, store: ContextFreeStore) -> None:
    def records():
        yield _MRE_HEAD.pack(len(store.vectors), store.num_layers, store.dim)
        for token, layers in store.vectors.items():
            if layers.shape != (store.num_layers, store.dim):
                raise FormatError(
                    f"token {token!r} has layer shape {layers.shape},"
                    f" expected {(store.num_layers, store.dim)}"
                )
            encoded = token.encode("utf-8")
            yield _U32.pack(len(encoded)) + encoded + layers.astype("<f4").tobytes()
    with atomic_write(path) as fh:
        fh.writelines(frame(MRE_MAGIC, _VERSION, records()))


def read_context_free_store(path: str, model_id: str) -> ContextFreeStore:
    (vocab, num_layers, dim), body = read_frame(path, MRE_MAGIC, _VERSION, _MRE_HEAD, (1,))
    payload = 4 * num_layers * dim
    vectors: dict[str, np.ndarray] = {}
    offset, end = _MRE_HEAD.size, len(body)
    for _ in range(vocab):
        if offset + 4 > end:
            raise FormatError("truncated file: expected a token length")
        start = offset + 4
        stop = start + _U32.unpack_from(body, offset)[0]
        offset = stop + payload
        if offset > end:
            raise FormatError(f"truncated file: expected {offset - start} bytes for a record")
        try:
            token = str(body[start:stop], "utf-8")
        except UnicodeDecodeError:
            raise FormatError(f"token at byte {start} is not UTF-8") from None
        if token in vectors:
            raise FormatError(f"duplicate token {token!r} in store")
        vectors[token] = np.ndarray((num_layers, dim), "<f4", body, stop)
    if offset != end:
        raise FormatError("trailing bytes after final record")
    return ContextFreeStore(model_id=model_id, num_layers=num_layers, dim=dim, vectors=vectors)


def write_contextual_store(path: str, store: ContextualStore) -> None:
    if store.layers.ndim != 3:
        raise FormatError(f"contextual layers must be k x l x d, got {store.layers.shape}")
    k, num_layers, dim = store.layers.shape
    head = _MRT_HEAD.pack(store.text_id, k, num_layers, dim)
    with atomic_write(path) as fh:
        fh.writelines(frame(MRT_MAGIC, _VERSION, (head, store.layers.astype("<f4").tobytes())))


def read_contextual_store(path: str, model_id: str) -> ContextualStore:
    (text_id, k, num_layers, dim), body = read_frame(path, MRT_MAGIC, _VERSION, _MRT_HEAD, (1,))
    claimed = 4 * k * num_layers * dim
    if len(body) - _MRT_HEAD.size != claimed:
        raise FormatError(f"truncated file or trailing bytes: header claims {claimed} bytes")
    layers = np.ndarray((k, num_layers, dim), "<f4", body, _MRT_HEAD.size)
    return ContextualStore(model_id=model_id, text_id=text_id, layers=layers)
