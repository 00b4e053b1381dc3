"""Binary embedding stores.

Context-free store (one file per model), little-endian:
    magic "MRE1" | u16 version=1 | u32 vocab V | u16 layers l | u32 dim d
    then V records of [u32 byte-length | UTF-8 token | l*d float32 layer-major]

Contextual store (one file per text per model):
    magic "MRT1" | u16 version=1 | u32 text_id | u32 k | u16 l | u32 d
    then k*l*d float32, token-major then layer-major

Both readers reject bad magic, unsupported versions, and truncation. Both
writers replace the file atomically, so a failed write leaves the old one.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, field

import numpy as np

from multires.errors import FormatError
from multires.fileio import atomic_write, read_exact

MRE_MAGIC = b"MRE1"
MRT_MAGIC = b"MRT1"
_VERSION = 1


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
    with atomic_write(path) as fh:
        fh.write(MRE_MAGIC)
        fh.write(struct.pack("<HIHI", _VERSION, len(store.vectors), store.num_layers, store.dim))
        for token, layers in store.vectors.items():
            if layers.shape != (store.num_layers, store.dim):
                raise FormatError(
                    f"token {token!r} has layer shape {layers.shape},"
                    f" expected {(store.num_layers, store.dim)}"
                )
            encoded = token.encode("utf-8")
            fh.write(struct.pack("<I", len(encoded)))
            fh.write(encoded)
            fh.write(np.ascontiguousarray(layers, dtype="<f4").tobytes())


def read_context_free_store(path: str, model_id: str) -> ContextFreeStore:
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, "magic")
        if magic != MRE_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MRE_MAGIC!r}")
        version, vocab, num_layers, dim = struct.unpack("<HIHI", read_exact(fh, 12, "header"))
        if version != _VERSION:
            raise FormatError(f"unsupported version {version}")
        vectors: dict[str, np.ndarray] = {}
        payload = num_layers * dim * 4
        for _ in range(vocab):
            (token_len,) = struct.unpack("<I", read_exact(fh, 4, "token length"))
            token = read_exact(fh, token_len, "token").decode("utf-8")
            if token in vectors:
                raise FormatError(f"duplicate token {token!r} in store")
            raw = read_exact(fh, payload, f"layers of token {token!r}")
            vectors[token] = np.frombuffer(raw, dtype="<f4").reshape(num_layers, dim).copy()
        trailing = fh.read(1)
        if trailing:
            raise FormatError("trailing bytes after final record")
    return ContextFreeStore(
        model_id=model_id, num_layers=num_layers, dim=dim, vectors=vectors
    )


def write_contextual_store(path: str, store: ContextualStore) -> None:
    if store.layers.ndim != 3:
        raise FormatError(f"contextual layers must be k x l x d, got {store.layers.shape}")
    k, num_layers, dim = store.layers.shape
    with atomic_write(path) as fh:
        fh.write(MRT_MAGIC)
        fh.write(struct.pack("<HIIHI", _VERSION, store.text_id, k, num_layers, dim))
        fh.write(np.ascontiguousarray(store.layers, dtype="<f4").tobytes())


def read_contextual_store(path: str, model_id: str) -> ContextualStore:
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, "magic")
        if magic != MRT_MAGIC:
            raise FormatError(f"bad magic {magic!r}, expected {MRT_MAGIC!r}")
        version, text_id, k, num_layers, dim = struct.unpack(
            "<HIIHI", read_exact(fh, 16, "header")
        )
        if version != _VERSION:
            raise FormatError(f"unsupported version {version}")
        raw = read_exact(fh, k * num_layers * dim * 4, "layer payload")
        trailing = fh.read(1)
        if trailing:
            raise FormatError("trailing bytes after layer payload")
        layers = np.frombuffer(raw, dtype="<f4").reshape(k, num_layers, dim).copy()
    return ContextualStore(model_id=model_id, text_id=text_id, layers=layers)
