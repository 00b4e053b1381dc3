"""Binary embedding stores, each one checksummed frame (see ``multires.fileio``).

Context-free store "MRE1" (one file per model), version 3, little-endian body:
    u32 vocab V | u16 layers l | u32 dim d | u32 table bytes T
    then the token table: T bytes, the V tokens in row order, each UTF-8
    and terminated by a NUL byte
    then the rows: one (V, l, d) float32 block, row-major

Contextual store "MRT1" (one file per text per model), version 2, a library
format that no CLI command reads or writes, body:
    u32 text_id | u32 k | u16 l | u32 d
    then k*l*d float32, token-major then layer-major

Each format is read only at the version its writer emits; a file of any
other version raises FormatError. Every size a header claims is checked
against the bytes present before anything of that size is allocated, and
every FormatError a reader raises starts with the file's path. A loaded
store is read-only: the rows of an MRE file and the layers of an MRT
file are views of the mapped file. Both writers replace the file
atomically, so a failed write leaves the old one.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

import numpy as np

from multires.errors import FormatError, ShapeError
from multires.fileio import atomic_write, frame, names_file, read_frame

MRE_MAGIC = b"MRE1"
MRT_MAGIC = b"MRT1"
_MRE_VERSION = 3
_MRT_VERSION = 2
_MRE_HEAD = struct.Struct("<IHII")  # vocab, layers, dim, token-table bytes
_MRT_HEAD = struct.Struct("<IIHI")  # text id, k, layers, dim


class _RowView(Mapping):
    """The {token: (l, d) row} view of a context-free store, in row order."""

    def __init__(self, store: ContextFreeStore):
        self._store = store

    def __getitem__(self, token: str) -> np.ndarray:
        return self._store.rows[self._store.index[token]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.index)

    def __len__(self) -> int:
        return len(self._store.index)


class ContextFreeStore:
    """Token-keyed layer matrices; the same matrix for every occurrence.

    The matrices are one (V, l, d) block, ``rows``; ``index`` maps each
    token to its row, in row order. A store is built either from
    ``vectors``, a {token: (l, d) array} mapping copied into a new block
    of ``dtype``, or from ``tokens`` and their ``rows``, kept as given.
    """

    def __init__(
        self,
        model_id: str,
        num_layers: int,
        dim: int,
        vectors: Mapping[str, np.ndarray] | None = None,
        dtype=np.float32,
        *,
        tokens: Sequence[str] = (),
        rows: np.ndarray | None = None,
    ):
        if rows is None:
            vectors = vectors or {}
            tokens = list(vectors)
            rows = np.empty((len(tokens), num_layers, dim), dtype)
            for i, (token, layers) in enumerate(vectors.items()):
                if np.shape(layers) != (num_layers, dim):
                    raise ShapeError(
                        f"token {token!r} has layer shape {np.shape(layers)},"
                        f" expected {(num_layers, dim)}"
                    )
                rows[i] = layers
        index = dict(zip(tokens, range(len(tokens))))
        if len(index) != len(tokens):
            duplicate = next(t for t, n in Counter(tokens).items() if n > 1)
            raise FormatError(f"duplicate token {duplicate!r} in store")
        if rows.shape != (len(tokens), num_layers, dim):
            raise ShapeError(
                f"rows of shape {rows.shape}, expected {(len(tokens), num_layers, dim)}"
            )
        self.model_id = model_id
        self.num_layers = num_layers
        self.dim = dim
        self.rows = rows
        self.index = index

    @property
    def dtype(self) -> np.dtype:
        return self.rows.dtype

    @property
    def vectors(self) -> Mapping[str, np.ndarray]:
        return _RowView(self)

    def lookup(self, token: str, position: int) -> np.ndarray | None:
        row = self.index.get(token)
        return None if row is None else self.rows[row]

    def gather(self, tokens: Sequence[str]) -> tuple[np.ndarray, int]:
        """The (k, l, d) rows of ``tokens`` in order, zeros for a token with none; and the hits."""
        at = [self.index.get(t, -1) for t in tokens]
        if -1 not in at:
            return self.rows[at], len(tokens)
        at = np.array(at, np.intp)
        hit = at >= 0
        stack = np.zeros((len(tokens), self.num_layers, self.dim), self.dtype)
        stack[hit] = self.rows[at[hit]]
        return stack, int(np.count_nonzero(hit))


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

    def gather(self, tokens: Sequence[str]) -> tuple[np.ndarray, int]:
        """The layers of positions 0..len(tokens)-1, zeros past the text's end; and the hits."""
        hits = min(len(tokens), self.layers.shape[0])
        stack = np.zeros((len(tokens),) + self.layers.shape[1:], self.dtype)
        stack[:hits] = self.layers[:hits]
        return stack, hits


def write_context_free_store(path: str, store: ContextFreeStore) -> None:
    table = "".join(f"{token}\0" for token in store.index)
    if table.count("\0") != len(store.index):
        bad = next(t for t in store.index if "\0" in t)
        raise FormatError(f"token {bad!r} holds NUL, the token table's terminator")
    encoded = table.encode("utf-8")
    rows = np.ascontiguousarray(store.rows, dtype="<f4")
    head = _MRE_HEAD.pack(len(store.index), store.num_layers, store.dim, len(encoded))
    body = (head, encoded, memoryview(rows.reshape(-1)))  # no copy of the row block
    with atomic_write(path) as fh:
        fh.writelines(frame(MRE_MAGIC, _MRE_VERSION, body))


@names_file
def read_context_free_store(path: str, model_id: str) -> ContextFreeStore:
    (vocab, num_layers, dim, table), body = read_frame(path, MRE_MAGIC, _MRE_VERSION, _MRE_HEAD)
    start = _MRE_HEAD.size
    stop = start + table
    claimed = 4 * vocab * num_layers * dim
    if stop > len(body) or len(body) - stop != claimed:
        raise FormatError(
            f"truncated file or trailing bytes: header claims a {table}-byte"
            f" token table and {claimed} bytes of rows"
        )
    try:
        tokens = str(body[start:stop], "utf-8").split("\0")
    except UnicodeDecodeError as exc:
        raise FormatError(f"token table is not UTF-8 at byte {start + exc.start}") from None
    if tokens.pop() or len(tokens) != vocab:
        raise FormatError(f"token table does not hold {vocab} NUL-terminated tokens")
    rows = np.ndarray((vocab, num_layers, dim), "<f4", body, stop)
    return ContextFreeStore(model_id, num_layers, dim, tokens=tokens, rows=rows)


def write_contextual_store(path: str, store: ContextualStore) -> None:
    if store.layers.ndim != 3:
        raise FormatError(f"contextual layers must be k x l x d, got {store.layers.shape}")
    k, num_layers, dim = store.layers.shape
    head = _MRT_HEAD.pack(store.text_id, k, num_layers, dim)
    with atomic_write(path) as fh:
        fh.writelines(frame(MRT_MAGIC, _MRT_VERSION, (head, store.layers.astype("<f4").tobytes())))


@names_file
def read_contextual_store(path: str, model_id: str) -> ContextualStore:
    (text_id, k, num_layers, dim), body = read_frame(path, MRT_MAGIC, _MRT_VERSION, _MRT_HEAD)
    claimed = 4 * k * num_layers * dim
    if len(body) - _MRT_HEAD.size != claimed:
        raise FormatError(f"truncated file or trailing bytes: header claims {claimed} bytes")
    layers = np.ndarray((k, num_layers, dim), "<f4", body, _MRT_HEAD.size)
    return ContextualStore(model_id=model_id, text_id=text_id, layers=layers)
