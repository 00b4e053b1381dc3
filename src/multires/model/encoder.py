"""Residual retrieval encoders with hand-derived backward passes.

The convolutional encoder runs conv+ReLU blocks over the text matrix,
average-pools over positions, scales the pooled vector, adds the mean of
the input rows as a residual, and unit-normalizes. The fully-connected
variant replaces the conv blocks with one dense layer on the mean row.
Both share parameters between the query and document branches by
construction: there is a single parameter object.
"""

from __future__ import annotations

import functools
import itertools
import math
import threading
from dataclasses import dataclass, field, replace
from typing import Mapping, Sequence

import numpy as np

from multires.errors import (
    ConfigError,
    DegenerateVectorError,
    IntegrityError,
    NumericalError,
    ShapeError,
)
from multires.numerics import kernels
from multires.numerics.ops import (
    l2_normalize,
    l2_normalize_backward,
    mean_over_positions,
    mean_over_positions_backward,
    relu,
    relu_backward,
)

DEFAULT_WINDOW = 5
DEFAULT_SCALE = 0.05
DEFAULT_DEPTH = 2
MAX_DEPTH = 4


@dataclass
class ConvBlock:
    # Kernels sit in memory as (ws, d_in, n_k), so conv_forward's GEMM operand is a free view.
    kernels: np.ndarray  # (n_k, ws, d_in); n_k == d_in == d''
    bias: np.ndarray     # (n_k,)

    def __post_init__(self):
        if self.kernels.ndim == 3:  # copies only kernels in another order
            self.kernels = np.ascontiguousarray(self.kernels.transpose(1, 2, 0)).transpose(2, 0, 1)


@dataclass
class ConvRRParams:
    blocks: list[ConvBlock]
    window: int
    scale: float

    def __post_init__(self):
        if self.window % 2 == 0 or self.window < 1:
            raise ConfigError(f"window must be odd and positive, got {self.window}")
        if not 1 <= len(self.blocks) <= MAX_DEPTH:
            raise ConfigError(f"depth must be 1..{MAX_DEPTH}, got {len(self.blocks)}")
        dim = self.blocks[0].kernels.shape[2]
        for i, blk in enumerate(self.blocks):
            if blk.kernels.shape != (dim, self.window, dim):
                raise ShapeError(
                    f"block {i} kernels {blk.kernels.shape} != {(dim, self.window, dim)}"
                )
            if blk.bias.shape != (dim,):
                raise ShapeError(f"block {i} bias {blk.bias.shape} != {(dim,)}")

    @property
    def dim(self) -> int:
        return self.blocks[0].kernels.shape[2]

    @property
    def depth(self) -> int:
        return len(self.blocks)

    def tensors(self) -> list[np.ndarray]:
        out = []
        for blk in self.blocks:
            out.append(blk.kernels)
            out.append(blk.bias)
        return out

    def tensor_names(self) -> list[str]:
        return [f"block{i}.{part}" for i in range(1, self.depth + 1) for part in ("kernels", "bias")]

    def replace_tensors(self, tensors: list[np.ndarray]) -> "ConvRRParams":
        blocks = [
            ConvBlock(kernels=tensors[2 * i], bias=tensors[2 * i + 1])
            for i in range(len(self.blocks))
        ]
        return ConvRRParams(blocks=blocks, window=self.window, scale=self.scale)


@dataclass
class FCRRParams:
    weight: np.ndarray  # (d'', d'')
    bias: np.ndarray    # (d'',)
    scale: float = DEFAULT_SCALE

    def __post_init__(self):
        if self.weight.ndim != 2 or self.weight.shape[0] != self.weight.shape[1]:
            raise ShapeError(f"weight must be square, got {self.weight.shape}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(f"bias {self.bias.shape} != {(self.weight.shape[0],)}")

    @property
    def dim(self) -> int:
        return self.weight.shape[0]

    @property
    def depth(self) -> int:
        return 1

    @property
    def window(self) -> int:
        return 1

    def tensors(self) -> list[np.ndarray]:
        return [self.weight, self.bias]

    def tensor_names(self) -> list[str]:
        return ["weight", "bias"]

    def replace_tensors(self, tensors: list[np.ndarray]) -> "FCRRParams":
        return FCRRParams(weight=tensors[0], bias=tensors[1], scale=self.scale)


def _glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int, dtype):
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-bound, bound, size=shape).astype(dtype)


def init_convrr_params(
    dim: int,
    depth: int = DEFAULT_DEPTH,
    window: int = DEFAULT_WINDOW,
    scale: float = DEFAULT_SCALE,
    rng: np.random.Generator | None = None,
    dtype=np.float32,
) -> ConvRRParams:
    """Glorot-uniform kernels, zero biases."""
    rng = rng if rng is not None else np.random.default_rng(0)
    blocks = []
    fan = window * dim
    for _ in range(depth):
        blocks.append(
            ConvBlock(
                kernels=_glorot_uniform(rng, (dim, window, dim), fan, fan, dtype),
                bias=np.zeros(dim, dtype=dtype),
            )
        )
    return ConvRRParams(blocks=blocks, window=window, scale=scale)


def init_fcrr_params(
    dim: int,
    scale: float = DEFAULT_SCALE,
    rng: np.random.Generator | None = None,
    dtype=np.float32,
) -> FCRRParams:
    rng = rng if rng is not None else np.random.default_rng(0)
    return FCRRParams(
        weight=_glorot_uniform(rng, (dim, dim), dim, dim, dtype),
        bias=np.zeros(dim, dtype=dtype),
        scale=scale,
    )


def zero_convrr_params(
    dim: int,
    depth: int = DEFAULT_DEPTH,
    window: int = DEFAULT_WINDOW,
    scale: float = DEFAULT_SCALE,
    dtype=np.float32,
) -> ConvRRParams:
    """All-zero kernels and biases: the encoder collapses to the residual mean."""
    blocks = [
        ConvBlock(
            kernels=np.zeros((dim, window, dim), dtype=dtype),
            bias=np.zeros(dim, dtype=dtype),
        )
        for _ in range(depth)
    ]
    return ConvRRParams(blocks=blocks, window=window, scale=scale)


def _check_batch(xs: np.ndarray, dim: int) -> None:
    if xs.ndim != 3:
        raise ShapeError(f"expected B x k x d batch, got {xs.shape}")
    if xs.shape[2] != dim:
        raise ShapeError(f"input dim {xs.shape[2]} != encoder dim {dim}")
    if xs.shape[1] < 1:
        raise ShapeError("texts must have at least one position")


# --- convolutional encoder, batched over texts of equal length ---


def convrr_forward_many(xs: np.ndarray, params: ConvRRParams) -> tuple[np.ndarray, dict]:
    """xs (B,k,d'') -> unit rows (B,d'') plus the cache for the backward pass."""
    _check_batch(xs, params.dim)
    h = xs
    pre_acts = []
    block_inputs = []
    for blk in params.blocks:
        block_inputs.append(h)
        z = kernels.conv_forward(h, blk.kernels, blk.bias)
        pre_acts.append(z)
        h = relu(z)
    raw = params.scale * mean_over_positions(h) + mean_over_positions(xs)
    cache = {"pre_acts": pre_acts, "block_inputs": block_inputs, "raw": raw}
    return l2_normalize(raw), cache


def convrr_backward_many(
    params: ConvRRParams, cache: dict, upstream: np.ndarray, input_grad: bool = True
) -> tuple[list[np.ndarray], np.ndarray | None]:
    """Gradients of the batched forward: (per-tensor grads, grad wrt xs or None).

    With ``input_grad`` false, the first block skips its input gradient and
    the grad wrt xs is None.
    """
    k = cache["block_inputs"][0].shape[1]
    g_raw = l2_normalize_backward(cache["raw"], upstream)
    gh = mean_over_positions_backward(params.scale * g_raw, k)
    grads: list[np.ndarray] = []
    for i in range(len(params.blocks) - 1, -1, -1):
        gz = relu_backward(cache["pre_acts"][i], gh)
        gh, gw, gb = kernels.conv_backward(
            cache["block_inputs"][i], params.blocks[i].kernels, gz, input_grad or i > 0
        )
        grads.append(gb)
        grads.append(gw)
    grads.reverse()
    if not input_grad:
        return grads, None
    return grads, gh + mean_over_positions_backward(g_raw, k)


def convrr_forward(x: np.ndarray, params: ConvRRParams) -> np.ndarray:
    """Encode one (k,d'') text matrix into a unit vector."""
    out, _ = convrr_forward_many(x[None], params)
    return out[0]


def convrr_backward(
    x: np.ndarray, params: ConvRRParams, upstream: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Recompute the forward and return ([gk1, gb1, gk2, gb2, ...], grad_x)."""
    _, cache = convrr_forward_many(x[None], params)
    grads, gx = convrr_backward_many(params, cache, upstream[None])
    return grads, gx[0]


# --- fully-connected encoder ---


def fcrr_forward_many(xs: np.ndarray, params: FCRRParams) -> tuple[np.ndarray, dict]:
    """Dense variant: relu(W v + b) scaled and added back to the mean row v."""
    _check_batch(xs, params.dim)
    v = mean_over_positions(xs)              # (B, d)
    z = v @ params.weight.T + params.bias    # (B, d)
    raw = params.scale * relu(z) + v
    cache = {"k": xs.shape[1], "v": v, "z": z, "raw": raw}
    return l2_normalize(raw), cache


def fcrr_backward_many(
    params: FCRRParams, cache: dict, upstream: np.ndarray, input_grad: bool = True
) -> tuple[list[np.ndarray], np.ndarray | None]:
    g_raw = l2_normalize_backward(cache["raw"], upstream)
    gz = relu_backward(cache["z"], params.scale * g_raw)
    gw = gz.T @ cache["v"]
    gb = gz.sum(axis=0)
    if not input_grad:
        return [gw, gb], None
    gv = gz @ params.weight + g_raw
    return [gw, gb], mean_over_positions_backward(gv, cache["k"])


def fcrr_forward(x: np.ndarray, params: FCRRParams) -> np.ndarray:
    out, _ = fcrr_forward_many(x[None], params)
    return out[0]


def fcrr_backward(
    x: np.ndarray, params: FCRRParams, upstream: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    _, cache = fcrr_forward_many(x[None], params)
    grads, gx = fcrr_backward_many(params, cache, upstream[None])
    return grads, gx[0]


# --- generic helpers over either encoder ---


def forward_many(xs: np.ndarray, params) -> tuple[np.ndarray, dict]:
    if isinstance(params, ConvRRParams):
        return convrr_forward_many(xs, params)
    if isinstance(params, FCRRParams):
        return fcrr_forward_many(xs, params)
    raise ConfigError(f"unknown parameter type {type(params).__name__}")


def backward_many(params, cache: dict, upstream: np.ndarray, input_grad: bool = True):
    if isinstance(params, ConvRRParams):
        return convrr_backward_many(params, cache, upstream, input_grad)
    if isinstance(params, FCRRParams):
        return fcrr_backward_many(params, cache, upstream, input_grad)
    raise ConfigError(f"unknown parameter type {type(params).__name__}")


def mean_embedding_encode(x: np.ndarray) -> np.ndarray:
    """Baseline encoder: unit-normalized mean of the text rows."""
    return l2_normalize(mean_over_positions(x))


@dataclass(frozen=True)
class TokenTexts:
    """Texts as rows of one table: text i's (k_i, d'') matrix is ``table[ids[i]]``.

    ``names`` holds the texts' ids, in order, or nothing; ``kind`` says what
    the texts are. An error about text i names it by kind and id, or by
    kind and position when the texts have no names.

    The ids are packed once, on construction: text i's ids are
    ``flat[starts[i]:starts[i] + lengths[i]]``, so any block of texts of
    one length is gathered with one fancy index and no Python step per text.
    """

    table: np.ndarray  # (V, d'')
    ids: Sequence[np.ndarray]  # one intp array of k_i row indices per text
    names: Sequence[str] = ()
    kind: str = "text"
    flat: np.ndarray = field(init=False, repr=False, compare=False)     # intp
    starts: np.ndarray = field(init=False, repr=False, compare=False)   # intp, one per text
    lengths: np.ndarray = field(init=False, repr=False, compare=False)  # intp, one per text

    def __post_init__(self):
        if len(self.names) not in (0, len(self.ids)):
            raise ShapeError(f"{len(self.names)} names for {len(self.ids)} texts")
        lengths = np.fromiter(map(len, self.ids), np.intp, len(self.ids))
        object.__setattr__(self, "flat", np.concatenate([np.empty(0, np.intp), *self.ids]))
        object.__setattr__(self, "starts", np.cumsum(lengths) - lengths)
        object.__setattr__(self, "lengths", lengths)

    def __len__(self) -> int:
        return len(self.ids)

    def name(self, i: int) -> str:
        return f"{self.kind} {self.names[i]!r}" if self.names else f"{self.kind} {i}"


def as_token_texts(texts, kind: str, dtype=None) -> TokenTexts:
    """Named texts of one kind as TokenTexts, the table cast to ``dtype`` if given.

    ``texts`` are TokenTexts with names, an {id: (k_i, d'') matrix} mapping
    or (id, matrix) pairs. Matrices are copied, in order, into one table
    (text i's ids are the rows its matrix occupies), which keeps their
    dtype unless ``dtype`` is given; a table already in ``dtype`` is kept.
    """
    if isinstance(texts, TokenTexts):
        table = texts.table if dtype is None else texts.table.astype(dtype, copy=False)
        texts = replace(texts, table=table, kind=kind)
    else:
        pairs = list(texts.items() if isinstance(texts, Mapping) else texts)
        names = tuple(name for name, _ in pairs)
        matrices = [np.asarray(m) for _, m in pairs]
        for name, m in zip(names, matrices):
            if m.ndim != 2 or m.shape[1] != matrices[0].shape[-1]:
                expected = f"(k, {matrices[0].shape[-1]})"
                raise ShapeError(f"{kind} {name!r}: matrix of shape {m.shape}, expected {expected}")
        if not matrices:
            return TokenTexts(np.empty((0, 0), dtype or np.float32), [], (), kind)
        table = np.concatenate(matrices, dtype=dtype)
        rows = np.arange(len(table), dtype=np.intp)
        lengths = [len(m) for m in matrices]
        starts = itertools.accumulate(lengths, initial=0)
        ids = [rows[start:start + k] for start, k in zip(starts, lengths)]
        texts = TokenTexts(table, ids, names, kind)
    if len(texts) and not texts.names:
        raise IntegrityError(f"{kind} texts carry no ids")
    return texts


# Most cells (rows x K, ``_text_cells``) of the largest blocks that encode_texts'
# batched forwards hold at once; bounds their temporary arrays.
ENCODE_CELLS = 1 << 21


def _gather(texts, part: Sequence[int], k: int) -> np.ndarray:
    """The (len(part), k, d'') block of the texts at ``part``, all of length k.

    TokenTexts gather it from their table with one fancy index over their
    packed ids; per-text matrices concatenate only the part's own, so the
    inputs are never copied whole. A part of one C-order matrix is a view
    of it: the copy that concatenating it would make holds the same values
    in the same layout, so the sums over its rows keep their order.
    """
    if isinstance(texts, TokenTexts):
        return texts.table[texts.flat[texts.starts[part][:, None] + np.arange(k)]]
    first = texts[part[0]]
    try:
        if len(part) == 1 and type(first) is np.ndarray and first.flags.c_contiguous:
            rows = first
        else:
            rows = np.concatenate([texts[i] for i in part])
    except ValueError as exc:
        raise ShapeError(f"text matrices do not concatenate: {exc}") from None
    if rows.ndim != 2:
        raise ShapeError(f"text matrices must be (k, d), got rows of shape {rows.shape[1:]}")
    return rows.reshape(len(part), k, rows.shape[1])


def _text_cells(texts, params, k: int) -> int:
    """Cells (rows x K) one text of k positions adds to a forward's largest block.

    That block is the first conv GEMM's k × ws·d'' window copy, or the
    gathered k × d'' input for fcrr (window 1: its dense GEMM reads one
    mean row per text) and the baseline.
    """
    if params is not None:
        return k * params.window * params.dim
    return k * (texts.table if isinstance(texts, TokenTexts) else texts[0]).shape[1]


def _lengths(texts) -> np.ndarray:
    """Each text's number of positions, as one intp array."""
    if isinstance(texts, TokenTexts):
        return texts.lengths
    return np.fromiter(map(len, texts), np.intp, len(texts))


def _length_groups(lengths: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(k, positions) of each group of equal ``lengths``, shortest first.

    The groups come from one stable argsort of the lengths, so each holds
    its positions in input order, as an intp array. Lengths that are all
    equal, as those of a single text, form one group without the sort.
    """
    if not lengths.size:
        return []
    if (lengths == lengths[0]).all():
        return [(int(lengths[0]), np.arange(lengths.size))]
    order = np.argsort(lengths, kind="stable")
    ks = lengths[order]
    cuts = [0, *(np.flatnonzero(ks[1:] != ks[:-1]) + 1).tolist(), order.size]
    return [(int(ks[lo]), order[lo:hi]) for lo, hi in zip(cuts, cuts[1:])]


def _parts(texts, params, max_cells: int) -> list[tuple[int, np.ndarray]]:
    """(k, input positions) of each part of each group of equal-length texts, in run order.

    ``texts`` are TokenTexts or a sequence of (k_i, d'') matrices. Groups
    run shortest texts first, in input order within a group, and a group
    whose largest block would hold more than ``max_cells`` cells (rows x K,
    ``_text_cells``) runs in near-equal parts of whole texts. If f texts
    fit the budget (f >= 1, so a text too large for it runs alone), a part
    holds at most f texts and, since no part is smaller than the group
    over the number of parts, at least ceil(f / 2). So each part of a split
    group reads more than (max_cells - one text's cells) / 2 cells: enough
    rows that the BLAS computes each row of the product as it does inside
    the whole group, and the parts' outputs equal one forward of the group
    bit for bit (checked on the BLAS in use by ``tests/test_encode_parts.py``).
    """
    parts = []
    for k, idxs in _length_groups(_lengths(texts)):
        n = -(-len(idxs) // max(1, max_cells // _text_cells(texts, params, k)))
        parts += [(k, idxs[p * len(idxs) // n : (p + 1) * len(idxs) // n]) for p in range(n)]
    return parts


def _forward_part(
    texts, params, k: int, idxs: Sequence[int], positions: np.ndarray | None = None
) -> tuple[np.ndarray, dict | None]:
    """Outputs and cache of one batched forward of the texts at ``idxs``, all of length k.

    With ``positions``, ``idxs`` are batch positions of the texts at
    ``positions[idxs]``. The forward runs on the block ``_gather`` builds;
    with ``params`` None, through one ``mean_over_positions`` and one
    ``l2_normalize`` (the mean-embedding baseline, no cache), whose rows
    equal ``mean_embedding_encode`` of each text alone bit for bit. A text
    that encodes to a zero-norm vector raises ``DegenerateVectorError`` at
    its position in ``idxs``' frame, named by ``TokenTexts.name`` or as
    "text i".
    """
    part = idxs if positions is None else positions[idxs]
    try:
        xs = _gather(texts, part, k)
        if params is None:
            return l2_normalize(mean_over_positions(xs)), None
        return forward_many(xs, params)
    except DegenerateVectorError as exc:
        i = part[exc.position]
        name = texts.name(i) if isinstance(texts, TokenTexts) else f"text {i}"
        raise exc.at(int(idxs[exc.position]), name) from None


def grouped_forward(
    texts, params, positions: np.ndarray | None = None
) -> tuple[np.ndarray, list[tuple[np.ndarray, dict]]]:
    """Encode texts of possibly different lengths and keep what the backward needs.

    ``texts`` are TokenTexts or a sequence of (k_i, d'') matrices. The
    batch is every text, or, with ``positions`` (intp, into TokenTexts),
    the texts at ``positions`` in that order, as training gathers each
    batch with one fancy index per length group. Returns the outputs, one
    row per batch text in order, and per length group its batch positions
    (intp) and forward cache, which ``grouped_backward`` consumes. A group
    is never split into parts: its kernel gradient is one GEMM summing over
    all its texts, and parts would change that sum's order. A zero-norm
    text raises ``DegenerateVectorError`` at its batch position, named by
    its id (see ``_forward_part``).
    """
    lengths = _lengths(texts) if positions is None else texts.lengths[positions]
    outputs = np.zeros((0, params.dim), dtype=np.float32)
    groups = []
    for k, idxs in _length_groups(lengths):
        out, cache = _forward_part(texts, params, k, idxs, positions)
        if not groups:
            outputs = np.empty((len(lengths), params.dim), dtype=out.dtype)
        outputs[idxs] = out
        groups.append((idxs, cache))
    return outputs, groups


def grouped_backward(
    params, groups: list[tuple[np.ndarray, dict]], upstream: np.ndarray
) -> list[np.ndarray]:
    """Parameter gradients of ``grouped_forward``, summed over its length groups.

    The gradient with respect to the inputs is not computed.
    """
    total: list[np.ndarray] = []
    for idxs, cache in groups:
        grads, _ = backward_many(params, cache, upstream[idxs], input_grad=False)
        total = [t + g for t, g in zip(total, grads)] if total else grads
    return total


# Most parts encode_texts runs at once. Each concurrent part reads at most
# ENCODE_CELLS // CONCURRENT_PARTS cells, the size measured on two
# workers: smaller parts cost more per text.
CONCURRENT_PARTS = 4


def _part_cells(workers: int) -> int:
    """Cells (``_text_cells``) a part of encode_texts may hold at ``workers`` workers."""
    return ENCODE_CELLS if workers == 1 else ENCODE_CELLS // CONCURRENT_PARTS


def _outputs(texts, params, parts) -> np.ndarray:
    """Uninitialized outputs of encode_texts: one row per text, in the first part's dtype.

    That dtype is the one the first part's forward gives: its inputs' dtype
    as a mean over positions, promoted with the encoder's tensors.
    """
    k, first = parts[0]
    if isinstance(texts, TokenTexts):
        dtypes, width = {texts.table.dtype}, texts.table.shape[1]
    else:
        rows = [np.asarray(texts[i]) for i in first]
        dtypes, width = {r.dtype for r in rows}, rows[0].shape[-1]
    dtype = np.empty((1, 0), np.result_type(*dtypes)).mean(axis=0).dtype
    if params is None:
        return np.empty((len(texts), width), dtype)
    return np.empty((len(texts), params.dim), np.result_type(dtype, *params.tensors()))


def encode_texts(texts, params) -> np.ndarray:
    """Encode texts of possibly different lengths; rows follow input order.

    ``texts`` are TokenTexts or a sequence of (k_i, d'') matrices;
    ``params`` are ConvRRParams/FCRRParams, or None for the mean-embedding
    baseline. The outputs equal ``grouped_forward``'s bit for bit, but each
    length group runs in parts (``_parts``), and each part's cache is
    dropped as soon as the part is done.

    With ``kernels.split_workers()`` above 1 and two or more parts, the
    parts run concurrently, one whole forward per worker: this thread and
    up to ``CONCURRENT_PARTS - 1`` of the kernels' pool threads (one fewer
    than ``split_workers()`` at most) each take the next part in run order
    and write its rows into the outputs, and the GEMMs inside a part run
    inline (splits do not nest). A part then holds at most
    ``ENCODE_CELLS // CONCURRENT_PARTS`` cells in its largest block
    (``_text_cells``), so the parts in flight hold at most ``ENCODE_CELLS``
    together; otherwise, one part after another, a part holds at most
    ``ENCODE_CELLS``. (A text larger than that runs alone.) So the memory
    beyond the inputs and the outputs is bounded whatever the number of
    texts and whichever the encoder. Since each part's rows equal one forward of its group, the bytes
    do not depend on the number of workers.

    A single text, as a served query, skips the planning: it is one part
    whatever the number of workers, so it runs as one forward on this
    thread without reading the worker count, and a one-text list is
    gathered without a copy (``_gather``).

    A text that encodes to a zero-norm vector raises ``DegenerateVectorError``
    naming it (see ``_forward_part``). When several parts fail, the error of
    the first in run order is raised, as a serial run would.
    """
    if len(texts) == 1:  # one text, as a served query: one part, whatever the workers
        k = len(texts.ids[0] if isinstance(texts, TokenTexts) else texts[0])
        return _forward_part(texts, params, k, [0])[0]
    workers = kernels.split_workers()
    parts = _parts(texts, params, _part_cells(workers))
    if not parts:
        return np.zeros((0, params.dim if params is not None else 0), dtype=np.float32)
    if len(parts) == 1:  # one group in one part: its rows are in input order
        return _forward_part(texts, params, *parts[0])[0]
    outputs = _outputs(texts, params, parts)
    pending = iter(enumerate(parts))
    failures: dict[int, BaseException] = {}
    lock = threading.Lock()

    def worker() -> None:
        while True:
            with lock:  # no new part once one has failed
                item = None if failures else next(pending, None)
            if item is None:
                return
            i, (k, part) = item
            try:
                out, _ = _forward_part(texts, params, k, part)
                outputs[part] = out
            except BaseException as exc:  # re-raised below, once every worker is done
                with lock:
                    failures[i] = exc
                return

    if workers > 1:
        kernels.run_concurrently(worker, min(workers, CONCURRENT_PARTS, len(parts)))
    else:
        worker()
    if failures:
        # Parts are taken in run order, so every part before a failed one ran.
        raise failures[min(failures)]
    return outputs


def squared_distances(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Row-wise squared Euclidean distances, the elementwise sums ``nearest`` returns.

    ``np.sum((vectors - query) ** 2, axis=1)``, through the ufuncs those calls make.
    """
    return np.add.reduce(np.square(vectors - query), axis=1)


# Query x vector cells estimated per block; bounds nearest's temporary arrays.
BLOCK_CELLS = 1 << 15


# Cells per chunk of row_sq_norms; bounds its float64 copy of the rows.
NORM_CELLS = 1 << 18


def row_sq_norms(vectors: np.ndarray) -> np.ndarray:
    """Squared row norms in float64, the form ``nearest`` takes.

    The rows are converted to float64 in chunks of at most ``NORM_CELLS``
    cells (or one row); a row's norm does not depend on the chunking.
    """
    v = np.asarray(vectors)
    out = np.empty(v.shape[0], dtype=np.float64)
    step = max(1, NORM_CELLS // max(1, v.shape[1]))
    for lo in range(0, v.shape[0], step):
        chunk = np.asarray(v[lo:lo + step], dtype=np.float64)
        np.einsum("ij,ij->i", chunk, chunk, out=out[lo:lo + step])
    return out


def _gamma(n: int, u: float) -> float:
    """Higham's gamma_n = n u / (1 - n u); inf once n u reaches 1."""
    return n * u / (1.0 - n * u) if n * u < 1.0 else np.inf


@functools.lru_cache(maxsize=64)
def _eps_terms(dtype: np.dtype, d: int) -> tuple[float, float, float]:
    """(rate, tiny, largest) of ``nearest``'s eps for rows of width d in ``dtype``.

    eps = rate * B + tiny, and a query whose float64 bound B exceeds
    ``largest``, the dtype's largest finite value (at most float64's), gets
    eps = inf.
    """
    finfo = np.finfo(dtype)
    rate = (3 * _gamma(d + 2, float(finfo.eps) / 2) + 8 * _gamma(d + 4, 2.0**-53)) * 1.01
    largest = float(min(finfo.max, np.finfo(np.float64).max))
    return rate, 4 * (d + 2) * float(finfo.smallest_subnormal), largest


def _check_finite_rows(name: str, norms: np.ndarray) -> float:
    """The largest squared row norm, 0.0 for none; raises for the first that is not finite.

    Squared norms are NaN, +inf or at least 0, so one maximum finds a row
    that is not finite: NaN and +inf propagate through it.
    """
    top = float(np.maximum.reduce(norms, initial=0.0))
    if not math.isfinite(top):
        raise NumericalError(f"{name} row {np.flatnonzero(~np.isfinite(norms))[0]} is non-finite")
    return top


def _cells(mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.nonzero`` of a 2-D mask, through the flat scan, which numpy runs faster."""
    return np.divmod(np.flatnonzero(mask), mask.shape[1])


def nearest(
    queries: np.ndarray,
    vectors: np.ndarray,
    k: int,
    *,
    sq_norms: np.ndarray | None = None,
    exclude: np.ndarray | None = None,
    floor: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-k rows of ``vectors`` for each query, ranked by (distance, index).

    Returns ``(indices, distances)``, both (Q, k') with k' = min(k, number
    of rows a query may pick). Row q equals
    ``np.argsort(squared_distances(vectors, queries[q]), kind="stable")[:k]``
    and the distances at those indices, bit for bit, whatever k, ties and
    dtype. ``sq_norms`` are the float64 squared row norms of ``vectors``
    (``row_sq_norms``), passed in when the same vectors serve many calls.
    ``exclude`` holds one column per query that it may not pick. With
    ``floor``, a query skips every row whose exact distance is below
    ``floor[q]``; entries past the rows it has left read index -1 and
    distance inf.

    The ranking runs in blocks of at most ``BLOCK_CELLS`` cells (a block of
    one query, as ``search`` ranks, takes its candidates straight from its
    row of the estimates):

    1. One GEMM in the inputs' dtype estimates every distance,
       E = |q|^2 + |v|^2 - 2 q.v, with the squared norms in float64.
    2. Only rows whose E lies within 2 eps of the query's k-th smallest E
       stay candidates.
    3. The candidates' distances are recomputed by ``squared_distances``'s
       elementwise sums and ranked by (distance, index).

    Why eps suffices. Let u be the unit roundoff of the inputs' result
    dtype, gamma_n(u) = n u / (1 - n u), d the width, and S = |q - v|^2
    the exact distance, so S <= B = (|q| + max|v|)^2. The reference
    distance D sums d terms fl(fl(q_i - v_i)^2): each term carries three
    roundings and the sum d - 1 more, in any order, so
    |D - S| <= gamma_{d+2}(u) S. The product q.v in dtype errs by at most
    gamma_d(u) sum|q_i v_i| <= gamma_d(u) |q||v| <= gamma_d(u) B / 4,
    whatever order the BLAS sums in, and E doubles that error. The float64
    norms err by gamma_d(2^-53) times |q|^2 or |v|^2, and forming E
    and the thresholds adds a few roundings of order 2^-53 B. Together
    |E - D| <= eps with

        eps = (3 gamma_{d+2}(u) + 8 gamma_{d+4}(2^-53)) B * 1.01
              + 4 (d + 2) * smallest subnormal of dtype,

    where 1.01 covers the rounding of eps itself and the last term covers
    underflow in the products and squares. Then every row within the
    query's exact top k has D <= (k-th smallest D) <= (k-th smallest E) +
    eps, so E <= k-th E + 2 eps: the filter never drops a row the full sort
    would return, ties at the k-th distance included. With ``floor``, a row
    is skipped outright when E + eps < floor, kept outright when
    E - eps >= floor, and recomputed when E lies in that band, so the
    ``< floor`` test is made on exact distances. A query whose B exceeds
    the dtype's range (the product could overflow) gets eps = inf: all its
    rows are recomputed. The argument needs finite inputs, so a query or
    vector row that is non-finite, or whose squared norm overflows float64,
    raises ``NumericalError``.
    """
    q = np.asarray(queries)
    v = np.asarray(vectors)
    if q.ndim != 2 or v.ndim != 2 or q.shape[1] != v.shape[1]:
        raise ShapeError(f"query block {q.shape} and vectors {v.shape} do not match")
    if k < 1:
        raise ShapeError(f"k must be >= 1, got {k}")
    dtype = np.result_type(q, v)
    (n_q, d), n = q.shape, v.shape[0]
    kk = min(k, n - (exclude is not None))
    q_norms = row_sq_norms(q)
    v_norms = row_sq_norms(v) if sq_norms is None else sq_norms
    _check_finite_rows("query", q_norms)
    v_top = math.sqrt(_check_finite_rows("vector", v_norms))
    if kk < 1 or n_q == 0:
        return np.zeros((n_q, max(kk, 0)), dtype=np.intp), np.zeros((n_q, max(kk, 0)), dtype=dtype)

    rate, tiny, largest = _eps_terms(dtype, d)
    bound = np.sqrt(q_norms)
    bound += v_top
    np.square(bound, out=bound)  # B = (|q| + max|v|)^2
    eps = bound * rate
    eps += tiny
    wide = None if bound.max() <= largest else ~(bound <= largest)
    if wide is not None:
        eps[wide] = np.inf
    eps2 = eps * 2
    qd, vd = q.astype(dtype, copy=False), v.astype(dtype, copy=False)

    indices = np.empty((n_q, kk), dtype=np.intp)
    dists = np.empty((n_q, kk), dtype=dtype)
    step = max(1, BLOCK_CELLS // n)
    for lo in range(0, n_q, step):
        hi = min(lo + step, n_q)
        qb, e_b = qd[lo:hi], eps[lo:hi, None]
        est = np.multiply(qb @ vd.T, -2.0, dtype=np.float64)
        est += q_norms[lo:hi, None]
        est += v_norms
        if wide is not None:
            est[wide[lo:hi]] = 0.0  # the product may have overflowed; eps is inf
        if exclude is not None:
            excluded = (np.arange(hi - lo), exclude[lo:hi])
        allowed = None
        if floor is not None:
            f = np.asarray(floor[lo:hi], dtype=dtype).astype(np.float64)[:, None]
            allowed = ~(est + e_b < f)
            if exclude is not None:
                allowed[excluded] = False  # so the band below never recomputes it
            rows, cols = _cells(allowed & ~(est - e_b >= f))
            exact = squared_distances(vd[cols], qb[rows])
            allowed[rows, cols] = ~(exact < f[rows, 0])
            est[rows, cols] = exact
        if exclude is not None:
            est[excluded] = np.inf  # kk <= n - 1 leaves kk other columns to rank
        masked = est if allowed is None else np.where(allowed, est, np.inf)
        if kk == 1:  # the value at argmin is min(axis=1)'s, in about half its time
            kth = masked[np.arange(hi - lo), masked.argmin(axis=1)]
        else:
            kth = np.partition(masked, kk - 1, axis=1)[:, kk - 1]
        cand = est <= kth[:, None] + eps2[lo:hi, None]
        if exclude is not None:
            cand[excluded] = False  # inf <= inf where eps or the k-th estimate is inf
        if allowed is not None:
            cand &= allowed
        if hi - lo == 1:  # one query: its candidates are the columns of one row
            cols = cand[0].nonzero()[0]
            exact = squared_distances(vd[cols], qb)
            picks = np.lexsort((cols, exact))[:kk]
            found = picks.size  # below kk only when the floor leaves fewer rows
            indices[lo, :found], dists[lo, :found] = cols[picks], exact[picks]
            if found < kk:
                indices[lo, found:], dists[lo, found:] = -1, np.inf
            continue
        rows, cols = _cells(cand)
        exact = squared_distances(vd[cols], qb[rows])
        order = np.lexsort((cols, exact, rows))
        counts = np.bincount(rows, minlength=hi - lo)
        take = (counts.cumsum() - counts)[:, None] + np.arange(kk)
        cols, exact = cols[order], exact[order]
        if floor is not None:
            # A query may run out of rows above its floor: those picks read
            # a sentinel appended last, index -1 at distance inf.
            take[np.arange(kk) >= counts[:, None]] = -1
            cols, exact = np.append(cols, -1), np.append(exact, np.inf)
        indices[lo:hi], dists[lo:hi] = cols[take], exact[take]
    return indices, dists
