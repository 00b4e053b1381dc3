"""Residual retrieval encoders with hand-derived backward passes.

The convolutional encoder runs conv+ReLU blocks over the text matrix,
average-pools over positions, scales the pooled vector, adds the mean of
the input rows as a residual, and unit-normalizes. The fully-connected
variant replaces the conv blocks with one dense layer on the mean row.
Both share parameters between the query and document branches by
construction: there is a single parameter object.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from multires.errors import ConfigError, ContractError, ShapeError
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
    kernels: np.ndarray  # (n_k, ws, d_in); n_k == d_in == d''
    bias: np.ndarray     # (n_k,)


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
    params: ConvRRParams, cache: dict, upstream: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """Gradients of the batched forward: (per-tensor grads, grad wrt xs)."""
    k = cache["block_inputs"][0].shape[1]
    g_raw = l2_normalize_backward(cache["raw"], upstream)
    gh = mean_over_positions_backward(params.scale * g_raw, k)
    grads: list[np.ndarray] = []
    for i in range(len(params.blocks) - 1, -1, -1):
        gz = relu_backward(cache["pre_acts"][i], gh)
        gh, gw, gb = kernels.conv_backward(cache["block_inputs"][i], params.blocks[i].kernels, gz)
        grads.append(gb)
        grads.append(gw)
    grads.reverse()
    gx = gh + mean_over_positions_backward(g_raw, k)
    return grads, gx


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
    params: FCRRParams, cache: dict, upstream: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    g_raw = l2_normalize_backward(cache["raw"], upstream)
    gz = relu_backward(cache["z"], params.scale * g_raw)
    gw = gz.T @ cache["v"]
    gb = gz.sum(axis=0)
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


def backward_many(params, cache: dict, upstream: np.ndarray):
    if isinstance(params, ConvRRParams):
        return convrr_backward_many(params, cache, upstream)
    if isinstance(params, FCRRParams):
        return fcrr_backward_many(params, cache, upstream)
    raise ConfigError(f"unknown parameter type {type(params).__name__}")


def mean_embedding_encode(x: np.ndarray) -> np.ndarray:
    """Baseline encoder: unit-normalized mean of the text rows."""
    return l2_normalize(mean_over_positions(x))


def _forward_by_length(matrices: list[np.ndarray], params):
    """Yield (input positions, outputs, cache) per group of equal-length texts.

    Each group runs through one batched forward, shortest texts first.
    """
    by_len: dict[int, list[int]] = {}
    for i, m in enumerate(matrices):
        by_len.setdefault(m.shape[0], []).append(i)
    for k in sorted(by_len):
        idxs = by_len[k]
        out, cache = forward_many(np.stack([matrices[i] for i in idxs]), params)
        yield idxs, out, cache


def grouped_forward(
    matrices: list[np.ndarray], params
) -> tuple[np.ndarray, list[tuple[list[int], dict]]]:
    """Encode texts of possibly different lengths and keep what the backward needs.

    Returns the outputs, rows in input order, and per length group its
    input positions and forward cache, which ``grouped_backward`` consumes.
    """
    outputs = np.zeros((0, params.dim), dtype=np.float32)
    groups = []
    for idxs, out, cache in _forward_by_length(matrices, params):
        if not groups:
            outputs = np.empty((len(matrices), params.dim), dtype=out.dtype)
        outputs[idxs] = out
        groups.append((idxs, cache))
    return outputs, groups


def grouped_backward(
    params, groups: list[tuple[list[int], dict]], upstream: np.ndarray
) -> list[np.ndarray]:
    """Parameter gradients of ``grouped_forward``, summed over its length groups."""
    total: list[np.ndarray] = []
    for idxs, cache in groups:
        grads, _ = backward_many(params, cache, upstream[idxs])
        total = [t + g for t, g in zip(total, grads)] if total else grads
    return total


def encode_texts(matrices: list[np.ndarray], params) -> np.ndarray:
    """Encode texts of possibly different lengths; rows follow input order.

    The outputs equal ``grouped_forward``'s, but each group's cache is
    dropped as soon as the group is done, so memory stays at one group's.
    """
    outputs = np.zeros((0, params.dim), dtype=np.float32)
    for n, (idxs, out, _) in enumerate(_forward_by_length(matrices, params)):
        if n == 0:
            outputs = np.empty((len(matrices), params.dim), dtype=out.dtype)
        outputs[idxs] = out
    return outputs


def pair_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Squared Euclidean distance between two unit vectors (2 - 2 a.b)."""
    if a.shape != b.shape:
        raise ShapeError(f"vector shapes {a.shape} and {b.shape} disagree")
    for name, v in (("a", a), ("b", b)):
        norm = float(np.linalg.norm(v))
        if abs(norm - 1.0) > 1e-6:
            raise ContractError(f"vector {name} has norm {norm!r}, expected unit")
    return float(np.sum((a - b) ** 2))


def squared_distances(vectors: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Row-wise squared Euclidean distances; bitwise equal to pair_distance."""
    return np.sum((vectors - query) ** 2, axis=1)
