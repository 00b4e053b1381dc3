"""Checkpoint file: one "CRR1" frame (see ``multires.fileio``), version 1.

Body, little-endian:
    u8 kind (1=convrr, 2=fcrr) | u16 depth | u16 ws | f32 sf | u32 dim
    then per block: kernels tensor, bias tensor, each as
    [u8 ndim | u32 dims... | payload f32 LE]
"""

from __future__ import annotations

import math
import struct

import numpy as np

from multires.errors import ConfigError, FormatError, ShapeError
from multires.fileio import atomic_write, frame, names_file, read_frame
from multires.model.encoder import ConvBlock, ConvRRParams, FCRRParams

CRR_MAGIC = b"CRR1"
_VERSION = 1
_HEAD = struct.Struct("<BHHfI")  # kind, depth, ws, sf, dim
_KIND_CODES = {"convrr": 1, "fcrr": 2}
_KIND_NAMES = {code: name for name, code in _KIND_CODES.items()}
_KIND_TYPES = {"convrr": ConvRRParams, "fcrr": FCRRParams}
_RANKS = {"convrr": (3, 1), "fcrr": (2, 1)}  # per block: kernels or weight, bias


def serialize_params(params, kind: str) -> bytes:
    if kind not in _KIND_CODES:
        raise FormatError(f"unknown encoder kind {kind!r}")
    if not isinstance(params, _KIND_TYPES[kind]):
        raise FormatError(f"{type(params).__name__} cannot be written as kind {kind!r}")
    body = [_HEAD.pack(_KIND_CODES[kind], params.depth, params.window, params.scale, params.dim)]
    for tensor in params.tensors():
        body.append(struct.pack(f"<B{tensor.ndim}I", tensor.ndim, *tensor.shape))
        body.append(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
    return b"".join(frame(CRR_MAGIC, _VERSION, body))


def write_checkpoint(path: str, params, kind: str) -> None:
    """Atomic write: a failed write leaves any previous checkpoint in place."""
    with atomic_write(path) as fh:
        fh.write(serialize_params(params, kind))


@names_file
def read_checkpoint(path: str):
    """Returns (params, kind); raises FormatError, naming the file, on any corruption.

    Tensors are copied out of the file's read-only map, so they are
    writable; at their unaligned offsets, BLAS would also copy each weight
    again on every forward pass. Each conv kernel is copied once, straight
    into the GEMM-major memory order ``ConvBlock`` keeps, so building the
    block copies it no second time; the bytes written back are the same
    in either order.
    """
    (kind_code, depth, window, scale, dim), body = read_frame(path, CRR_MAGIC, _VERSION, _HEAD)
    if kind_code not in _KIND_NAMES:
        raise FormatError(f"unknown encoder kind code {kind_code}")
    kind = _KIND_NAMES[kind_code]
    tensors, offset = [], _HEAD.size
    for ndim in _RANKS[kind] * (depth if kind == "convrr" else 1):
        start = offset + 1 + 4 * ndim
        if start > len(body) or body[offset] != ndim:
            raise FormatError(f"truncated file or bad tensor rank at byte {offset}")
        shape = struct.unpack_from(f"<{ndim}I", body, offset + 1)
        offset = start + 4 * math.prod(shape)
        if offset > len(body):
            raise FormatError(f"truncated file: tensor {shape} runs past the end")
        tensor = np.ndarray(shape, "<f4", body, start)
        if ndim == 3:  # conv kernels: one copy, straight into ConvBlock's GEMM-major order
            tensors.append(tensor.transpose(1, 2, 0).copy().transpose(2, 0, 1))
        else:
            tensors.append(tensor.copy())
    if offset != len(body):
        raise FormatError("trailing bytes before checksum")
    try:
        if kind == "convrr":
            blocks = [ConvBlock(kernels=k, bias=b) for k, b in zip(tensors[::2], tensors[1::2])]
            params = ConvRRParams(blocks=blocks, window=window, scale=float(scale))
        else:
            params = FCRRParams(weight=tensors[0], bias=tensors[1], scale=float(scale))
    except (ConfigError, ShapeError) as exc:
        raise FormatError(f"invalid encoder: {exc}") from None
    if params.dim != dim:
        raise FormatError(f"tensor dim {params.dim} disagrees with header dim {dim}")
    return params, kind
