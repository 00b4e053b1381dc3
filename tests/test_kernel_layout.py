"""Conv kernels stay in GEMM-major memory order, and the file format never sees it."""

import numpy as np
import pytest

from multires.corpus import QaPair
from multires.model import (
    ConvBlock,
    ConvRRParams,
    TrainConfig,
    init_convrr_params,
    read_checkpoint,
    serialize_params,
    train,
    write_checkpoint,
    zero_convrr_params,
)
from multires.numerics import kernels
from multires.numerics.adam import AdamConfig, AdamState, adam_step


def gemm_major(k):
    """conv_forward's C-order (ws*d_in, n_k) kernels operand is a view, not a copy.

    (A C-order kernel also reshapes to a (ws*d_in, n_k) view, but an F-order one.)
    """
    operand = np.ascontiguousarray(k.transpose(1, 2, 0)).reshape(-1, k.shape[0])
    return np.shares_memory(k, operand)


def trained_params():
    gen = np.random.default_rng(3)
    queries = {f"q{i}": gen.normal(size=(3, 6)).astype(np.float32) for i in range(6)}
    docs = {f"d{i}": gen.normal(size=(4, 6)).astype(np.float32) for i in range(6)}
    pairs = [QaPair(f"q{i}", "", f"d{i}") for i in range(6)]
    cfg = TrainConfig(iterations=3, batch_size=4, seed=1, adam=AdamConfig(learning_rate=1e-2))
    return train(pairs, queries, docs, "convrr", cfg).params


def read_back(tmp):
    write_checkpoint(str(tmp / "m.crr"), init_convrr_params(6), "convrr")
    return read_checkpoint(str(tmp / "m.crr"))[0]


@pytest.mark.parametrize("make", [
    lambda tmp: init_convrr_params(6, depth=2, window=3),
    lambda tmp: zero_convrr_params(6, depth=2, window=3),
    lambda tmp: trained_params(),
    read_back,
], ids=["init", "zero", "train", "read_checkpoint"])
def test_kernels_are_gemm_major(tmp_path, make):
    params = make(tmp_path)
    assert all(gemm_major(blk.kernels) for blk in params.blocks)


def test_a_training_step_keeps_the_layout_without_a_copy(rng):
    """conv_backward's gradient and Adam's update are GEMM-major, so replace_tensors keeps them."""
    params = init_convrr_params(6, depth=1, window=3)
    kern, bias = params.tensors()
    x, g = (rng.normal(size=(2, 4, 6)).astype(np.float32) for _ in range(2))
    _, grad, _ = kernels.conv_backward(x, kern, g)
    new, _ = adam_step(kern, grad, AdamState.zeros_like(kern), AdamConfig())
    assert gemm_major(grad) and gemm_major(new)
    assert np.shares_memory(params.replace_tensors([new, bias]).blocks[0].kernels, new)


def test_conv_block_keeps_gemm_major_kernels_and_re_lays_others(rng):
    c_order = rng.normal(size=(4, 3, 4)).astype(np.float32)
    block = ConvBlock(kernels=c_order, bias=np.zeros(4, np.float32))
    assert gemm_major(block.kernels) and np.array_equal(block.kernels, c_order)
    again = ConvBlock(kernels=block.kernels, bias=block.bias).kernels
    assert np.shares_memory(again, block.kernels)


def test_serialized_bytes_do_not_depend_on_the_kernels_layout():
    params = init_convrr_params(5, depth=2, window=3)
    c_order = ConvRRParams(blocks=[ConvBlock(b.kernels, b.bias) for b in params.blocks],
                           window=params.window, scale=params.scale)
    for blk in c_order.blocks:  # set after __post_init__, which would re-lay them
        blk.kernels = np.ascontiguousarray(blk.kernels)
    assert all(blk.kernels.flags.c_contiguous and not gemm_major(blk.kernels)
               for blk in c_order.blocks)
    assert serialize_params(c_order, "convrr") == serialize_params(params, "convrr")
