from multires.model.checkpoint import read_checkpoint, serialize_params, write_checkpoint
from multires.model.encoder import (
    ConvBlock,
    ConvRRParams,
    FCRRParams,
    convrr_backward,
    convrr_forward,
    encode_texts,
    fcrr_backward,
    fcrr_forward,
    init_convrr_params,
    init_fcrr_params,
    mean_embedding_encode,
    zero_convrr_params,
)
from multires.model.loss import LossConfig, mine_hard, triplet_loss
from multires.model.train import MINING_MODES, TrainConfig, TrainResult, train

__all__ = [
    "read_checkpoint",
    "serialize_params",
    "write_checkpoint",
    "ConvBlock",
    "ConvRRParams",
    "FCRRParams",
    "convrr_backward",
    "convrr_forward",
    "encode_texts",
    "fcrr_backward",
    "fcrr_forward",
    "init_convrr_params",
    "init_fcrr_params",
    "mean_embedding_encode",
    "zero_convrr_params",
    "LossConfig",
    "mine_hard",
    "triplet_loss",
    "MINING_MODES",
    "TrainConfig",
    "TrainResult",
    "train",
]
