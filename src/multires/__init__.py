"""Multi-resolution word-embedding composition and residual retrieval encoders."""

from multires.corpus import Document, IdfTable, QaPair, build_idf, lookup_idf, tokenize
from multires.embedding import (
    EnsembleSpec,
    LayeredTokenEmbedding,
    MixtureSpec,
    compose_text,
    compose_token,
    ensemble,
    mix_layers,
)
from multires.model import (
    ConvRRParams,
    FCRRParams,
    LossConfig,
    TrainConfig,
    convrr_forward,
    fcrr_forward,
    mine_hard,
    train,
    triplet_loss,
)
from multires.retrieval import EvalReport, RetrievalIndex, build_index, evaluate, recall_at_k, search

__version__ = "0.1.0"

__all__ = [
    "Document",
    "IdfTable",
    "QaPair",
    "build_idf",
    "lookup_idf",
    "tokenize",
    "EnsembleSpec",
    "LayeredTokenEmbedding",
    "MixtureSpec",
    "compose_text",
    "compose_token",
    "ensemble",
    "mix_layers",
    "ConvRRParams",
    "FCRRParams",
    "LossConfig",
    "TrainConfig",
    "convrr_forward",
    "fcrr_forward",
    "mine_hard",
    "train",
    "triplet_loss",
    "EvalReport",
    "RetrievalIndex",
    "build_index",
    "evaluate",
    "recall_at_k",
    "search",
    "__version__",
]
