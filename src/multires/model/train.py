"""Two-branch shared-weight training with mined triplets.

Queries and documents run through the *same* parameter object, so the
branches share weights by construction. All randomness (weight init,
batch sampling) flows from the single seed in TrainConfig; reruns with
one seed are bitwise identical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from multires.corpus import QaPair
from multires.errors import (
    ConfigError,
    DatasetError,
    IntegrityError,
    NumericalError,
)
from multires.model import encoder as enc
from multires.model.loss import LossConfig, mine_hard, triplet_step
from multires.numerics.adam import AdamConfig, AdamState, adam_step

MINING_MODES = ("batch_hard", "full_scan", "semi_hard")


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 400
    batch_size: int = 2000
    seed: int = 0
    adam: AdamConfig = AdamConfig()
    mining: str = "batch_hard"
    loss: LossConfig = LossConfig()
    depth: int = enc.DEFAULT_DEPTH
    window: int = enc.DEFAULT_WINDOW
    scale: float = enc.DEFAULT_SCALE

    def __post_init__(self):
        if self.iterations < 1:
            raise ConfigError(f"iterations must be >= 1, got {self.iterations}")
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if self.mining not in MINING_MODES:
            raise ConfigError(f"mining must be one of {MINING_MODES}, got {self.mining!r}")


@dataclass
class TrainResult:
    params: object
    kind: str
    loss_trace: list[float] = field(default_factory=list)
    active_fractions: list[float] = field(default_factory=list)


def train(
    pairs: Sequence[QaPair],
    query_matrices: Mapping[str, np.ndarray] | enc.TokenTexts,
    doc_matrices: Mapping[str, np.ndarray] | enc.TokenTexts,
    encoder_kind: str = "convrr",
    cfg: TrainConfig = TrainConfig(),
) -> TrainResult:
    """Train the encoder on (query, positive document) pairs, one pair per query id.

    Texts are named TokenTexts or {id: (k, d'') matrix} mappings; mappings
    are copied into one float32 table, which each batch gathers from. Per
    iteration: sample a batch without replacement (reshuffling once the
    pool is exhausted), encode queries and documents with shared parameters,
    mine a hardest negative per anchor, average the triplet losses, and take
    one Adam step per parameter tensor.

    Every per-pair lookup runs once, before the loop: each pair's query
    text and positive column become intp arrays. An iteration then works
    on index arrays only: its batch documents, in first-occurrence order,
    and each pair's positive column among them come from one ``np.unique``
    and a stable argsort, and ``grouped_forward(texts, params, positions)``
    gathers each length group of the batch from the texts' packed ids with
    one fancy index.
    """
    if encoder_kind not in ("convrr", "fcrr"):
        raise ConfigError(f"encoder_kind must be 'convrr' or 'fcrr', got {encoder_kind!r}")
    if not pairs:
        raise DatasetError("no training pairs")
    queries = enc.as_token_texts(query_matrices, "query", np.float32)
    docs = enc.as_token_texts(doc_matrices, "document", np.float32)
    query_pos = {qid: i for i, qid in enumerate(queries.names)}
    doc_pos = {did: i for i, did in enumerate(docs.names)}
    if len(doc_pos) < 2:
        raise DatasetError("need at least 2 distinct documents to mine negatives")
    for pair in pairs:
        if pair.query_id not in query_pos:
            raise IntegrityError(f"no text matrix for query {pair.query_id!r}")
        if pair.positive_doc_id not in doc_pos:
            raise IntegrityError(f"no text matrix for document {pair.positive_doc_id!r}")
    # mining excludes one gold column per anchor, so a query's other positive could be its negative
    repeated = [qid for qid, n in Counter(p.query_id for p in pairs).items() if n > 1]
    if repeated:
        raise IntegrityError(
            f"query id {repeated[0]!r} repeats; train takes one positive document per query"
        )
    # Per pair, its query's text and its positive's column in a full scan,
    # which lists each distinct document id once, in first-occurrence order.
    query_text = np.array([query_pos[p.query_id] for p in pairs], dtype=np.intp)
    column = {did: i for i, did in enumerate(doc_pos)}
    positive_column = np.array([column[p.positive_doc_id] for p in pairs], dtype=np.intp)
    all_doc_texts = np.fromiter(doc_pos.values(), dtype=np.intp, count=len(doc_pos))
    dim = docs.table.shape[1]

    rng = np.random.default_rng(cfg.seed)
    if encoder_kind == "convrr":
        params = enc.init_convrr_params(
            dim, depth=cfg.depth, window=cfg.window, scale=cfg.scale, rng=rng
        )
    else:
        params = enc.init_fcrr_params(dim, scale=cfg.scale, rng=rng)
    tensors = params.tensors()
    states = [AdamState.zeros_like(t) for t in tensors]

    n_pairs = len(pairs)
    batch_size = min(cfg.batch_size, n_pairs)
    order = rng.permutation(n_pairs)
    cursor = 0
    semi_hard = cfg.mining == "semi_hard"
    full_scan = cfg.mining == "full_scan"

    result = TrainResult(params=params, kind=encoder_kind)
    for iteration in range(1, cfg.iterations + 1):
        if cursor + batch_size > n_pairs:
            order = rng.permutation(n_pairs)
            cursor = 0
        batch = order[cursor:cursor + batch_size]
        cursor += batch_size

        columns = positive_column[batch]
        if not full_scan:
            distinct, first, inverse = np.unique(columns, return_index=True, return_inverse=True)
        if full_scan or len(distinct) < 2:  # one document leaves no negative to mine
            doc_texts, positive = all_doc_texts, columns
        else:
            # the batch's documents in first-occurrence order, each pair's positive among them
            by_first = np.argsort(first, kind="stable")
            rank = np.empty_like(by_first)
            rank[by_first] = np.arange(len(by_first))
            doc_texts, positive = all_doc_texts[distinct[by_first]], rank[inverse]

        anchors, query_groups = enc.grouped_forward(queries, params, query_text[batch])
        doc_outs, doc_groups = enc.grouped_forward(docs, params, doc_texts)
        if not (np.isfinite(anchors).all() and np.isfinite(doc_outs).all()):
            raise NumericalError(f"iteration {iteration}: the encoded batch is non-finite")

        negative = mine_hard(anchors, doc_outs[positive], doc_outs, positive, semi_hard=semi_hard)
        losses, active, g_anchor, g_doc = triplet_step(anchors, doc_outs, positive, negative, cfg.loss)
        mean_loss = float(np.mean(losses))
        if not np.isfinite(mean_loss):
            raise NumericalError(f"iteration {iteration}: the batch loss is {mean_loss!r}")
        result.loss_trace.append(mean_loss)
        result.active_fractions.append(active / len(batch))

        grads = enc.grouped_backward(params, query_groups, g_anchor)
        doc_grads = enc.grouped_backward(params, doc_groups, g_doc)
        grads = [g + dg for g, dg in zip(grads, doc_grads)]
        for name, grad in zip(params.tensor_names(), grads):
            if not np.isfinite(grad).all():
                raise NumericalError(f"iteration {iteration}: the gradient of {name} is non-finite")

        new_tensors = []
        for i, (tensor, grad) in enumerate(zip(tensors, grads)):
            new_tensor, states[i] = adam_step(tensor, grad, states[i], cfg.adam)
            new_tensors.append(new_tensor)
        tensors = new_tensors
        params = params.replace_tensors(tensors)

    result.params = params
    return result
