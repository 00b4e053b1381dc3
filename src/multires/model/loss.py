"""Triplet loss and hard-negative mining over encoded unit vectors."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from multires.errors import ConfigError, MiningError
from multires.model.encoder import nearest


@dataclass(frozen=True)
class LossConfig:
    margin: float = 1.0

    def __post_init__(self):
        if not self.margin > 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")


@dataclass(frozen=True)
class TripletIndices:
    """Indices into the anchor list and the mined document list."""

    anchor: int
    positive: int
    negative: int


def triplet_loss(d_pos, d_neg, cfg: LossConfig):
    """Hinge max(d_pos - d_neg + margin, 0), elementwise over arrays."""
    return np.maximum(d_pos - d_neg + cfg.margin, 0.0)


def triplet_step(
    anchors: np.ndarray,
    docs: np.ndarray,
    positive: np.ndarray,
    negative: np.ndarray,
    cfg: LossConfig,
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """(losses, active count, anchor gradients, document gradients) of the mean
    triplet loss, one triplet per anchor row.

    Triplet i is (anchors[i], docs[positive[i]], docs[negative[i]]). The
    distances are the elementwise sums in the inputs' dtype; the hinge runs
    in float64. Document gradients accumulate with ``np.add.at`` in the
    order positive, negative per triplet, triplet by triplet, so a document
    that several triplets touch sums its terms in that order.
    """
    inv_b = 1.0 / anchors.shape[0]
    to_pos = anchors - docs[positive]
    to_neg = anchors - docs[negative]
    d_pos = np.sum(to_pos**2, axis=1).astype(np.float64)
    d_neg = np.sum(to_neg**2, axis=1).astype(np.float64)
    losses = triplet_loss(d_pos, d_neg, cfg)
    act = np.flatnonzero(losses > 0)
    to_pos, to_neg = to_pos[act], to_neg[act]

    g_anchor = np.zeros_like(anchors)
    g_anchor[act] += (2 * inv_b) * (to_pos - to_neg)  # adds, so a -0.0 term still gives +0.0
    rows = np.empty(2 * act.size, dtype=np.intp)
    rows[0::2], rows[1::2] = positive[act], negative[act]
    terms = np.empty((2 * act.size, docs.shape[1]), dtype=to_pos.dtype)
    terms[0::2], terms[1::2] = (-2 * inv_b) * to_pos, (2 * inv_b) * to_neg
    g_doc = np.zeros_like(docs)
    np.add.at(g_doc, rows, terms)
    return losses, int(act.size), g_anchor, g_doc


def mine_hard(
    anchors: Sequence[np.ndarray],
    positives: Sequence[np.ndarray],
    batch_docs: Sequence[tuple[str, np.ndarray]],
    gold: Mapping[int, str],
    semi_hard: bool = False,
) -> list[TripletIndices]:
    """Pick, per anchor, the closest candidate that is not its gold document.

    Ties break toward the smallest document index. Anchors whose hardest
    negative already satisfies the margin are kept (their loss clamps to 0).
    With semi_hard=True, candidates closer than the positive are excluded
    first; when none remain the hardest overall is used instead. Distances
    are the elementwise sums, ranked through ``encoder.nearest``.
    """
    if len(anchors) != len(positives):
        raise MiningError(f"{len(anchors)} anchors but {len(positives)} positives")
    doc_index = {doc_id: i for i, (doc_id, _) in enumerate(batch_docs)}
    if len(doc_index) != len(batch_docs):
        raise MiningError("batch documents repeat an id")
    gold_cols = [doc_index.get(gold.get(a)) for a in range(len(anchors))]
    for a, col in enumerate(gold_cols):
        if col is None:
            raise MiningError(f"anchor {a} has no in-batch gold document")
        if len(doc_index) < 2:
            raise MiningError(f"anchor {a} has no candidate negatives in the batch")
    if not gold_cols:
        return []
    queries = np.asarray(anchors)
    docs = np.stack([vec for _, vec in batch_docs])
    exclude = np.array(gold_cols, dtype=np.intp)
    floor = np.sum((queries - np.asarray(positives)) ** 2, axis=1) if semi_hard else None
    negative = nearest(queries, docs, 1, exclude=exclude, floor=floor)[0][:, 0]
    if semi_hard:
        none_left = np.flatnonzero(negative < 0)
        negative[none_left] = nearest(queries[none_left], docs, 1, exclude=exclude[none_left])[0][:, 0]
    return list(map(TripletIndices, range(len(gold_cols)), gold_cols, negative.tolist()))
