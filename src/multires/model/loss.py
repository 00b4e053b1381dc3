"""Triplet loss and hard-negative mining over encoded unit vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from multires.errors import ConfigError, MiningError
from multires.model.encoder import nearest


@dataclass(frozen=True)
class LossConfig:
    margin: float = 1.0

    def __post_init__(self):
        if not self.margin > 0:
            raise ConfigError(f"margin must be positive, got {self.margin}")


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
    anchors: np.ndarray,
    positives: np.ndarray,
    docs: np.ndarray,
    gold: np.ndarray,
    semi_hard: bool = False,
) -> np.ndarray:
    """Per anchor, the column of the closest row of ``docs`` that is not its
    ``gold`` column, as one intp array.

    Ties break toward the smallest column. Anchors whose hardest negative
    already satisfies the margin are kept (their loss clamps to 0). With
    semi_hard=True, candidates closer than the anchor's positive are excluded
    first; when none remain the hardest overall is used instead. Distances
    are the elementwise sums, ranked through ``encoder.nearest``.
    """
    anchors, gold = np.asarray(anchors), np.asarray(gold, dtype=np.intp)
    if not len(anchors) == len(positives) == len(gold):
        raise MiningError(
            f"{len(anchors)} anchors, {len(positives)} positives and {len(gold)} gold columns"
        )
    if not len(anchors):
        return np.empty(0, dtype=np.intp)
    if len(docs) < 2:
        raise MiningError(f"{len(docs)} document(s) leave no candidate negative")
    outside = np.flatnonzero((gold < 0) | (gold >= len(docs)))
    if outside.size:
        a = outside[0]
        raise MiningError(f"anchor {a} has gold column {gold[a]}, outside [0, {len(docs)})")
    floor = np.sum((anchors - np.asarray(positives)) ** 2, axis=1) if semi_hard else None
    negative = nearest(anchors, docs, 1, exclude=gold, floor=floor)[0][:, 0]
    if semi_hard:
        none_left = np.flatnonzero(negative < 0)
        negative[none_left] = nearest(anchors[none_left], docs, 1, exclude=gold[none_left])[0][:, 0]
    return negative
