"""Immutable document index, exact top-k search, recall@k evaluation.

Search ranks through ``encoder.nearest``: one GEMM estimates every
distance, and only the rows whose estimate lies within a derived error
bound of the k-th are recomputed with the elementwise sums. The result is
bitwise that of sorting every elementwise distance, with ties broken by
insertion order. Evaluation ranks its queries in blocks the same way.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from multires.errors import (
    ContractError,
    DuplicateIdError,
    EmptyIndexError,
    IntegrityError,
    ShapeError,
)
from multires.model.encoder import encode_texts, mean_embedding_encode, nearest, row_sq_norms

UNIT_TOL = 1e-6


@dataclass(frozen=True)
class RetrievalIndex:
    ids: tuple[str, ...]
    vectors: np.ndarray  # (n, d''), unit rows
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)  # float64, for nearest

    def __post_init__(self):
        object.__setattr__(self, "sq_norms", row_sq_norms(self.vectors))

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]

    def __len__(self) -> int:
        return len(self.ids)


@dataclass(frozen=True)
class EvalReport:
    num_queries: int
    recalls: dict[int, float]

    def to_json(self) -> str:
        payload = {
            "num_queries": self.num_queries,
            "recall": {str(k): self.recalls[k] for k in sorted(self.recalls)},
        }
        return json.dumps(payload)


def build_index(docs: Sequence[tuple[str, np.ndarray]]) -> RetrievalIndex:
    """Stack (doc_id, unit vector) pairs preserving insertion order."""
    if not docs:
        raise EmptyIndexError("cannot build an index from zero documents")
    ids = []
    seen: set[str] = set()
    dim = docs[0][1].shape[0]
    for doc_id, vec in docs:
        if doc_id in seen:
            raise DuplicateIdError(f"duplicate document id {doc_id!r}")
        seen.add(doc_id)
        if vec.ndim != 1 or vec.shape[0] != dim:
            raise ShapeError(f"vector for {doc_id!r} has shape {vec.shape}, expected ({dim},)")
        ids.append(doc_id)
    vectors = np.stack([vec for _, vec in docs])
    finite = np.isfinite(vectors).all(axis=1)
    if not finite.all():
        raise ContractError(f"vector for {ids[np.flatnonzero(~finite)[0]]!r} is non-finite")
    norms = np.linalg.norm(vectors, axis=1)
    bad = np.where(np.abs(norms - 1.0) > UNIT_TOL)[0]
    if bad.size:
        raise ContractError(
            f"vector for {ids[bad[0]]!r} has norm {norms[bad[0]]!r}, expected unit"
        )
    return RetrievalIndex(ids=tuple(ids), vectors=vectors)


def search(index: RetrievalIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Top-min(k, n) entries by ascending squared distance, ties by index order."""
    if k < 1:
        raise ShapeError(f"k must be >= 1, got {k}")
    if query.ndim != 1 or query.shape[0] != index.dim:
        raise ShapeError(f"query shape {query.shape} does not match index dim {index.dim}")
    ranked, dists = nearest(query[None], index.vectors, k, sq_norms=index.sq_norms)
    return [(index.ids[i], d) for i, d in zip(ranked[0].tolist(), dists[0].tolist())]


def recall_at_k(
    rankings: Mapping[str, Sequence[str]], gold: Mapping[str, str], k: int
) -> float:
    """Fraction of queries whose gold document appears in their top-k."""
    if k < 1:
        raise ShapeError(f"k must be >= 1, got {k}")
    if not rankings:
        raise IntegrityError("no query rankings to evaluate")
    hits = 0
    for qid, ranked in rankings.items():
        if qid not in gold:
            raise IntegrityError(f"query {qid!r} has no gold document")
        if gold[qid] in list(ranked)[:k]:
            hits += 1
    return hits / len(rankings)


def evaluate(
    params,
    queries: Sequence[tuple[str, np.ndarray]],
    docs: Sequence[tuple[str, np.ndarray]],
    ks: Sequence[int],
    gold: Mapping[str, str],
    candidates: Mapping[str, Sequence[str]] | None = None,
) -> EvalReport:
    """Encode texts with shared parameters, search, aggregate recall per k.

    ``params`` is a ConvRRParams/FCRRParams object, or None for the
    mean-embedding baseline. ``candidates`` optionally restricts each
    query's search to a per-query document list (candidate-list mode);
    the default searches the full corpus.
    """
    if not ks:
        raise IntegrityError("no k values requested")
    ks = sorted(set(int(k) for k in ks))
    if ks[0] < 1:
        raise ShapeError(f"k must be >= 1, got {ks[0]}")
    doc_ids = [doc_id for doc_id, _ in docs]
    index = build_index(list(zip(doc_ids, _encode_all([m for _, m in docs], params))))
    query_vecs = _encode_all([m for _, m in queries], params)

    max_k = max(ks)
    ranked: list[list[str]] = [[] for _ in queries]
    pos = {d: i for i, d in enumerate(index.ids)}
    full = []
    for row, (qid, _) in enumerate(queries):
        if candidates is None or qid not in candidates:
            full.append(row)
            continue
        wanted = list(candidates[qid])
        missing = [d for d in wanted if d not in pos]
        if missing:
            raise IntegrityError(f"candidate {missing[0]!r} for query {qid!r} not indexed")
        sub = RetrievalIndex(ids=tuple(wanted), vectors=index.vectors[[pos[d] for d in wanted]])
        ranked[row] = [doc_id for doc_id, _ in search(sub, query_vecs[row], max_k)]
    if full:
        top, _ = nearest(query_vecs[full], index.vectors, max_k, sq_norms=index.sq_norms)
        for row, picks in zip(full, top.tolist()):
            ranked[row] = [index.ids[i] for i in picks]
    rankings = {qid: ranked[row] for row, (qid, _) in enumerate(queries)}

    recalls = {k: recall_at_k(rankings, gold, k) for k in ks}
    return EvalReport(num_queries=len(queries), recalls=recalls)


def _encode_all(matrices: list[np.ndarray], params) -> np.ndarray:
    """Encoded rows in input order, as one (len(matrices), d'') array."""
    if params is None:
        return np.array([mean_embedding_encode(np.asarray(m, dtype=np.float32)) for m in matrices])
    return encode_texts([np.asarray(m, dtype=np.float32) for m in matrices], params)
