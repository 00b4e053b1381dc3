"""Immutable document index, exact top-k search, recall@k evaluation.

An index is built from the (n, d'') block its caller holds, or stacked
from (id, vector) pairs by ``build_index``; its one constructor checks it.
Search ranks through ``encoder.nearest``: one GEMM estimates every
distance, and only the rows whose estimate lies within a derived error
bound of the k-th are recomputed with the elementwise sums. The result is
bitwise that of sorting every elementwise distance, with ties broken by
insertion order. Evaluation ranks its queries in blocks the same way.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Collection, Mapping, Sequence

import numpy as np

from multires.errors import (
    ContractError,
    DuplicateIdError,
    EmptyIndexError,
    IntegrityError,
    ShapeError,
)
from multires.model.encoder import (
    TokenTexts,
    as_token_texts,
    encode_texts,
    nearest,
    row_sq_norms,
)

UNIT_TOL = 1e-6


@dataclass(frozen=True)
class RetrievalIndex:
    """Unique ids, one finite unit row each; ``vectors`` is kept as given, not copied."""

    ids: tuple[str, ...]
    vectors: np.ndarray  # (n, d''), unit rows
    sq_norms: np.ndarray = field(init=False, repr=False, compare=False)  # float64, for nearest

    def __post_init__(self):
        ids, vectors = self.ids, self.vectors
        if not ids:
            raise EmptyIndexError("cannot build an index from zero documents")
        if vectors.ndim != 2 or vectors.shape[0] != len(ids):
            raise ShapeError(f"vectors of shape {vectors.shape} for {len(ids)} document ids")
        if len(set(ids)) != len(ids):
            duplicate = next(d for d, n in Counter(ids).items() if n > 1)
            raise DuplicateIdError(f"duplicate document id {duplicate!r}")
        sq_norms = row_sq_norms(vectors)  # a row with a non-finite entry has a non-finite norm
        finite = np.isfinite(sq_norms)
        if not finite.all():
            raise ContractError(f"vector for {ids[np.flatnonzero(~finite)[0]]!r} is non-finite")
        norms = np.sqrt(sq_norms)
        bad = np.flatnonzero(np.abs(norms - 1.0) > UNIT_TOL)
        if bad.size:
            raise ContractError(
                f"vector for {ids[bad[0]]!r} has norm {float(norms[bad[0]])!r}, expected unit"
            )
        object.__setattr__(self, "sq_norms", sq_norms)

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
    """Stack (doc_id, unit vector) pairs, in order, into a RetrievalIndex."""
    if not docs:
        raise EmptyIndexError("cannot build an index from zero documents")
    ids, vectors = zip(*docs)
    try:
        stacked = np.stack(vectors)
    except ValueError as exc:
        raise ShapeError(f"document vectors do not stack: {exc}") from None
    return RetrievalIndex(ids, stacked)


def search(index: RetrievalIndex, query: np.ndarray, k: int) -> list[tuple[str, float]]:
    """Top-min(k, n) entries by ascending squared distance, ties by index order."""
    ranked, dists = nearest(query[None], index.vectors, k, sq_norms=index.sq_norms)
    return [(index.ids[i], d) for i, d in zip(ranked[0].tolist(), dists[0].tolist())]


def recall_at_k(
    rankings: Mapping[str, Sequence[str]], gold: Mapping[str, str | Collection[str]], k: int
) -> float:
    """Fraction of queries with a gold document in their top-k; gold is an id or a collection."""
    if k < 1:
        raise ShapeError(f"k must be >= 1, got {k}")
    if not rankings:
        raise IntegrityError("no query rankings to evaluate")
    hits = 0
    for qid, ranked in rankings.items():
        if qid not in gold:
            raise IntegrityError(f"query {qid!r} has no gold document")
        positives = {gold[qid]} if isinstance(gold[qid], str) else set(gold[qid])
        if not positives.isdisjoint(list(ranked)[:k]):
            hits += 1
    return hits / len(rankings)


def evaluate(
    params,
    queries: TokenTexts | Sequence[tuple[str, np.ndarray]],
    docs: TokenTexts | Sequence[tuple[str, np.ndarray]],
    ks: Sequence[int],
    gold: Mapping[str, str | Collection[str]],
    candidates: Mapping[str, Sequence[str]] | None = None,
) -> EvalReport:
    """Encode texts with shared parameters, search, aggregate recall per k.

    ``params`` is a ConvRRParams/FCRRParams object, or None for the
    mean-embedding baseline. ``candidates`` optionally restricts each
    query's search to a per-query document list (candidate-list mode);
    the default searches the full corpus. Texts are named TokenTexts or
    (id, matrix) pairs; pairs are copied into one float32 table. Each query
    id appears once in ``queries``; its ``gold`` is one document id or a
    collection of them. A text that encodes to a zero-norm vector raises
    ``DegenerateVectorError`` naming it.
    """
    if not ks:
        raise IntegrityError("no k values requested")
    ks = sorted(set(int(k) for k in ks))
    if ks[0] < 1:
        raise ShapeError(f"k must be >= 1, got {ks[0]}")
    queries = as_token_texts(queries, "query", np.float32)
    docs = as_token_texts(docs, "document", np.float32)
    repeated = [qid for qid, n in Counter(queries.names).items() if n > 1]
    if repeated:
        raise IntegrityError(f"query id {repeated[0]!r} repeats; give it once, with all its gold")
    index = RetrievalIndex(tuple(docs.names), encode_texts(docs, params))
    query_vecs = encode_texts(queries, params)

    max_k = max(ks)
    rankings: dict[str, list[str]] = {}
    pos = {d: i for i, d in enumerate(index.ids)}
    full = []
    for row, qid in enumerate(queries.names):
        if candidates is None or qid not in candidates:
            full.append(row)
            continue
        wanted = list(candidates[qid])
        missing = [d for d in wanted if d not in pos]
        if missing:
            raise IntegrityError(f"candidate {missing[0]!r} for query {qid!r} not indexed")
        sub = RetrievalIndex(ids=tuple(wanted), vectors=index.vectors[[pos[d] for d in wanted]])
        rankings[qid] = [doc_id for doc_id, _ in search(sub, query_vecs[row], max_k)]
    if full:
        top, _ = nearest(query_vecs[full], index.vectors, max_k, sq_norms=index.sq_norms)
        for row, picks in zip(full, top.tolist()):
            rankings[queries.names[row]] = [index.ids[i] for i in picks]

    recalls = {k: recall_at_k(rankings, gold, k) for k in ks}
    return EvalReport(num_queries=len(queries), recalls=recalls)

