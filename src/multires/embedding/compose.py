"""Composition algebra: layer mixtures, model ensembles, text matrices.

A composed vector is a plain 1-D ndarray; a text matrix is the (k, d'')
stack of the k composed token vectors in input order. Over context-free
stores a token composes to the same row wherever it occurs, so a run's
texts compile into one table of their distinct tokens and one array of
row ids per text (``compile_texts``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from multires.corpus import IdfTable, lookup_idf
from multires.embedding.specs import EnsembleSpec, MixtureSpec
from multires.embedding.stores import ContextFreeStore, ContextualStore
from multires.errors import EmptyTextError, MissingModelError, NumericalError, ShapeError, SpecError


@dataclass(frozen=True)
class LayeredTokenEmbedding:
    """One model's l x d layer matrix for one token, or a (k, l, d) stack for k tokens."""

    model_id: str
    layers: np.ndarray

    def __post_init__(self):
        if self.layers.ndim not in (2, 3) or min(self.layers.shape[-2:]) < 1:
            raise SpecError(f"layers must be [k x] l x d with l,d >= 1, got {self.layers.shape}")
        if not np.all(np.isfinite(self.layers)):
            raise NumericalError(f"non-finite layer entries for model {self.model_id!r}")

    @property
    def num_layers(self) -> int:
        return self.layers.shape[-2]


def mix_layers(
    emb: LayeredTokenEmbedding, spec: MixtureSpec, idf_weight: float | np.ndarray = 1.0
) -> np.ndarray:
    """Weight the layers of one model and aggregate them into a single vector per token.

    sum/average give a d-vector; concatenate joins the nonzero-weight layers
    in layer order. When spec.use_idf is set the aggregated vector is scaled
    by idf_weight once, after aggregation. For a (k, l, d) stack the result
    is (k, d_m) and idf_weight holds one weight per token, shape (k,).
    """
    if spec.model_id != emb.model_id:
        raise SpecError(f"mixture for {spec.model_id!r} applied to model {emb.model_id!r}")
    if len(spec.weights) != emb.num_layers:
        raise SpecError(
            f"{len(spec.weights)} weights for model {emb.model_id!r} with {emb.num_layers} layers"
        )
    idf_weight = np.asarray(idf_weight, dtype=emb.layers.dtype)
    if idf_weight.shape != emb.layers.shape[:-2]:
        raise ShapeError(f"idf shape {idf_weight.shape} for layers of shape {emb.layers.shape}")
    weights = np.asarray(spec.weights, dtype=emb.layers.dtype)
    if spec.aggregator == "sum":
        out = np.einsum("l,...ld->...d", weights, emb.layers)
    elif spec.aggregator == "average":
        out = np.einsum("l,...ld->...d", weights, emb.layers) / emb.num_layers
    else:  # concatenate: zero-weight layers contribute no segment
        segments = []
        for i, w in enumerate(spec.weights):
            if w == 0.0:
                continue
            row = emb.layers[..., i, :]
            segments.append(row * weights[i] if spec.scale_segments else row)
        out = np.concatenate(segments, axis=-1)
    if spec.use_idf:
        out = out * idf_weight[..., None]
    return out


def ensemble(parts: Sequence[np.ndarray], spec: EnsembleSpec) -> np.ndarray:
    """Scale each mixture output by its coefficient and aggregate across models.

    concatenate joins segments in order (d'' = sum of dims); sum/average
    right-zero-pad every part to the longest one first (d'' = max dim).
    Parts are d_m-vectors or (k, d_m) stacks with the same k.
    """
    if len(parts) != len(spec.mixtures):
        raise SpecError(f"{len(parts)} parts for ensemble of {len(spec.mixtures)} mixtures")
    dtype = np.result_type(*parts)
    scaled = [np.asarray(p, dtype=dtype) * dtype.type(u) for p, u in zip(parts, spec.weights)]
    if spec.aggregator == "concatenate":
        return np.concatenate(scaled, axis=-1)
    width = max(p.shape[-1] for p in scaled)
    acc = np.zeros(scaled[0].shape[:-1] + (width,), dtype=dtype)
    for p in scaled:
        acc[..., : p.shape[-1]] += p
    if spec.aggregator == "average":
        acc /= len(scaled)
    return acc


def compose_token(
    layer_sets: Mapping[str, LayeredTokenEmbedding],
    spec: EnsembleSpec,
    idf_weight: float | np.ndarray = 1.0,
) -> np.ndarray:
    """Mixture per model, then ensemble across models, for one token or a (k, ...) stack."""
    parts = []
    for mixture in spec.mixtures:
        emb = layer_sets.get(mixture.model_id)
        if emb is None:
            raise MissingModelError(f"no layer matrix for model {mixture.model_id!r}")
        parts.append(mix_layers(emb, mixture, idf_weight))
    return ensemble(parts, spec)


def composed_dim(spec: EnsembleSpec, model_dims: Mapping[str, tuple[int, int]]) -> int:
    """d'' implied by a spec over models with known (num_layers, dim).

    Mirrors the aggregation rules: mixture sum/average give d, concatenate
    gives d times the number of nonzero weights; ensemble concatenate sums
    the mixture dims, sum/average take the max.
    """
    dims = []
    for mixture in spec.mixtures:
        if mixture.model_id not in model_dims:
            raise MissingModelError(f"no dimensions for model {mixture.model_id!r}")
        num_layers, dim = model_dims[mixture.model_id]
        if len(mixture.weights) != num_layers:
            raise SpecError(
                f"{len(mixture.weights)} weights for model {mixture.model_id!r}"
                f" with {num_layers} layers"
            )
        if mixture.aggregator == "concatenate":
            dims.append(dim * sum(1 for w in mixture.weights if w != 0.0))
        else:
            dims.append(dim)
    if spec.aggregator == "concatenate":
        return sum(dims)
    return max(dims)


def compose_text(
    tokens: Sequence[str],
    stores: Mapping[str, ContextFreeStore | ContextualStore],
    spec: EnsembleSpec,
    idf: IdfTable,
) -> np.ndarray:
    """Compose every token into a row of the (k, d'') text matrix.

    Each model's rows for the text are gathered into one (k, l, d) stack
    (``store.gather``) and composed in a single compose_token call. A
    token missing from one model's store contributes a zero layer matrix
    for that model only; a text whose tokens resolve in no store at all is
    rejected.
    """
    layer_sets: dict[str, LayeredTokenEmbedding] = {}
    resolved = 0
    for model_id in dict.fromkeys(m.model_id for m in spec.mixtures):
        store = stores.get(model_id)
        if store is None:
            raise MissingModelError(f"no store for model {model_id!r}")
        layers, hits = store.gather(tokens)
        resolved += hits
        layer_sets[model_id] = LayeredTokenEmbedding(model_id=model_id, layers=layers)
    if not resolved:
        raise EmptyTextError("no token of the text resolves in any embedding store")
    return compose_token(layer_sets, spec, np.array([lookup_idf(idf, t) for t in tokens]))


# Distinct tokens composed per compose_text call in compile_texts; bounds its temporaries.
COMPILE_TOKENS = 512


def compile_texts(
    texts: Iterable[Sequence[str]],
    stores: Mapping[str, ContextFreeStore],
    spec: EnsembleSpec,
    idf: IdfTable,
) -> tuple[np.ndarray, list[np.ndarray]]:
    """Compose a run's token lists into ``(table, ids)``, one row per distinct token.

    ``table`` is float32, (V, d''), in first-occurrence order; ``ids`` holds
    one intp array per text, so text i's matrix is ``table[ids[i]]``: bit
    for bit ``compose_text`` of its tokens, cast to float32, since a token's
    row depends on the token alone. The table is filled through
    ``compose_text`` in chunks of ``COMPILE_TOKENS`` tokens. A text whose
    tokens resolve in no store raises ``EmptyTextError`` at its position.
    """
    vocab: dict[str, int] = {}
    ids = [np.array([vocab.setdefault(t, len(vocab)) for t in tokens], np.intp) for tokens in texts]
    models = list(dict.fromkeys(m.model_id for m in spec.mixtures))
    for model_id in models:
        if model_id not in stores:
            raise MissingModelError(f"no store for model {model_id!r}")
    tokens = list(vocab)
    resolved = np.zeros(len(tokens), bool)
    for model_id in models:
        resolved |= np.array([t in stores[model_id].index for t in tokens], bool)
    for pos, text in enumerate(ids):
        if not resolved[text].any():
            reason = "no token of the text resolves in any embedding store"
            raise EmptyTextError(reason, pos, f"text {pos}")
    dims = {m: (stores[m].num_layers, stores[m].dim) for m in models}
    table = np.empty((len(tokens), composed_dim(spec, dims)), np.float32)
    for lo in range(0, len(tokens), COMPILE_TOKENS):
        chunk = tokens[lo:lo + COMPILE_TOKENS]
        # compose_text rejects a chunk that resolves nowhere: lead it with a token that does
        lead = [] if resolved[lo:lo + len(chunk)].any() else [tokens[int(np.argmax(resolved))]]
        table[lo:lo + len(chunk)] = compose_text(lead + chunk, stores, spec, idf)[len(lead):]
    return table, ids
