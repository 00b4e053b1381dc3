"""Self-test of the benchmark's reference computations, at tiny sizes.

Each reference must agree with the program on a tiny input and must
reject an output perturbed on purpose; otherwise the benchmark's output
checks would prove nothing.
"""

import json
import math
import os

import numpy as np
import pytest

import inputs
import reference as ref
import spans
from multires.corpus import Document, build_idf
from multires.embedding.compose import compose_text
from multires.embedding.specs import parse_spec_file
from multires.embedding.stores import ContextFreeStore
from multires.model.encoder import convrr_forward, init_convrr_params
from multires.retrieval import build_index, recall_at_k, search

TOKENS = [["the", "cat", "sat"], ["the", "dog"], ["a", "cat", "cat", "ran"]]


def test_idf_reference_matches_program_and_rejects_perturbation():
    table = build_idf([Document(id=str(i), text=" ".join(t)) for i, t in enumerate(TOKENS)])
    program = {t: v for t, (_, v) in table.entries.items()}
    expected = ref.idf(TOKENS)
    assert program == expected
    assert expected["cat"] == math.log(3 / 2)
    perturbed = dict(program, cat=program["cat"] + 1e-9)
    assert perturbed != expected


@pytest.fixture
def tiny_stores(tmp_path):
    rng = np.random.default_rng(0)
    rows = {
        m: {w: rng.normal(size=shape).astype(np.float32) for w in ("the", "cat", "dog", "sat")}
        for m, shape in inputs.STORE_SHAPES.items()
    }
    del rows["b"]["sat"]  # resolved in store A only
    stores = {
        m: ContextFreeStore(model_id=m, num_layers=shape[0], dim=shape[1], vectors=rows[m])
        for m, shape in inputs.STORE_SHAPES.items()
    }
    spec_path = tmp_path / "spec.cfg"
    spec_path.write_text(inputs.SPEC_TEXT)
    return rows, stores, parse_spec_file(str(spec_path))


def test_compose_reference_matches_program_and_rejects_perturbation(tiny_stores):
    rows, stores, spec = tiny_stores
    table = build_idf([Document(id=str(i), text=" ".join(t)) for i, t in enumerate(TOKENS)])
    tokens = ["the", "cat", "unseen", "sat"]
    program = compose_text(tokens, stores, spec, table)
    expected = ref.compose(tokens, rows, ref.idf(TOKENS), len(TOKENS))
    assert program.shape == (4, inputs.DIM)
    assert ref.close(program, expected)
    perturbed = program.copy()
    perturbed[1, 12] += 1e-3
    assert not ref.close(perturbed, expected)


@pytest.mark.parametrize("k", [1, 2, 7])
def test_convrr_reference_matches_program_and_rejects_perturbation(k):
    rng = np.random.default_rng(k)
    params = init_convrr_params(8, depth=2, window=5, scale=0.5, rng=rng)
    x = rng.normal(size=(k, 8)).astype(np.float32)
    program = convrr_forward(x, params)
    expected = ref.convrr_forward(
        x, [b.kernels for b in params.blocks], [b.bias for b in params.blocks], params.scale
    )
    assert ref.close(program, expected)
    perturbed = program.copy()
    perturbed[3] += 1e-3
    assert not ref.close(perturbed, expected)


def test_ranking_reference_matches_program_and_rejects_perturbation():
    rng = np.random.default_rng(3)
    vecs = rng.normal(size=(12, 6))
    vecs[7] = vecs[2]  # an exact tie, broken by index order
    vecs = (vecs / np.linalg.norm(vecs, axis=1, keepdims=True)).astype(np.float32)
    index = build_index([(f"d{i}", v) for i, v in enumerate(vecs)])
    query = vecs[2] + np.float32(0.01)
    query /= np.linalg.norm(query)
    served = [int(doc_id[1:]) for doc_id, _ in search(index, query, 5)]
    assert served[:2] == [2, 7]
    assert served == ref.rank(index.vectors, query, 5)
    assert ref.ranking_agrees(served, index.vectors, query)
    assert ref.ranking_agrees([7, 2] + served[2:], index.vectors, query)  # tie: either order
    assert not ref.ranking_agrees([served[0], served[2], served[1]] + served[3:], index.vectors, query)
    assert not ref.ranking_agrees(served[:4] + [served[0]], index.vectors, query)


def test_recall_reference_matches_program_and_rejects_perturbation():
    rng = np.random.default_rng(4)
    docs = rng.normal(size=(20, 5))
    docs /= np.linalg.norm(docs, axis=1, keepdims=True)
    queries = docs[[1, 4, 9, 9]] + rng.normal(scale=0.4, size=(4, 5))
    queries /= np.linalg.norm(queries, axis=1, keepdims=True)
    gold = [1, 4, 9, 3]
    rankings = [ref.rank(docs, q, 5) for q in queries]
    dist = np.stack([ref.distances(docs, q) for q in queries])
    for k in (1, 5):
        program = recall_at_k(
            {f"q{i}": [f"d{j}" for j in r] for i, r in enumerate(rankings)},
            {f"q{i}": f"d{g}" for i, g in enumerate(gold)},
            k,
        )
        assert program == ref.recall(rankings, gold, k)
        lo, hi = ref.recall_bounds(dist, gold, k)
        assert lo == program == hi  # no near-ties here
        assert not lo <= program - 1 / len(gold) <= hi


def test_tracer_records_spans_and_restores_the_program(tiny_stores):
    import multires.cli
    import multires.embedding.compose as compose_mod

    _, stores, spec = tiny_stores
    table = build_idf([Document(id="0", text="the cat")])
    original = compose_mod.compose_text
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert multires.cli.compose_text is not original
        with tracer.span("round"):
            compose_mod.compose_text(["the", "unseen"], stores, spec, table)
    finally:
        tracer.uninstall()
    assert compose_mod.compose_text is original and multires.cli.compose_text is original
    assert [s["name"] for s in tracer.spans] == ["round", "compose"]
    assert tracer.spans[1]["parent"] == 0
    layers = spans.layer_metrics(tracer.spans, rounds=1)
    assert layers["compose.oov_fraction"] == 2 / 4
    assert layers["compose.s"] > 0


def test_layer_figures_are_the_benchmark_per_layer_metrics():
    with open(os.path.join(os.path.dirname(__file__), "..", "BENCHMARK.json"), encoding="utf-8") as fh:
        names = [m["name"] for m in json.load(fh)["per_layer"]]
    assert list(spans.layer_metrics([], rounds=1)) == names


def test_traced_train_counts_active_triplets_from_the_train_result():
    import importlib

    from multires.model.train import TrainConfig
    from multires.synthetic import clustered_dataset

    train_mod = importlib.import_module("multires.model.train")  # the package exports the function

    data = clustered_dataset(1, num_clusters=4, dim=8, num_docs=16, num_queries=32)
    cfg = TrainConfig(iterations=3, batch_size=8, seed=1)
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span("round"):
            result = train_mod.train(data.pairs, data.query_matrices, data.doc_matrices, "convrr", cfg)
    finally:
        tracer.uninstall()
    (span,) = [s for s in tracer.spans if s["name"] == "train"]
    assert span["triplets"] == 3 * 8
    assert span["active_triplets"] == round(8 * sum(result.active_fractions))
    layers = spans.layer_metrics(tracer.spans, rounds=1)
    assert layers["loss.active_triplet_fraction"] == pytest.approx(np.mean(result.active_fractions))
    assert layers["train.iteration_ms"] > 0
