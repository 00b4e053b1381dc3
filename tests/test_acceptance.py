"""Acceptance criteria, one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Every randomized suite draws from a fixed master seed so reruns
are reproducible.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np

from multires.corpus import Document, build_idf
from multires.embedding import (
    EnsembleSpec,
    LayeredTokenEmbedding,
    MixtureSpec,
    compose_token,
    ensemble,
    mix_layers,
)
from multires.embedding.stores import (
    ContextualStore,
    read_context_free_store,
    read_contextual_store,
    write_context_free_store,
    write_contextual_store,
)
from multires.errors import FormatError
from multires.model import (
    init_convrr_params,
    read_checkpoint,
    write_checkpoint,
    zero_convrr_params,
)
from multires.model.encoder import (
    convrr_backward_many,
    convrr_forward_many,
    mean_embedding_encode,
)
from multires.model.loss import mine_hard
from multires.numerics import (
    conv1d_same,
    conv1d_same_backward,
    finite_diff_check,
    l2_normalize,
    l2_normalize_backward,
    mean_over_positions,
    mean_over_positions_backward,
    relu,
    relu_backward,
)
from multires.retrieval import build_index, recall_at_k, search
from multires.synthetic import run_clustered_benchmark

MASTER_SEED = 20240601


def _report(num: int, name: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    print(f"[acceptance] criterion {num} ({name}): {status} {detail}".rstrip())
    assert ok, f"criterion {num} ({name}) failed {detail}"


# --- criterion 1: gradient suite ---
#
# Central differences at h=1e-6 on an O(1)-valued function carry an absolute
# rounding floor around 1e-9 on the numeric derivative, so instances whose
# smallest nonzero gradient coordinate sits below that floor over the stated
# tolerance are ill-conditioned for the check (the same way the ReLU check
# requires entries away from the kink). Such instances are resampled; exact
# structural zeros (dead paths) are kept since both sides are exactly zero.


def _alive_min(*arrays) -> float:
    smallest = np.inf
    for arr in arrays:
        nz = np.abs(arr[arr != 0])
        if nz.size:
            smallest = min(smallest, float(nz.min()))
    return smallest


def _conv_trials(rng, trials):
    worst = 0.0
    done = 0
    while done < trials:
        k = int(rng.integers(2, 6))
        d = int(rng.integers(1, 5))
        n_k = int(rng.integers(1, 4))
        ws = int(rng.choice([1, 3, 5]))
        inp = rng.normal(size=(k, d))
        kern = rng.normal(size=(n_k, ws, d))
        bias = rng.normal(size=n_k)
        g = rng.normal(size=(k, n_k))
        gi, gk, gb = conv1d_same_backward(inp, kern, bias, g)
        if _alive_min(gi, gk, gb) < 5e-3:
            continue
        done += 1
        worst = max(
            worst,
            finite_diff_check(lambda z: float(np.sum(conv1d_same(z, kern, bias) * g)), inp, gi),
            finite_diff_check(lambda z: float(np.sum(conv1d_same(inp, z, bias) * g)), kern, gk),
            finite_diff_check(lambda z: float(np.sum(conv1d_same(inp, kern, z) * g)), bias, gb),
        )
    return worst


def _relu_trials(rng, trials):
    worst = 0.0
    done = 0
    while done < trials:
        x = rng.normal(size=(int(rng.integers(2, 5)), int(rng.integers(1, 5))))
        x = np.where(np.abs(x) < 1e-3, x + 0.5, x)  # keep clear of the kink
        g = rng.normal(size=x.shape)
        analytic = relu_backward(x, g)
        if _alive_min(analytic) < 5e-3:
            continue
        done += 1
        worst = max(
            worst,
            finite_diff_check(lambda z: float(np.sum(relu(z) * g)), x, analytic),
        )
    return worst


def _mean_trials(rng, trials):
    worst = 0.0
    done = 0
    while done < trials:
        x = rng.normal(size=(int(rng.integers(1, 6)), int(rng.integers(1, 5))))
        g = rng.normal(size=x.shape[1])
        analytic = mean_over_positions_backward(g, x.shape[0])
        if _alive_min(analytic) < 5e-3:
            continue
        done += 1
        worst = max(
            worst,
            finite_diff_check(
                lambda z: float(np.dot(mean_over_positions(z), g)), x, analytic
            ),
        )
    return worst


def _l2_trials(rng, trials):
    worst = 0.0
    done = 0
    while done < trials:
        v = rng.normal(size=int(rng.integers(2, 8)))
        if np.linalg.norm(v) < 0.3:
            continue
        g = rng.normal(size=v.shape)
        analytic = l2_normalize_backward(v, g)
        if _alive_min(analytic) < 5e-3:
            continue
        done += 1
        worst = max(
            worst,
            finite_diff_check(lambda z: float(np.dot(l2_normalize(z), g)), v, analytic),
        )
    return worst


def _end_to_end_trials(rng, trials):
    """FD-check the mean batch triplet loss against the analytic gradients."""
    dim, margin = 6, 0.3
    worst = 0.0
    done = 0
    while done < trials:
        k = int(rng.integers(1, 5))
        params = init_convrr_params(
            dim, depth=2, window=3, scale=0.7,
            rng=np.random.default_rng(int(rng.integers(0, 2**31))), dtype=np.float64,
        )
        stack = rng.normal(size=(5, k, dim))
        out, cache = convrr_forward_many(stack, params)
        a1, a2, p1, p2, ng = out
        raw1 = float(np.sum((a1 - p1) ** 2) - np.sum((a1 - ng) ** 2)) + margin
        raw2 = float(np.sum((a2 - p2) ** 2) - np.sum((a2 - ng) ** 2)) + margin
        min_pre = min(float(np.abs(z).min()) for z in cache["pre_acts"])
        if min(abs(raw1), abs(raw2)) < 1e-3 or min_pre < 1e-4:
            continue  # hinge or ReLU kink too close for finite differences
        if not (raw1 > 0 or raw2 > 0):
            continue  # fully clamped batch has an all-zero gradient

        upstream = np.zeros_like(out)
        if raw1 > 0:
            upstream[0] += (2 * (a1 - p1) - 2 * (a1 - ng)) / 2
            upstream[2] += -2 * (a1 - p1) / 2
            upstream[4] += 2 * (a1 - ng) / 2
        if raw2 > 0:
            upstream[1] += (2 * (a2 - p2) - 2 * (a2 - ng)) / 2
            upstream[3] += -2 * (a2 - p2) / 2
            upstream[4] += 2 * (a2 - ng) / 2
        grads, _ = convrr_backward_many(params, cache, upstream)
        if _alive_min(*grads) < 2e-4:
            continue
        done += 1

        tensors = params.tensors()

        def batch_loss(replaced):
            o, _ = convrr_forward_many(stack, params.replace_tensors(replaced))
            l1 = max(float(np.sum((o[0] - o[2]) ** 2) - np.sum((o[0] - o[4]) ** 2)) + margin, 0.0)
            l2 = max(float(np.sum((o[1] - o[3]) ** 2) - np.sum((o[1] - o[4]) ** 2)) + margin, 0.0)
            return (l1 + l2) / 2

        for i in range(len(tensors)):
            def f(z, i=i):
                replaced = list(tensors)
                replaced[i] = z
                return batch_loss(replaced)

            worst = max(worst, finite_diff_check(f, tensors[i], grads[i]))
    return worst


def test_criterion_1_gradient_suite():
    rng = np.random.default_rng(MASTER_SEED)
    start = time.perf_counter()
    op_worst = max(
        _conv_trials(rng, 100),
        _relu_trials(rng, 100),
        _mean_trials(rng, 100),
        _l2_trials(rng, 100),
    )
    e2e_worst = _end_to_end_trials(rng, 100)
    elapsed = time.perf_counter() - start
    ok = op_worst < 1e-6 and e2e_worst < 1e-5 and elapsed < 30.0
    _report(
        1,
        "gradient suite",
        ok,
        f"(ops max {op_worst:.2e} < 1e-6, end-to-end max {e2e_worst:.2e} < 1e-5, {elapsed:.1f}s < 30s)",
    )


# --- criterion 2: algebra suite ---


def test_criterion_2_algebra_suite():
    rng = np.random.default_rng(MASTER_SEED + 1)
    ok = True
    notes = []

    # one-hot mixture identity, exact
    layers = rng.normal(size=(4, 3))
    emb = LayeredTokenEmbedding("m", layers)
    for hot in range(4):
        weights = tuple(1.0 if i == hot else 0.0 for i in range(4))
        out = mix_layers(emb, MixtureSpec("m", weights, "sum"))
        ok = ok and np.array_equal(out, layers[hot])
    notes.append("one-hot identity exact")

    # dimension law with the production-scale wiring (4*768 + 1000 + 300 = 4372)
    def wiring(d_bert, d_elmo, d_ft):
        spec = EnsembleSpec.normalized(
            (
                MixtureSpec("bert", (0.25,) * 4 + (0.0,) * 8, "concatenate"),
                MixtureSpec("elmo", (0.0, 0.0, 1.0), "sum", use_idf=True),
                MixtureSpec("fasttext", (1.0,), "sum", use_idf=True),
            ),
            (1.0, 1.0, 1.0),
            "concatenate",
        )
        sets = {
            "bert": LayeredTokenEmbedding("bert", rng.normal(size=(12, d_bert))),
            "elmo": LayeredTokenEmbedding("elmo", rng.normal(size=(3, d_elmo))),
            "fasttext": LayeredTokenEmbedding("fasttext", rng.normal(size=(1, d_ft))),
        }
        return compose_token(sets, spec, 1.1)

    ok = ok and wiring(256, 256, 300).shape == (1580,)
    ok = ok and wiring(768, 1000, 300).shape == (4372,)
    notes.append("d''=1580 and d''=4372 wirings")

    # homogeneity < 1e-10
    spec = EnsembleSpec.normalized(
        (
            MixtureSpec("a", (0.5, 0.5), "concatenate", use_idf=True),
            MixtureSpec("b", (1.0,), "sum"),
        ),
        (1.0, 2.0),
        "concatenate",
    )
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(1, 4))
    c = -1.7
    base = compose_token(
        {"a": LayeredTokenEmbedding("a", a), "b": LayeredTokenEmbedding("b", b)}, spec, 0.9
    )
    scaled = compose_token(
        {"a": LayeredTokenEmbedding("a", c * a), "b": LayeredTokenEmbedding("b", c * b)},
        spec,
        0.9,
    )
    ok = ok and bool(np.max(np.abs(scaled - c * base)) < 1e-10)
    notes.append("homogeneity < 1e-10")

    # composition equality, exact
    for _ in range(100):
        sets = {
            "a": LayeredTokenEmbedding("a", rng.normal(size=(2, 3))),
            "b": LayeredTokenEmbedding("b", rng.normal(size=(1, 4))),
        }
        w = float(rng.uniform(0.2, 2.0))
        manual = ensemble(
            [mix_layers(sets["a"], spec.mixtures[0], w), mix_layers(sets["b"], spec.mixtures[1], w)],
            spec,
        )
        ok = ok and np.array_equal(compose_token(sets, spec, w), manual)
    notes.append("composition equality exact")

    _report(2, "algebra suite", ok, "(" + "; ".join(notes) + ")")


# --- criterion 3: oracle suite ---


def test_criterion_3_oracle_suite():
    rng = np.random.default_rng(MASTER_SEED + 2)
    ok = True

    # full-scan mining equals brute force for batches up to 64
    def unit(v):
        return v / np.linalg.norm(v)

    for n_docs in (2, 17, 64):
        docs = np.array([unit(rng.normal(size=5)) for _ in range(n_docs)])
        anchors = np.array([unit(rng.normal(size=5)) for _ in range(16)])
        gold = np.array([int(rng.integers(0, n_docs)) for _ in range(16)])
        mined = mine_hard(anchors, docs[gold], docs, gold)
        for a, negative in enumerate(mined.tolist()):
            best, best_idx = None, None
            for idx, vec in enumerate(docs):
                if idx == gold[a]:
                    continue
                dist = float(np.sum((anchors[a] - vec) ** 2))
                if best is None or dist < best:
                    best, best_idx = dist, idx
            ok = ok and negative == best_idx

    # search equals the stable full-sort prefix for a 1000-document index
    docs = [(f"d{i}", unit(rng.normal(size=16))) for i in range(1000)]
    index = build_index(docs)
    for _ in range(5):
        query = unit(rng.normal(size=16))
        got = search(index, query, k=25)
        dists = [float(np.sum((vec - query) ** 2)) for _, vec in docs]
        expect = sorted(range(1000), key=lambda i: (dists[i], i))[:25]
        ok = ok and [doc_id for doc_id, _ in got] == [docs[i][0] for i in expect]
        ok = ok and [dist for _, dist in got] == [dists[i] for i in expect]

    # recall@3 on the rank 1,2,4,6 fixture is exactly 0.5
    all_ids = [f"d{i}" for i in range(8)]

    def with_gold_at(rank):
        rest = [d for d in all_ids if d != "g"]
        return rest[: rank - 1] + ["g"] + rest[rank - 1 :]

    rankings = {f"q{i}": with_gold_at(r) for i, r in enumerate((1, 2, 4, 6))}
    ok = ok and recall_at_k(rankings, {q: "g" for q in rankings}, 3) == 0.5

    # idf table satisfies exp(idf) * df == N
    texts = [" ".join(f"w{int(rng.integers(0, 40))}" for _ in range(8)) for _ in range(64)]
    table = build_idf([Document(str(i), t) for i, t in enumerate(texts)])
    for df, idf in table.entries.values():
        ok = ok and abs(math.exp(idf) * df - table.num_documents) / table.num_documents < 1e-9

    _report(3, "oracle suite", ok, "(mining, search, recall fixture, idf identity)")


# --- criterion 4: collapse suite ---


def test_criterion_4_collapse_suite():
    rng = np.random.default_rng(MASTER_SEED + 3)
    dim, n_docs, n_queries = 8, 40, 25
    doc_matrices = [rng.normal(size=(int(rng.integers(1, 5)), dim)).astype(np.float32) for _ in range(n_docs)]
    query_matrices = [rng.normal(size=(int(rng.integers(1, 5)), dim)).astype(np.float32) for _ in range(n_queries)]

    def rankings(encode):
        index = build_index([(f"d{i}", encode(m)) for i, m in enumerate(doc_matrices)])
        out = []
        for q in query_matrices:
            out.append([doc_id for doc_id, _ in search(index, encode(q), k=n_docs)])
        return out

    baseline = rankings(mean_embedding_encode)

    zero_params = zero_convrr_params(dim)
    from multires.model.encoder import convrr_forward

    zero_rankings = rankings(lambda m: convrr_forward(m, zero_params))

    sf_zero = init_convrr_params(dim, scale=0.0, rng=rng)
    sf_rankings = rankings(lambda m: convrr_forward(m, sf_zero))

    ok = zero_rankings == baseline and sf_rankings == baseline
    _report(4, "collapse suite", ok, "(zero-weight and sf=0 match mean-embedding order)")


# --- criterion 5: synthetic training benchmark ---


def test_criterion_5_synthetic_benchmark():
    start = time.perf_counter()
    result = run_clustered_benchmark(seed=7)
    elapsed = time.perf_counter() - start

    base1 = result["baseline_recall"]["1"]
    trained1 = result["trained_recall"]["1"]
    first, last = result["loss_trace"][0], result["loss_trace"][199]
    halved = last <= 0.5 * first
    gained = trained1 >= base1 + 0.10
    mid_band = 0.15 <= base1 <= 0.75

    repeat = run_clustered_benchmark(seed=7)
    identical = json.dumps(result) == json.dumps(repeat)

    ok = halved and gained and identical and elapsed < 60.0 and mid_band
    _report(
        5,
        "synthetic benchmark",
        ok,
        f"(loss {first:.3f}->{last:.3f}, recall@1 {base1:.3f}->{trained1:.3f}, "
        f"bitwise-repeatable={identical}, {elapsed:.1f}s < 60s)",
    )


# --- criterion 6: CLI determinism ---


def test_criterion_6_cli_determinism(cli_workspace):
    ws = cli_workspace

    def run(cmd):
        proc = subprocess.run(
            [sys.executable, "-m", "multires.cli", *cmd],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        return proc

    artifacts = {}
    for attempt in ("first", "second"):
        run(["train", "--config", str(ws["config"])])
        run(["eval", "--config", str(ws["config"])])
        artifacts[attempt] = (
            ws["checkpoint"].read_bytes(),
            ws["loss_trace"].read_bytes(),
            ws["report"].read_bytes(),
        )
    ok = artifacts["first"] == artifacts["second"]
    _report(6, "determinism", ok, "(checkpoint, loss trace, and report byte-identical)")


# --- criterion 7: format round trips and rejection ---


def test_criterion_7_format_round_trip(tmp_path, cli_workspace):
    rng = np.random.default_rng(MASTER_SEED + 4)
    ok = True

    # MRE1 bitwise round trip
    from multires.embedding.stores import ContextFreeStore

    store = ContextFreeStore(
        model_id="m",
        num_layers=2,
        dim=3,
        vectors={t: rng.normal(size=(2, 3)).astype(np.float32) for t in ("a", "b")},
    )
    p = tmp_path / "s.mre"
    write_context_free_store(str(p), store)
    loaded = read_context_free_store(str(p), "m")
    ok = ok and all(np.array_equal(loaded.vectors[t], store.vectors[t]) for t in store.vectors)

    # MRT1 bitwise round trip
    ctx = ContextualStore(model_id="c", text_id=3, layers=rng.normal(size=(4, 1, 5)).astype(np.float32))
    p2 = tmp_path / "t.mrt"
    write_contextual_store(str(p2), ctx)
    ok = ok and np.array_equal(read_contextual_store(str(p2), "c").layers, ctx.layers)

    # CRR1 bitwise round trip
    params = init_convrr_params(4, rng=rng)
    p3 = tmp_path / "m.crr"
    write_checkpoint(str(p3), params, "convrr")
    loaded_params, _ = read_checkpoint(str(p3))
    ok = ok and all(
        np.array_equal(a, b) for a, b in zip(loaded_params.tensors(), params.tensors())
    )

    # corrupted magic and truncation are rejected in-library
    for path, reader in ((p, read_context_free_store), (p2, read_contextual_store)):
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        bad = tmp_path / (path.name + ".bad")
        bad.write_bytes(bytes(blob))
        try:
            reader(str(bad), "m")
            ok = False
        except FormatError:
            pass
        trunc = tmp_path / (path.name + ".trunc")
        trunc.write_bytes(path.read_bytes()[:-3])
        try:
            reader(str(trunc), "m")
            ok = False
        except FormatError:
            pass

    # and at the CLI as exit code 2
    from multires.cli import main

    ws = cli_workspace
    assert main(["train", "--config", str(ws["config"])]) == 0
    blob = bytearray(ws["checkpoint"].read_bytes())
    blob[:4] = b"XXXX"
    ws["checkpoint"].write_bytes(bytes(blob))
    ok = ok and main(["eval", "--config", str(ws["config"])]) == 2

    _report(7, "format round-trip", ok, "(MRE1/MRT1/CRR1 bitwise; corruption exit 2)")
