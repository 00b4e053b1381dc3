"""One benchmark workload, run in a fresh process by run.py.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --inputs DIR --out RESULT.json

A run repeats whole rounds of the workload's operations until S seconds
have passed, then checks the outputs and writes one JSON result. Round
and phase timings are medians over the run's rounds; set-up time is the
median of several set-ups. Peak RSS is read before the checks, which
allocate memory of their own.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import hashlib
import json
import os
import resource
import statistics
import sys
import time

import numpy as np

import reference as ref
import spans
from inputs import SIZES

from multires import cli
from multires import corpus as corpus_mod
from multires.embedding.compose import compose_text
from multires.embedding.specs import parse_spec_file
from multires.embedding.stores import read_context_free_store
from multires.model.checkpoint import read_checkpoint
from multires.model.encoder import encode_texts
from multires.model.loss import LossConfig
from multires.model.train import TrainConfig, train
from multires.numerics import active_backend
from multires.numerics.adam import AdamConfig
from multires.retrieval import build_index, evaluate, recall_at_k, search
from multires.synthetic import ClusteredDataset

SETUPS_PER_ROUND = 3
# Loading the clustered arrays takes a few milliseconds; more samples
# steady its median.
CLUSTERED_SETUPS_PER_ROUND = 10
SERVE_K = 10
RECALL_KS = (1, 5)
# run_clustered_benchmark's configuration
CLUSTERED_ITERATIONS = 200
CLUSTERED_BATCH = 256
CLUSTERED_LR = 1e-2
CLUSTERED_MARGIN = 0.15
CLUSTERED_KS = (1, 3, 5)
# trained recall@1 must beat the mean-embedding baseline by this much
CLUSTERED_GAIN = 0.10


class Run:
    """Timed rounds, operation counts and check outcomes of one workload run."""

    def __init__(self, seconds: float, tracer: spans.Tracer | None):
        self.seconds = seconds
        self.tracer = tracer
        self.rounds: list[dict] = []
        self.setups: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, bool] = {}
        self.peak_rss_mb = 0.0

    def phase(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def timed_setup(self, setup_fn):
        """Time one set-up and return what it loaded."""
        with self.phase("setup"):
            t0 = time.perf_counter()
            loaded = setup_fn()
            self.setups.append(time.perf_counter() - t0)
        return loaded

    def repeat(self, round_fn, setup_fn=None, setups_per_round: int = SETUPS_PER_ROUND) -> None:
        """Run whole rounds until the run's seconds are used; then stop tracing.

        ``setup_fn``, when given, is timed ``setups_per_round`` times before
        each round, so the set-up samples spread over the run like the rounds do.
        """
        start = time.perf_counter()
        while True:
            for _ in range(setups_per_round if setup_fn else 0):
                self.timed_setup(setup_fn)
            with self.phase("round"):
                t0 = time.perf_counter()
                record = round_fn()
                record["round_s"] = time.perf_counter() - t0
            self.rounds.append(record)
            if time.perf_counter() - start >= self.seconds:
                break
        if self.tracer:
            self.tracer.uninstall()
        self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    def op(self, ok: bool) -> bool:
        self.attempted += 1
        self.failed += 0 if ok else 1
        return ok

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = self.checks.get(name, True) and bool(ok)

    def median(self, key: str) -> float:
        """Median time of a phase over the run's rounds, which all do the same work."""
        return statistics.median(r[key] for r in self.rounds)


def file_digest(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# --- clustered_train ---


def load_clustered(inputs: str) -> ClusteredDataset:
    """Read ``clustered_dataset(seed)`` back from the arrays inputs.py wrote."""
    with np.load(os.path.join(inputs, "clustered.npz")) as npz:
        arrays = {k: npz[k] for k in npz.files}
    query_ids = arrays["query_ids"].tolist()
    return ClusteredDataset(
        doc_matrices={d: row[None, :] for d, row in zip(arrays["doc_ids"].tolist(), arrays["docs"])},
        query_matrices={q: row[None, :] for q, row in zip(query_ids, arrays["queries"])},
        pairs=[
            corpus_mod.QaPair(query_id=q, query_text="", positive_doc_id=g)
            for q, g in zip(query_ids, arrays["gold"].tolist())
        ],
    )


def clustered_train(run: Run, seed: int, inputs: str, workdir: str) -> dict:
    data = load_clustered(inputs)
    cfg = TrainConfig(
        iterations=CLUSTERED_ITERATIONS,
        batch_size=CLUSTERED_BATCH,
        seed=seed,
        adam=AdamConfig(learning_rate=CLUSTERED_LR, weight_decay=0.0),
        loss=LossConfig(margin=CLUSTERED_MARGIN),
    )
    queries, docs = data.queries(), data.docs()
    outcome = {}

    def one_round() -> dict:
        t0 = time.perf_counter()
        outcome["baseline"] = evaluate(None, queries, docs, CLUSTERED_KS, data.gold)
        t1 = time.perf_counter()
        outcome["result"] = train(data.pairs, data.query_matrices, data.doc_matrices, "convrr", cfg)
        t2 = time.perf_counter()
        outcome["trained"] = evaluate(outcome["result"].params, queries, docs, CLUSTERED_KS, data.gold)
        t3 = time.perf_counter()
        for _ in range(3):
            run.op(True)
        return {
            "train_s": t2 - t1,
            "eval_s": t3 - t2,
            "loss_trace": outcome["result"].loss_trace,
            "recalls": outcome["trained"].recalls,
        }

    run.repeat(
        one_round, setup_fn=lambda: load_clustered(inputs), setups_per_round=CLUSTERED_SETUPS_PER_ROUND
    )

    # checks
    result, baseline, trained = outcome["result"], outcome["baseline"], outcome["trained"]
    losses = np.asarray(result.loss_trace)
    run.check(
        "loss trace finite, non-negative, one entry per iteration",
        losses.shape == (CLUSTERED_ITERATIONS,) and np.all(np.isfinite(losses)) and np.all(losses >= 0),
    )
    run.check(
        "rounds repeat the same loss trace and recalls",
        all(
            r["loss_trace"] == run.rounds[0]["loss_trace"] and r["recalls"] == run.rounds[0]["recalls"]
            for r in run.rounds
        ),
    )
    gold = [int(p.positive_doc_id[1:]) for p in data.pairs]
    doc_mats = [m for _, m in docs]
    query_mats = [m for _, m in queries]
    base_docs = np.stack([ref.normalized_mean(m) for m in doc_mats])
    base_queries = np.stack([ref.normalized_mean(m) for m in query_mats])
    _check_recalls(run, "baseline", baseline.recalls, base_queries, base_docs, gold, CLUSTERED_KS)

    params = result.params
    enc_docs = encode_texts([np.asarray(m, dtype=np.float32) for m in doc_mats], params)
    enc_queries = encode_texts([np.asarray(m, dtype=np.float32) for m in query_mats], params)
    run.check("encoded vectors have unit norm", ref.unit_rows(enc_docs) and ref.unit_rows(enc_queries))
    _check_encoder_sample(run, params, doc_mats, enc_docs, seed)
    _check_recalls(run, "trained", trained.recalls, enc_queries, enc_docs, gold, CLUSTERED_KS)
    run.check(
        f"trained recall@1 beats the baseline by at least {CLUSTERED_GAIN}",
        trained.recalls[1] >= baseline.recalls[1] + CLUSTERED_GAIN,
    )
    pairs_per_round = CLUSTERED_ITERATIONS * CLUSTERED_BATCH
    return {
        "eval_queries_per_s": len(queries) / run.median("eval_s"),
        "recall_at_1": trained.recalls[1],
        "recall_at_5": trained.recalls[5],
        "detail": {
            "train_pairs_per_s": pairs_per_round / run.median("train_s"),
            "baseline_recall": {str(k): v for k, v in baseline.recalls.items()},
            "trained_recall": {str(k): v for k, v in trained.recalls.items()},
        },
    }


def _check_recalls(run: Run, what: str, reported: dict, queries, docs, gold, ks) -> None:
    """Reported recall@k lies within the bounds of a brute-force ranking of the same vectors."""
    dist = np.stack([ref.distances(docs, q) for q in queries])
    for k in ks:
        lo, hi = ref.recall_bounds(dist, gold, k)
        run.check(
            f"{what} recall@k equals brute-force recall (distance tolerance {ref.DIST_TOL})",
            lo - 1e-12 <= reported[k] <= hi + 1e-12,
        )


def _check_encoder_sample(run: Run, params, matrices, encoded, seed: int) -> None:
    rng = np.random.default_rng([seed, 5])
    kernels = [b.kernels for b in params.blocks]
    biases = [b.bias for b in params.blocks]
    ok = True
    for i in rng.choice(len(matrices), size=min(8, len(matrices)), replace=False):
        expected = ref.convrr_forward(matrices[i], kernels, biases, params.scale)
        ok = ok and ref.close(encoded[i], expected)
    run.check("sampled encodings match a reference convrr forward", ok)


# --- text workloads: shared inputs and checks ---


class TextInputs:
    def __init__(self, inputs: str, workdir: str, outputs: dict[str, str]):
        with open(os.path.join(inputs, "truth.json"), encoding="utf-8") as fh:
            self.truth = json.load(fh)
        rows = np.load(os.path.join(inputs, "truth.npz"))
        self.rows = {
            m: dict(zip(rows[f"{m}_words"].tolist(), rows[f"{m}_rows"])) for m in ("a", "b")
        }
        self.config = os.path.join(workdir, "run.cfg")
        with open(os.path.join(inputs, "run.cfg"), encoding="utf-8") as fh:
            text = fh.read()
        text += "".join(f"{key}={path}\n" for key, path in outputs.items())
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(text)
        self.idf = ref.idf(self.truth["docs"])

    def check_idf(self, run: Run, table) -> None:
        run.check(
            "IDF equals ln(N/df) of the generated token lists",
            table.num_documents == len(self.truth["docs"])
            and {t: v for t, (_, v) in table.entries.items()} == self.idf,
        )

    def check_compose(self, run: Run, stores, spec, idf_table) -> list[np.ndarray]:
        """Program compose of the sampled texts against the reference; returns the program's."""
        n = len(self.truth["docs"])
        ok = True
        doc_mats = []
        texts = [self.truth["docs"][i] for i in self.truth["doc_sample"]]
        texts += [self.truth["queries"][i] for i in self.truth["query_sample"]]
        for i, tokens in enumerate(texts):
            got = compose_text(tokens, stores, spec, idf_table)
            ok = ok and ref.close(got, ref.compose(tokens, self.rows, self.idf, n))
            if i < len(self.truth["doc_sample"]):
                doc_mats.append(got)
        run.check("sampled composed matrices match a reference composition", ok)
        return doc_mats


def _load_like_cli(config: str):
    cfg = cli.parse_run_config(config)
    docs = corpus_mod.load_corpus(cfg.corpus)
    pairs = corpus_mod.load_qa_pairs(cfg.qa_pairs, docs)
    stores = {m: read_context_free_store(p, m) for m, p in cfg.stores.items()}
    spec = parse_spec_file(cfg.spec)
    idf_table = corpus_mod.build_idf(docs)
    return cfg, docs, pairs, stores, spec, idf_table


# --- text_train ---


def text_train(run: Run, seed: int, inputs: str, workdir: str) -> dict:
    sizes = SIZES["text_train"]
    outputs = {
        "checkpoint": os.path.join(workdir, "model.crr"),
        "report": os.path.join(workdir, "report.json"),
        "loss_trace": os.path.join(workdir, "loss.csv"),
    }
    text = TextInputs(inputs, workdir, outputs)

    def one_round() -> dict:
        t0 = time.perf_counter()
        train_ok = run.op(cli.main(["train", "--config", text.config]) == 0)
        t1 = time.perf_counter()
        eval_ok = run.op(cli.main(["eval", "--config", text.config]) == 0)
        t2 = time.perf_counter()
        digests = {k: file_digest(p) for k, p in outputs.items()} if train_ok and eval_ok else {}
        return {"train_s": t1 - t0, "eval_s": t2 - t1, "digests": digests}

    run.repeat(one_round, setup_fn=lambda: _load_like_cli(text.config))

    run.check(
        "rounds write byte-identical checkpoint, loss trace and report",
        all(r["digests"] and r["digests"] == run.rounds[0]["digests"] for r in run.rounds),
    )
    with open(outputs["report"], encoding="utf-8") as fh:
        report = json.load(fh)
    recalls = {int(k): v for k, v in report["recall"].items()}
    with open(outputs["loss_trace"], encoding="utf-8") as fh:
        rows = [line.split(",") for line in fh.read().splitlines()[1:]]
    losses = np.array([float(r[1]) for r in rows])
    run.check(
        "loss trace finite, non-negative, one entry per iteration",
        losses.shape == (sizes.iterations,) and np.all(np.isfinite(losses)) and np.all(losses >= 0),
    )

    _, docs, pairs, stores, spec, idf_table = _load_like_cli(text.config)
    text.check_idf(run, idf_table)
    text.check_compose(run, stores, spec, idf_table)
    params, _ = read_checkpoint(outputs["checkpoint"])
    doc_mats = [compose_text(corpus_mod.tokenize(d.text), stores, spec, idf_table) for d in docs]
    query_mats = [compose_text(corpus_mod.tokenize(p.query_text), stores, spec, idf_table) for p in pairs]
    enc_docs = encode_texts([m.astype(np.float32) for m in doc_mats], params)
    enc_queries = encode_texts([m.astype(np.float32) for m in query_mats], params)
    run.check("encoded vectors have unit norm", ref.unit_rows(enc_docs) and ref.unit_rows(enc_queries))
    _check_encoder_sample(run, params, doc_mats, enc_docs, seed)
    _check_recalls(run, "eval", recalls, enc_queries, enc_docs, text.truth["gold"], RECALL_KS)

    pairs_per_round = sizes.iterations * min(sizes.batch_size, sizes.queries)
    return {
        "eval_queries_per_s": sizes.queries / run.median("eval_s"),
        "recall_at_1": recalls[1],
        "recall_at_5": recalls[5],
        "detail": {
            "train_pairs_per_s": pairs_per_round / run.median("train_s"),
            "loss_trace": losses.tolist(),
        },
    }


# --- index_and_serve ---


def _serving_setup(config: str):
    """What `multires search` loads before it can answer: stores, spec, IDF, checkpoint, index."""
    cfg = cli.parse_run_config(config)
    stores = {m: read_context_free_store(p, m) for m, p in cfg.stores.items()}
    spec = parse_spec_file(cfg.spec)
    idf_table = corpus_mod.build_idf(corpus_mod.load_corpus(cfg.corpus))
    params, _ = read_checkpoint(cfg.checkpoint)
    stored = read_context_free_store(cfg.index, "index")
    index = build_index([(doc_id, vec[0]) for doc_id, vec in stored.vectors.items()])
    return stores, spec, idf_table, params, index


def index_and_serve(run: Run, seed: int, inputs: str, workdir: str) -> dict:
    sizes = SIZES["index_and_serve"]
    index_path = os.path.join(workdir, "index.mre")
    text = TextInputs(inputs, workdir, {"index": index_path})
    queries = [" ".join(q) for q in text.truth["queries"]]
    state: dict = {}

    def one_round() -> dict:
        state.clear()
        t0 = time.perf_counter()
        index_ok = run.op(cli.main(["index", "--config", text.config]) == 0)
        t1 = time.perf_counter()
        digest = file_digest(index_path) if index_ok else None
        # The serving phase reads the index this round wrote; each set-up is
        # timed, and the last one serves.
        for _ in range(SETUPS_PER_ROUND):
            loaded = None  # free the previous set-up's stores first
            loaded = run.timed_setup(lambda: _serving_setup(text.config))
        stores, spec, idf_table, params, index = loaded
        latencies = []
        served = []
        with run.phase("serve"):
            t4 = time.perf_counter()
            for q in queries:
                s = time.perf_counter_ns()
                matrix = compose_text(corpus_mod.tokenize(q), stores, spec, idf_table)
                vec = encode_texts([matrix.astype(np.float32)], params)[0]
                hits = search(index, vec, SERVE_K)
                latencies.append(time.perf_counter_ns() - s)
                served.append((vec, hits))
                run.op(len(hits) == SERVE_K)
            t5 = time.perf_counter()
        state.update(stores=stores, spec=spec, idf=idf_table, params=params, index=index, served=served)
        return {
            "index_s": t1 - t0,
            "serve_s": t5 - t4,
            "latencies_ns": latencies,
            "digest": digest,
            "served_ids": [[d for d, _ in hits] for _, hits in served],
        }

    run.repeat(one_round)

    run.check(
        "rounds write a byte-identical index and serve identical rankings",
        all(
            r["digest"] and r["digest"] == run.rounds[0]["digest"]
            and r["served_ids"] == run.rounds[0]["served_ids"]
            for r in run.rounds
        ),
    )
    index, params = state["index"], state["params"]
    text.check_idf(run, state["idf"])
    doc_mats = text.check_compose(run, state["stores"], state["spec"], state["idf"])
    run.check("indexed vectors have unit norm", ref.unit_rows(index.vectors))
    position = {doc_id: i for i, doc_id in enumerate(index.ids)}
    sampled = [position[f"d{i:05d}"] for i in text.truth["doc_sample"]]
    _check_encoder_sample(run, params, doc_mats, index.vectors[sampled], seed)

    vecs = np.stack([vec for vec, _ in state["served"]])
    run.check("served query vectors have unit norm", ref.unit_rows(vecs))
    rankings = [[position[d] for d, _ in hits] for _, hits in state["served"]]
    run.check(
        f"every served top-{SERVE_K} equals a brute-force ranking (ties within {ref.DIST_TOL})",
        all(ref.ranking_agrees(r, index.vectors, v) for r, v in zip(rankings, vecs)),
    )
    gold = text.truth["gold"]
    by_id = {f"q{i:05d}": [d for d, _ in hits] for i, (_, hits) in enumerate(state["served"])}
    gold_ids = {f"q{i:05d}": f"d{g:05d}" for i, g in enumerate(gold)}
    recalls = {k: recall_at_k(by_id, gold_ids, k) for k in RECALL_KS}
    gold_positions = [position[f"d{g:05d}"] for g in gold]
    run.check(
        "served recall@k equals recall recomputed from the rankings (within 1e-12)",
        all(abs(recalls[k] - ref.recall(rankings, gold_positions, k)) <= 1e-12 for k in RECALL_KS),
    )

    latencies = np.array([ns for r in run.rounds for ns in r["latencies_ns"]]) / 1e6
    tail_pct = tail_percentile(latencies.size)
    return {
        "eval_queries_per_s": len(queries) / run.median("serve_s"),
        "recall_at_1": recalls[1],
        "recall_at_5": recalls[5],
        "detail": {
            "index_docs_per_s": sizes.docs / run.median("index_s"),
            "query_p50_ms": float(np.percentile(latencies, 50)),
            f"query_p{tail_pct:g}_ms": float(np.percentile(latencies, tail_pct)),
            "latency_samples": int(latencies.size),
            "clients": 1,
            "loop": "closed",
        },
    }


def tail_percentile(n: int) -> float:
    """Highest of 90, 99, 99.9 ... with at least ten samples beyond it."""
    pct = 50.0
    for candidate in (90.0, 99.0, 99.9, 99.99):
        if n * (1 - candidate / 100) >= 10:
            pct = candidate
    return pct


WORKLOADS = {
    "clustered_train": clustered_train,
    "text_train": text_train,
    "index_and_serve": index_and_serve,
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workdir = args.out + ".work"
    os.makedirs(workdir, exist_ok=True)
    tracer = spans.Tracer() if args.trace else None
    run = Run(args.seconds, tracer)
    if tracer:
        tracer.install()
    figures = WORKLOADS[args.workload](run, args.seed, args.inputs, workdir)
    metrics = {
        "setup_s": statistics.median(run.setups),
        "round_s": run.median("round_s"),
        "eval_queries_per_s": figures.pop("eval_queries_per_s"),
        "recall_at_1": figures.pop("recall_at_1"),
        "recall_at_5": figures.pop("recall_at_5"),
        "peak_rss_mb": run.peak_rss_mb,
    }
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": len(run.rounds),
        "setups": len(run.setups),
        "attempted": run.attempted,
        "failed": run.failed,
        "correct": all(run.checks.values()) and bool(run.checks),
        "program_environment": {
            "conv_backend": active_backend(),
            "MULTIRES_NUMBA": os.environ.get("MULTIRES_NUMBA", "unset"),
        },
        "checks": run.checks,
        "metrics": metrics,
        "per_round": [{k: v for k, v in r.items() if isinstance(v, float)} for r in run.rounds],
        "setup_times_s": run.setups,
        **figures,
    }
    if tracer:
        layer = spans.layer_metrics(tracer.spans, len(run.rounds))
        result["layers"] = layer
        for root in ("round", "train"):
            result[f"{root}_self_by_layer_s"] = {
                k: v / len(run.rounds) for k, v in spans.subtree_self_by_name(tracer.spans, root).items()
            }
        result["span_counts"] = dict(collections.Counter(s["name"] for s in tracer.spans))
        tracer.write(args.out[: -len(".json")] + ".spans.jsonl")
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
