"""Seeded input generation for every workload.

Run as its own process, before the workload process starts, so that no
timing and no peak-RSS figure of a workload includes generating its inputs:

    python3 perfbench/inputs.py --workload text_train --seed 1 --out DIR

The same seed writes the same files. For the text workloads, everything
the program reads (corpus, QA pairs, MRE stores, spec, run config, and for
``index_and_serve`` a seeded checkpoint) goes into DIR, together with
``truth.json`` and ``truth.npz``: the token lists, gold documents and the
raw store rows of the sampled texts, which the checks compare the program
against. For ``clustered_train``, DIR holds ``clustered_dataset(seed)``
as ``clustered.npz``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
from dataclasses import dataclass

import numpy as np

# Store A: 12 layers x 64, first four layers concatenated at 0.25.
# Store B: 3 layers x 32, last layer summed and scaled by IDF.
# d'' = 4 * 64 + 32 = 288.
STORE_SHAPES = {"a": (12, 64), "b": (3, 32)}
SPEC_TEXT = (
    "ensemble.aggregator=concatenate\n"
    "ensemble.weights=1,1\n"
    "mixture.1.model=a\n"
    "mixture.1.weights=0.25,0.25,0.25,0.25,0,0,0,0,0,0,0,0\n"
    "mixture.1.aggregator=concatenate\n"
    "mixture.2.model=b\n"
    "mixture.2.weights=0,0,1\n"
    "mixture.2.aggregator=sum\n"
    "mixture.2.use_idf=true\n"
)
DIM = 288
DEPTH = 2
WINDOW = 5
SCALE = 0.05
# Ranks follow a Zipf law. At exponent 0.8, with store A ten times the
# scale of store B, the untrained encoder ranks the gold document first for
# about nine queries in ten, so recall moves little from seed to seed.
ZIPF_EXPONENT = 0.8
STORE_STD = {"a": 10.0, "b": 1.0}
GOLD_TOKENS = 8
DISTRACTOR_TOKENS = 4
SAMPLED_TEXTS = 16


@dataclass(frozen=True)
class TextSizes:
    vocab: int            # words with a row in both stores; the corpus draws from them
    docs: int
    doc_tokens: int
    queries: int
    oov_queries: int      # queries that carry one word found in no store
    iterations: int = 0   # CLI train settings (text_train only)
    batch_size: int = 0


SIZES = {
    "text_train": TextSizes(
        vocab=5000, docs=1000, doc_tokens=40, queries=1000,
        oov_queries=0, iterations=6, batch_size=64,
    ),
    # The batched index forward copies a (docs, 40, 288, 5) float32 window
    # array: 1000 documents peak near 0.73 GB, 2000 peaked at 1.2 GB.
    "index_and_serve": TextSizes(
        vocab=50000, docs=1000, doc_tokens=40, queries=1000,
        oov_queries=20,
    ),
}


def word(i: int) -> str:
    return f"w{i:05d}"


def zipf_probs(n: int) -> np.ndarray:
    p = 1.0 / np.arange(1, n + 1) ** ZIPF_EXPONENT
    return p / p.sum()


def generate_texts(sizes: TextSizes, seed: int) -> dict:
    """Token lists of documents and queries, plus each query's gold document.

    Word ranks are shuffled per seed, so which word is frequent differs
    between seeds while the frequency law stays fixed.
    """
    rng = np.random.default_rng([seed, 1])
    rank_to_word = rng.permutation(sizes.vocab)
    probs = zipf_probs(sizes.vocab)
    doc_ids = rank_to_word[rng.choice(sizes.vocab, size=(sizes.docs, sizes.doc_tokens), p=probs)]
    docs = [[word(w) for w in row] for row in doc_ids]
    gold = [int(g) for g in rng.integers(0, sizes.docs, size=sizes.queries)]
    oov = set(rng.choice(sizes.queries, size=sizes.oov_queries, replace=False).tolist())
    queries = []
    for q, g in enumerate(gold):
        picked = rng.choice(sizes.doc_tokens, size=GOLD_TOKENS, replace=False)
        tokens = [docs[g][i] for i in picked]
        distractors = rank_to_word[rng.choice(sizes.vocab, size=DISTRACTOR_TOKENS, p=probs)]
        tokens += [word(w) for w in distractors]
        if q in oov:
            tokens[-1] = f"oov{q}"
        queries.append([tokens[i] for i in rng.permutation(len(tokens))])
    return {"docs": docs, "queries": queries, "gold": gold, "oov_queries": sorted(oov)}


def store_rows(model: str, vocab: int, seed: int) -> np.ndarray:
    """(vocab, l, d) float32 rows of one store; row i belongs to word(i)."""
    layers, dim = STORE_SHAPES[model]
    rng = np.random.default_rng([seed, 2, ord(model)])
    rows = rng.standard_normal((vocab, layers, dim), dtype=np.float32)
    rows *= np.float32(STORE_STD[model])
    return rows


def sample_indices(n: int, seed: int) -> list[int]:
    rng = np.random.default_rng([seed, 3])
    return sorted(rng.choice(n, size=min(SAMPLED_TEXTS, n), replace=False).tolist())


def _write_jsonl(path: str, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for row in rows:
            fh.write(json.dumps(row))
            fh.write("\n")


def write_inputs(workload: str, seed: int, out: str, final: str) -> None:
    """Write every input file into ``out``; the run config names them under ``final``."""
    from multires.embedding.stores import ContextFreeStore, write_context_free_store
    from multires.model.checkpoint import write_checkpoint
    from multires.model.encoder import init_convrr_params

    sizes = SIZES[workload]
    texts = generate_texts(sizes, seed)
    os.makedirs(out, exist_ok=True)
    _write_jsonl(
        os.path.join(out, "corpus.jsonl"),
        ({"id": f"d{i:05d}", "text": " ".join(t)} for i, t in enumerate(texts["docs"])),
    )
    _write_jsonl(
        os.path.join(out, "pairs.jsonl"),
        (
            {"query_id": f"q{i:05d}", "query_text": " ".join(t), "positive_doc_id": f"d{g:05d}"}
            for i, (t, g) in enumerate(zip(texts["queries"], texts["gold"]))
        ),
    )
    with open(os.path.join(out, "spec.cfg"), "w", encoding="utf-8") as fh:
        fh.write(SPEC_TEXT)

    doc_sample = sample_indices(sizes.docs, seed)
    # every sample holds some queries with a word found in no store
    query_sample = sorted(set(sample_indices(sizes.queries, seed + 1)) | set(texts["oov_queries"][:4]))
    sampled_words = sorted(
        {t for i in doc_sample for t in texts["docs"][i]}
        | {t for i in query_sample for t in texts["queries"][i]}
    )
    truth_rows = {}
    for model in STORE_SHAPES:
        rows = store_rows(model, sizes.vocab, seed)
        store = ContextFreeStore(
            model_id=model,
            num_layers=rows.shape[1],
            dim=rows.shape[2],
            vectors={word(i): rows[i] for i in range(sizes.vocab)},
        )
        write_context_free_store(os.path.join(out, f"{model}.mre"), store)
        in_store = [w for w in sampled_words if not w.startswith("oov")]
        truth_rows[f"{model}_words"] = np.array(in_store)
        truth_rows[f"{model}_rows"] = rows[[int(w[1:]) for w in in_store]]
        del store, rows
    np.savez(os.path.join(out, "truth.npz"), **truth_rows)

    config = [
        f"corpus={final}/corpus.jsonl",
        f"qa_pairs={final}/pairs.jsonl",
        f"stores=a:{final}/a.mre,b:{final}/b.mre",
        f"spec={final}/spec.cfg",
        f"seed={seed}",
        f"depth={DEPTH}",
        f"ws={WINDOW}",
        f"sf={SCALE}",
        "k=1,5",
    ]
    if workload == "text_train":
        config += [
            f"iterations={sizes.iterations}",
            f"batch_size={sizes.batch_size}",
            "lr=1e-3",
            "weight_decay=0",
            "margin=0.2",
            "mining=batch_hard",
        ]
    else:
        params = init_convrr_params(
            DIM, depth=DEPTH, window=WINDOW, scale=SCALE, rng=np.random.default_rng([seed, 4])
        )
        write_checkpoint(os.path.join(out, "seeded.crr"), params, "convrr")
        config.append(f"checkpoint={final}/seeded.crr")
    with open(os.path.join(out, "run.cfg"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(config) + "\n")
    with open(os.path.join(out, "truth.json"), "w", encoding="utf-8") as fh:
        json.dump({**texts, "doc_sample": doc_sample, "query_sample": query_sample}, fh)


def write_clustered(seed: int, out: str) -> None:
    """``clustered_dataset(seed)`` as arrays: one row per document and per query."""
    from multires.synthetic import clustered_dataset

    data = clustered_dataset(seed)
    os.makedirs(out, exist_ok=True)
    np.savez(
        os.path.join(out, "clustered.npz"),
        doc_ids=np.array(list(data.doc_matrices)),
        docs=np.stack([m[0] for m in data.doc_matrices.values()]),
        query_ids=np.array(list(data.query_matrices)),
        queries=np.stack([m[0] for m in data.query_matrices.values()]),
        gold=np.array([p.positive_doc_id for p in data.pairs]),
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(SIZES) + ["clustered_train"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    tmp = args.out + ".partial"
    shutil.rmtree(tmp, ignore_errors=True)
    if args.workload == "clustered_train":
        write_clustered(args.seed, tmp)
    else:
        write_inputs(args.workload, args.seed, tmp, os.path.abspath(args.out))
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
