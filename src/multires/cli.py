"""Batch command surface: build-idf, train, index, search, eval.

Exit codes: 0 success, 1 internal error, 2 user/input error. Every
command is idempotent for fixed inputs and seed; all randomness flows
from the --seed flag (or the seed in the run config). Commands compose
text in-process from MRE stores; none reads or writes MRT files. Each
command first compiles all its texts, documents and queries, into one
composed table of their distinct tokens and one array of table rows per
text (``compile_texts``); the stores are freed before encoding, and no
command holds a matrix per text. ``search`` composes its one query with
``compose_text``.
"""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import dataclass, field

from multires import corpus as corpus_mod
from multires.embedding.compose import compile_texts, compose_text
from multires.embedding.specs import parse_spec_file
from multires.embedding.stores import (
    ContextFreeStore,
    read_context_free_store,
    write_context_free_store,
)
from multires.errors import EmptyTextError, MultiresError, ParseError
from multires.fileio import atomic_write, key_value_lines, open_text
from multires.model.checkpoint import read_checkpoint, write_checkpoint
from multires.model.encoder import TokenTexts, encode_texts
from multires.model.loss import LossConfig
from multires.model.train import TrainConfig, train
from multires.numerics.adam import AdamConfig
from multires.retrieval import RetrievalIndex, evaluate, search

_MINING_FLAGS = {"batch-hard": "batch_hard", "full-scan": "full_scan", "semi-hard": "semi_hard"}


@dataclass
class RunConfig:
    """Validated view of a key=value run-config file.

    ``train``, ``adam`` and ``loss`` hold keyword arguments for TrainConfig,
    AdamConfig and LossConfig; a key the file leaves out keeps that class's
    default.
    """

    corpus: str | None = None
    qa_pairs: str | None = None
    stores: dict[str, str] = field(default_factory=dict)
    spec: str | None = None
    idf: str | None = None
    checkpoint: str | None = None
    report: str | None = None
    loss_trace: str | None = None
    index: str | None = None
    encoder: str = "convrr"
    ks: list[int] = field(default_factory=lambda: [1, 3, 5])
    train: dict[str, object] = field(default_factory=dict)
    adam: dict[str, object] = field(default_factory=dict)
    loss: dict[str, object] = field(default_factory=dict)


def _parse_stores(value: str) -> dict[str, str]:
    stores = {}
    for item in value.split(","):
        model, _, store_path = item.partition(":")
        if not model or not store_path:
            raise ValueError(item)
        stores[model.strip()] = store_path.strip()
    return stores


def _parse_ks(value: str) -> list[int]:
    ks = sorted({int(part) for part in value.split(",")})
    if ks[0] < 1:
        raise ValueError(value)
    return ks


# Run-config key -> (parser, destination). A destination is a RunConfig
# field, or "train.", "adam." or "loss." and a keyword of the config class.
_KEYS = {
    **{
        key: (str, key)
        for key in (
            "corpus", "qa_pairs", "spec", "idf", "checkpoint", "report", "loss_trace",
            "index", "encoder",
        )
    },
    "stores": (_parse_stores, "stores"),
    "k": (_parse_ks, "ks"),
    "seed": (int, "train.seed"),
    "iterations": (int, "train.iterations"),
    "batch_size": (int, "train.batch_size"),
    "depth": (int, "train.depth"),
    "ws": (int, "train.window"),
    "sf": (float, "train.scale"),
    "mining": (lambda value: _MINING_FLAGS.get(value, value), "train.mining"),
    "lr": (float, "adam.learning_rate"),
    "weight_decay": (float, "adam.weight_decay"),
    "margin": (float, "loss.margin"),
}

# train flag -> the run-config key it overrides
_TRAIN_FLAGS = {
    "seed": "seed", "margin": "margin", "ws": "ws", "sf": "sf", "lr": "lr",
    "batch": "batch_size", "iters": "iterations", "depth": "depth", "mining": "mining",
}


def _set_key(cfg: RunConfig, key: str, value, line: int | None = None) -> None:
    try:
        parse, dest = _KEYS[key]
        parsed = parse(value)
    except (KeyError, ValueError):
        raise ParseError(f"bad value {value!r} for key {key!r}", line=line) from None
    name, _, keyword = dest.partition(".")
    if keyword:
        getattr(cfg, name)[keyword] = parsed
    elif name == "stores":  # repeated stores= lines merge
        cfg.stores.update(parsed)
    else:
        setattr(cfg, name, parsed)


def parse_run_config(path: str) -> RunConfig:
    cfg = RunConfig()
    with open_text(path) as fh:
        for lineno, key, value in key_value_lines(fh):
            _set_key(cfg, key, value, lineno)
    return cfg


def _require_paths(cfg: RunConfig, names: list[str]) -> None:
    for name in names:
        value = getattr(cfg, name)
        if value is None:
            raise ParseError(f"run config is missing required key {name!r}")
        if not os.path.exists(value):
            raise ParseError(f"{name} path does not exist: {value}")
    for model, store_path in cfg.stores.items():
        if not os.path.exists(store_path):
            raise ParseError(f"store path for model {model!r} does not exist: {store_path}")
    if not cfg.stores:
        raise ParseError("run config defines no embedding stores")


def _composition(cfg: RunConfig, docs):
    """The stores, the spec and the IDF (read from ``cfg.idf`` if set, else built from ``docs``)."""
    stores = {model: read_context_free_store(path, model) for model, path in cfg.stores.items()}
    spec = parse_spec_file(cfg.spec)
    idf = corpus_mod.load_idf(cfg.idf) if cfg.idf else corpus_mod.build_idf(docs)
    return stores, spec, idf


def _compile(cfg: RunConfig, docs, queries: dict[str, str]) -> tuple[TokenTexts, TokenTexts]:
    """Compile the documents and {query id: text} into one table; return their TokenTexts.

    The stores are read once and freed on return. An EmptyTextError names its text.
    """
    doc_ids, query_ids = tuple(d.id for d in docs), tuple(queries)
    names = [f"document {i!r}" for i in doc_ids] + [f"query {i!r}" for i in query_ids]
    tokens = (corpus_mod.tokenize(t) for t in [d.text for d in docs] + list(queries.values()))
    try:
        table, ids = compile_texts(tokens, *_composition(cfg, docs))
    except EmptyTextError as exc:
        raise exc.at(exc.position, names[exc.position]) from None
    return (
        TokenTexts(table, ids[:len(docs)], doc_ids, "document"),
        TokenTexts(table, ids[len(docs):], query_ids, "query"),
    )


# --- commands ---


def cmd_build_idf(args) -> int:
    docs = corpus_mod.load_corpus(args.corpus)
    table = corpus_mod.build_idf(docs)
    corpus_mod.save_idf(table, args.out)
    print(f"{len(table.entries)} tokens over {table.num_documents} documents -> {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = parse_run_config(args.config)
    for flag, key in _TRAIN_FLAGS.items():
        if getattr(args, flag) is not None:
            _set_key(cfg, key, getattr(args, flag))
    _require_paths(cfg, ["corpus", "qa_pairs", "spec"])
    if cfg.checkpoint is None:
        raise ParseError("run config is missing required key 'checkpoint'")
    docs = corpus_mod.load_corpus(cfg.corpus)
    pairs = corpus_mod.load_qa_pairs(cfg.qa_pairs, docs)
    doc_texts, query_texts = _compile(cfg, docs, {p.query_id: p.query_text for p in pairs})
    train_cfg = TrainConfig(**cfg.train, adam=AdamConfig(**cfg.adam), loss=LossConfig(**cfg.loss))
    result = train(pairs, query_texts, doc_texts, encoder_kind=cfg.encoder, cfg=train_cfg)
    write_checkpoint(cfg.checkpoint, result.params, result.kind)
    if cfg.loss_trace:
        rows = zip(result.loss_trace, result.active_fractions)
        lines = ["iteration,mean_loss,active_triplet_fraction\n"]
        lines += [f"{i},{loss!r},{frac!r}\n" for i, (loss, frac) in enumerate(rows, start=1)]
        with atomic_write(cfg.loss_trace) as fh:
            fh.write("".join(lines).encode("utf-8"))
    print(f"trained {cfg.encoder} for {train_cfg.iterations} iterations -> {cfg.checkpoint}")
    return 0


def cmd_index(args) -> int:
    cfg = parse_run_config(args.config)
    _require_paths(cfg, ["corpus", "spec", "checkpoint"])
    out_path = args.out or cfg.index
    if out_path is None:
        raise ParseError("no index output path (--out or 'index' config key)")
    docs = corpus_mod.load_corpus(cfg.corpus)
    doc_texts, _ = _compile(cfg, docs, {})
    params, _ = read_checkpoint(cfg.checkpoint)
    encoded = encode_texts(doc_texts, params)
    store = ContextFreeStore(
        "index", 1, encoded.shape[1], tokens=[d.id for d in docs], rows=encoded[:, None, :]
    )
    write_context_free_store(out_path, store)
    print(f"indexed {len(docs)} documents -> {out_path}")
    return 0


def cmd_search(args) -> int:
    cfg = parse_run_config(args.config)
    _require_paths(cfg, ["spec", "checkpoint", "index"])
    if not cfg.idf and not (cfg.corpus and os.path.exists(cfg.corpus)):
        raise ParseError("search needs an 'idf' or 'corpus' key to weight tokens")
    docs = [] if cfg.idf else corpus_mod.load_corpus(cfg.corpus)
    try:
        matrix = compose_text(corpus_mod.tokenize(args.query), *_composition(cfg, docs))
    except EmptyTextError as exc:
        raise exc.at(0, f"query {args.query!r}") from None
    params, _ = read_checkpoint(cfg.checkpoint)
    stored = read_context_free_store(cfg.index, "index")
    index = RetrievalIndex(tuple(stored.index), stored.rows[:, 0])
    vec = encode_texts([matrix], params)[0]
    for doc_id, dist in search(index, vec, args.k):
        print(f"{doc_id}\t{dist!r}")
    return 0


def cmd_eval(args) -> int:
    cfg = parse_run_config(args.config)
    if args.k:
        _set_key(cfg, "k", args.k)
    _require_paths(cfg, ["corpus", "qa_pairs", "spec", "checkpoint"])
    if cfg.report is None:
        raise ParseError("run config is missing required key 'report'")
    docs = corpus_mod.load_corpus(cfg.corpus)
    pairs = corpus_mod.load_qa_pairs(cfg.qa_pairs, docs)
    gold: dict[str, list[str]] = {}  # a query id has one line per positive document
    for p in pairs:
        gold.setdefault(p.query_id, []).append(p.positive_doc_id)
    doc_texts, query_texts = _compile(cfg, docs, {p.query_id: p.query_text for p in pairs})
    params, _ = read_checkpoint(cfg.checkpoint)
    report = evaluate(params, query_texts, doc_texts, cfg.ks, gold)
    with atomic_write(cfg.report) as fh:
        fh.write(f"{report.to_json()}\n".encode("utf-8"))
    print(f"evaluated {report.num_queries} queries -> {cfg.report}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="multires",
        description="Multi-resolution embedding composition and retrieval encoder training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-idf", help="build an IDF table from a corpus")
    p.add_argument("corpus")
    p.add_argument("out")
    p.set_defaults(func=cmd_build_idf)

    p = sub.add_parser("train", help="train the retrieval encoder")
    p.add_argument("--config", required=True)
    for flag, key in _TRAIN_FLAGS.items():
        if key == "mining":
            p.add_argument("--mining", choices=sorted(_MINING_FLAGS))
        else:
            p.add_argument(f"--{flag}", type=_KEYS[key][0])
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("index", help="encode corpus documents into an index file")
    p.add_argument("--config", required=True)
    p.add_argument("--out")
    p.set_defaults(func=cmd_index)

    p = sub.add_parser("search", help="rank indexed documents for a query text")
    p.add_argument("--config", required=True)
    p.add_argument("--k", type=int, default=5)
    p.add_argument("query")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("eval", help="recall@k evaluation, writes a JSON report")
    p.add_argument("--config", required=True)
    p.add_argument("--k", help="comma-separated k values, e.g. 1,3,5")
    p.set_defaults(func=cmd_eval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (MultiresError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
