"""Span tracing for the traced benchmark run.

``Tracer.install`` replaces the public module attributes of the program's
layers with timing wrappers, in the benchmark process only, and
``Tracer.uninstall`` puts the originals back. A function imported by name
into another ``multires`` module, or into the benchmark's main module, is
replaced there too, so every call site goes through the wrapper.
Untraced runs install nothing and pay nothing.

Each call becomes a span: an id, the id of the span that was open when
it started (the call that caused it), a name, start and end in
nanoseconds, and counts taken from the call's arguments. Spans stay in
memory and are written out once, when the run ends.
"""

from __future__ import annotations

import importlib
import json
import os
import sys
import time
from collections import defaultdict
from typing import Callable


def _conv_flops(x, w) -> int:
    """2 * B * k * n_k * ws * d: every window tap the numpy kernel multiplies."""
    batch, k, d = x.shape
    n_k, ws, _ = w.shape
    return 2 * batch * k * n_k * ws * d


def _compose_counts(args, kwargs, result) -> dict:
    tokens, stores, spec = args[0], args[1], args[2]
    misses = sum(
        1 for m in spec.mixtures for t in tokens if stores[m.model_id].lookup(t, 0) is None
    )
    return {"tokens": len(tokens), "lookups": len(tokens) * len(spec.mixtures), "misses": misses}


def _train_counts(args, kwargs, result) -> dict:
    """Iterations, anchors trained on, and anchors whose triplet loss was positive.

    ``train`` records the active share of each iteration's batch in
    ``TrainResult.active_fractions``; one triplet is mined per anchor.
    """
    cfg = kwargs["cfg"] if "cfg" in kwargs else args[4]
    batch = min(cfg.batch_size, len(args[0] if args else kwargs["pairs"]))
    return {
        "iterations": cfg.iterations,
        "triplets": cfg.iterations * batch,
        "active_triplets": round(sum(f * batch for f in result.active_fractions)),
    }


# (module, attribute, span name, counts taken from (args, kwargs, result))
LAYERS: list[tuple[str, str, str, Callable | None]] = [
    ("multires.cli", "main", "cli", lambda a, kw, r: {"command": (a[0] if a else kw["argv"])[0]}),
    ("multires.corpus", "build_idf", "corpus.build_idf", None),
    ("multires.embedding.compose", "compose_text", "compose", _compose_counts),
    (
        "multires.embedding.stores", "read_context_free_store", "stores.read",
        lambda a, kw, r: {"bytes": os.path.getsize(a[0])},
    ),
    ("multires.embedding.stores", "write_context_free_store", "stores.write", None),
    ("multires.model.checkpoint", "read_checkpoint", "checkpoint.read", None),
    ("multires.model.checkpoint", "write_checkpoint", "checkpoint.write", None),
    ("multires.model.train", "train", "train", _train_counts),
    ("multires.model.loss", "mine_hard", "loss.mine", lambda a, kw, r: {"anchors": len(a[0])}),
    (
        "multires.model.encoder", "forward_many", "encoder.forward",
        lambda a, kw, r: {"texts": a[0].shape[0]},
    ),
    (
        "multires.model.encoder", "mean_embedding_encode", "encoder.forward",
        lambda a, kw, r: {"texts": 1},
    ),
    (
        "multires.model.encoder", "backward_many", "encoder.backward",
        lambda a, kw, r: {"texts": a[2].shape[0]},
    ),
    (
        "multires.numerics.kernels", "conv_forward", "kernels.conv_forward",
        lambda a, kw, r: {"flops": _conv_flops(a[0], a[1])},
    ),
    (
        "multires.numerics.kernels", "conv_backward", "kernels.conv_backward",
        lambda a, kw, r: {"flops": 2 * _conv_flops(a[0], a[1])},
    ),
    ("multires.numerics.adam", "adam_step", "adam.step", lambda a, kw, r: {"params": a[0].size}),
    ("multires.retrieval", "build_index", "retrieval.build_index", None),
    ("multires.retrieval", "search", "retrieval.search", None),
    ("multires.retrieval", "evaluate", "retrieval.evaluate", None),
]


class Tracer:
    """Records spans for the wrapped layers; also usable around benchmark phases."""

    def __init__(self):
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, **counts):
        return _Span(self, name, counts)

    def _open(self, name: str) -> dict:
        record = {
            "id": len(self.spans),
            "parent": self._stack[-1] if self._stack else None,
            "name": name,
            "start_ns": time.perf_counter_ns(),
        }
        self.spans.append(record)
        self._stack.append(record["id"])
        return record

    def _close(self, record: dict) -> None:
        record["end_ns"] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name: str, fn, counts: Callable | None):
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(record)
            if counts is not None:
                record.update(counts(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        for mod, attr, name, counts in LAYERS:
            original = getattr(importlib.import_module(mod), attr)
            wrapper = self.wrap(name, original, counts)
            for module_name, module in list(sys.modules.items()):
                if module is None or not (module_name.startswith("multires") or module_name == "__main__"):
                    continue
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patched.append((module, key, original))
                        setattr(module, key, wrapper)

    def uninstall(self) -> None:
        for module, key, original in reversed(self._patched):
            setattr(module, key, original)
        self._patched.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for record in self.spans:
                fh.write(json.dumps(record))
                fh.write("\n")


class _Span:
    def __init__(self, tracer: Tracer, name: str, counts: dict):
        self.tracer, self.name, self.counts = tracer, name, counts

    def __enter__(self):
        self.record = self.tracer._open(self.name)
        self.record.update(self.counts)
        return self.record

    def __exit__(self, *exc):
        self.tracer._close(self.record)
        return False


def self_times(spans: list[dict]) -> list[float]:
    """Seconds of each span not covered by its children (calls nest, one thread)."""
    child_ns = [0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child_ns[s["parent"]] += s["end_ns"] - s["start_ns"]
    return [(s["end_ns"] - s["start_ns"] - c) / 1e9 for s, c in zip(spans, child_ns)]


def subtree_self_by_name(spans: list[dict], root_name: str) -> dict[str, float]:
    """Self seconds per span name inside every subtree rooted at a ``root_name`` span."""
    out: dict[str, float] = defaultdict(float)
    for s, own, inside in zip(spans, self_times(spans), in_subtree(spans, root_name)):
        if inside:
            out[s["name"]] += own
    return dict(out)


COUNT_KEYS = (
    "anchors", "texts", "flops", "params", "tokens", "lookups", "misses", "bytes",
    "iterations", "triplets", "active_triplets",
)


def in_subtree(spans: list[dict], root_name: str) -> list[bool]:
    """Whether each span is a ``root_name`` span or lies beneath one."""
    inside = [False] * len(spans)
    for s in spans:  # parents precede children
        p = s["parent"]
        inside[s["id"]] = s["name"] == root_name or (p is not None and inside[p])
    return inside


def layer_metrics(spans: list[dict], rounds: int) -> dict[str, float]:
    """Per-layer figures of the timed rounds: seconds per round, rates over all rounds."""
    dur: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    tally: dict[str, float] = defaultdict(float)
    for s, self_s, timed in zip(spans, self_times(spans), in_subtree(spans, "round")):
        if not timed:
            continue
        name = s["name"]
        dur[name] += (s["end_ns"] - s["start_ns"]) / 1e9
        own[name] += self_s
        calls[name] += 1
        for key in COUNT_KEYS:
            if key in s:
                tally[f"{name}.{key}"] += s[key]

    def rate(count: float, seconds: float) -> float:
        return count / seconds if seconds > 0 else 0.0

    conv_s = dur["kernels.conv_forward"] + dur["kernels.conv_backward"]
    conv_flops = tally["kernels.conv_forward.flops"] + tally["kernels.conv_backward.flops"]
    return {
        "loss.mine_s": dur["loss.mine"] / rounds,
        "loss.mine_anchors_per_s": rate(tally["loss.mine.anchors"], dur["loss.mine"]),
        "loss.active_triplet_fraction": rate(tally["train.active_triplets"], tally["train.triplets"]),
        "train.self_s": own["train"] / rounds,
        "train.iteration_ms": 1e3 * rate(dur["train"], tally["train.iterations"]),
        "encoder.forward_s": dur["encoder.forward"] / rounds,
        "encoder.forward_texts_per_s": rate(tally["encoder.forward.texts"], dur["encoder.forward"]),
        "encoder.backward_s": dur["encoder.backward"] / rounds,
        "encoder.backward_texts_per_s": rate(tally["encoder.backward.texts"], dur["encoder.backward"]),
        "kernels.conv_forward_s": dur["kernels.conv_forward"] / rounds,
        "kernels.conv_backward_s": dur["kernels.conv_backward"] / rounds,
        "kernels.conv_gflop": conv_flops / 1e9 / rounds,
        "kernels.conv_gflop_per_s": rate(conv_flops / 1e9, conv_s),
        "adam.step_s": dur["adam.step"] / rounds,
        "adam.params_per_s": rate(tally["adam.step.params"], dur["adam.step"]),
        "compose.s": dur["compose"] / rounds,
        "compose.tokens_per_s": rate(tally["compose.tokens"], dur["compose"]),
        "compose.oov_fraction": rate(tally["compose.misses"], tally["compose.lookups"]),
        "stores.read_s": dur["stores.read"] / rounds,
        "stores.read_mb_per_s": rate(tally["stores.read.bytes"] / 1e6, dur["stores.read"]),
        "stores.write_s": dur["stores.write"] / rounds,
        "corpus.build_idf_s": dur["corpus.build_idf"] / rounds,
        "checkpoint.read_s": dur["checkpoint.read"] / rounds,
        "checkpoint.write_s": dur["checkpoint.write"] / rounds,
        "retrieval.search_s": dur["retrieval.search"] / rounds,
        "retrieval.search_queries_per_s": rate(calls["retrieval.search"], dur["retrieval.search"]),
        "retrieval.build_index_s": dur["retrieval.build_index"] / rounds,
        "retrieval.evaluate_self_s": own["retrieval.evaluate"] / rounds,
        "cli.self_s": own["cli"] / rounds,
    }
