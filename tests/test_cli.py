"""Command surface: artifacts, exit codes, determinism, CLI/library agreement."""

import argparse
import json
import math
import os
import re
import struct
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from multires import corpus as corpus_mod
from multires.cli import build_parser, main, parse_run_config
from multires.embedding import (
    ContextFreeStore,
    parse_spec_file,
    read_context_free_store,
    write_context_free_store,
)
from multires.embedding.compose import compose_text, composed_dim
from multires.model import encoder, read_checkpoint, write_checkpoint
from multires.model.encoder import init_convrr_params, zero_convrr_params
from multires.retrieval import evaluate


class TestBuildIdf:
    def test_two_doc_fixture_bytes(self, tmp_path):
        corpus = tmp_path / "c.jsonl"
        corpus.write_text('{"id": "1", "text": "a b"}\n{"id": "2", "text": "a c"}\n')
        out = tmp_path / "idf.tsv"
        assert main(["build-idf", str(corpus), str(out)]) == 0
        ln2 = repr(math.log(2))
        assert out.read_text() == f"#N=2\na\t2\t0.0\nb\t1\t{ln2}\nc\t1\t{ln2}\n"

    def test_missing_file_exit_2(self, tmp_path, capsys):
        missing = tmp_path / "nope.jsonl"
        assert main(["build-idf", str(missing), str(tmp_path / "o.tsv")]) == 2
        assert "nope.jsonl" in capsys.readouterr().err

    def test_row_count_equals_vocabulary(self, tmp_path):
        lines = []
        vocab = set()
        gen = np.random.default_rng(0)
        for i in range(1000):
            words = [f"w{int(gen.integers(0, 2000))}" for _ in range(6)]
            vocab.update(words)
            lines.append(json.dumps({"id": f"d{i}", "text": " ".join(words)}))
        corpus = tmp_path / "c.jsonl"
        corpus.write_text("\n".join(lines) + "\n")
        out = tmp_path / "idf.tsv"
        assert main(["build-idf", str(corpus), str(out)]) == 0
        rows = out.read_text().splitlines()
        assert len(rows) - 1 == len(vocab)


def _commands() -> list[str]:
    (sub,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return list(sub.choices)


class TestCommands:
    def test_the_parser_offers_five_commands(self, capsys):
        assert _commands() == ["build-idf", "train", "index", "search", "eval"]
        with pytest.raises(SystemExit) as stop:
            main(["compose", "--spec", "spec.cfg", "--texts", "texts.jsonl"])
        assert stop.value.code == 2
        assert "invalid choice: 'compose'" in capsys.readouterr().err

    def test_the_readme_cli_block_names_every_command(self):
        readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
        block = readme.split("\n## CLI\n", 1)[1].split("```", 2)[1]
        assert re.findall(r"^multires (\S+)", block, flags=re.M) == _commands()


class TestTrainEval:
    def test_train_writes_artifacts(self, cli_workspace):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        assert ws["checkpoint"].exists()
        trace = ws["loss_trace"].read_text().splitlines()
        assert trace[0] == "iteration,mean_loss,active_triplet_fraction"
        assert len(trace) == 1 + 4

    def test_eval_matches_library_call(self, cli_workspace):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        assert main(["eval", "--config", str(ws["config"])]) == 0
        report = json.loads(ws["report"].read_text())

        docs = corpus_mod.load_corpus(str(ws["corpus"]))
        pairs = corpus_mod.load_qa_pairs(str(ws["pairs"]), docs)
        stores = {"toy": read_context_free_store(str(ws["store"]), "toy")}
        spec = parse_spec_file(str(ws["spec"]))
        idf = corpus_mod.build_idf(docs)
        doc_ms = [
            (d.id, compose_text(corpus_mod.tokenize(d.text), stores, spec, idf)) for d in docs
        ]
        query_ms = [
            (p.query_id, compose_text(corpus_mod.tokenize(p.query_text), stores, spec, idf))
            for p in pairs
        ]
        params, _ = read_checkpoint(str(ws["checkpoint"]))
        gold = {p.query_id: p.positive_doc_id for p in pairs}
        expected = evaluate(params, query_ms, doc_ms, [1, 3], gold)
        assert report["recall"] == {str(k): v for k, v in expected.recalls.items()}

    def test_eval_counts_a_repeated_query_id_once_with_all_its_positives(self, cli_workspace):
        # query0 gets a line for every document, so it hits at k=1 whatever it ranks first
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        docs = corpus_mod.load_corpus(str(ws["corpus"]))
        first = json.loads(ws["pairs"].read_text().splitlines()[0])
        extra = [{**first, "positive_doc_id": d.id} for d in docs[1:]]
        with open(ws["pairs"], "a", encoding="utf-8") as fh:
            fh.write("".join(json.dumps(row) + "\n" for row in extra))
        assert main(["eval", "--config", str(ws["config"])]) == 0
        report = json.loads(ws["report"].read_text())

        pairs = corpus_mod.load_qa_pairs(str(ws["pairs"]), docs)
        stores = {"toy": read_context_free_store(str(ws["store"]), "toy")}
        spec = parse_spec_file(str(ws["spec"]))
        idf = corpus_mod.build_idf(docs)
        doc_ms = [
            (d.id, compose_text(corpus_mod.tokenize(d.text), stores, spec, idf)) for d in docs
        ]
        query_ms = [
            (p.query_id, compose_text(corpus_mod.tokenize(p.query_text), stores, spec, idf))
            for p in pairs[: len(docs)]
        ]
        gold = {p.query_id: [p.positive_doc_id] for p in pairs[1:len(docs)]}
        gold["query0"] = [d.id for d in docs]
        params, _ = read_checkpoint(str(ws["checkpoint"]))
        expected = evaluate(params, query_ms, doc_ms, [1, 3], gold)
        assert report == {
            "num_queries": len(docs), "recall": {str(k): v for k, v in expected.recalls.items()}
        }

    def test_train_rejects_a_repeated_query_id(self, cli_workspace, capsys):
        ws = cli_workspace
        first = json.loads(ws["pairs"].read_text().splitlines()[0])
        with open(ws["pairs"], "a", encoding="utf-8") as fh:
            fh.write(json.dumps({**first, "positive_doc_id": "doc1"}) + "\n")
        assert main(["train", "--config", str(ws["config"])]) == 2
        assert "error: query id 'query0' repeats" in capsys.readouterr().err
        assert not ws["checkpoint"].exists() and not ws["loss_trace"].exists()

    def test_checkpoint_dim_follows_the_dimension_law(self, cli_workspace):
        # train encodes the rows it composes in-process, so the encoder's width is d''
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        params, _ = read_checkpoint(str(ws["checkpoint"]))
        spec = parse_spec_file(str(ws["spec"]))
        store = read_context_free_store(str(ws["store"]), "toy")
        assert params.dim == composed_dim(spec, {"toy": (store.num_layers, store.dim)})

    def test_corrupted_checkpoint_magic_exit_2(self, cli_workspace, capsys):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        blob = bytearray(ws["checkpoint"].read_bytes())
        blob[:4] = b"WAT1"
        ws["checkpoint"].write_bytes(bytes(blob))
        assert main(["eval", "--config", str(ws["config"])]) == 2
        assert "bad magic" in capsys.readouterr().err

    def test_missing_config_key_exit_2(self, cli_workspace, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("corpus=/nonexistent/corpus.jsonl\n")
        assert main(["train", "--config", str(bad)]) == 2

    def test_seed_flag_changes_output(self, cli_workspace):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        blob_a = ws["checkpoint"].read_bytes()
        assert main(["train", "--config", str(ws["config"]), "--seed", "123"]) == 0
        blob_b = ws["checkpoint"].read_bytes()
        assert blob_a != blob_b


class TestRunConfigKeys:
    @pytest.mark.parametrize(
        "flag, value, line",
        [
            ("--iters", "2", "iterations=2"),
            ("--batch", "3", "batch_size=3"),
            ("--lr", "0.05", "lr=0.05"),
            ("--ws", "5", "ws=5"),
            ("--sf", "0.2", "sf=0.2"),
            ("--depth", "2", "depth=2"),
            ("--margin", "0.3", "margin=0.3"),
            ("--mining", "semi-hard", "mining=semi_hard"),
            ("--mining", "semi-hard", "mining=semi-hard"),
            ("--seed", "11", "seed=11"),
        ],
    )
    def test_train_flag_equals_config_line(self, cli_workspace, flag, value, line):
        ws = cli_workspace

        def trained(config, *flags):
            assert main(["train", "--config", str(config), *flags]) == 0
            return ws["checkpoint"].read_bytes(), ws["loss_trace"].read_bytes()

        # full_scan, so that switching to semi_hard changes this fixture's output
        base = ws["dir"] / "base.cfg"
        base.write_text(ws["config"].read_text() + "mining=full_scan\n")
        with_line = ws["dir"] / "with-line.cfg"
        with_line.write_text(base.read_text() + line + "\n")  # the later line wins
        by_flag = trained(base, flag, value)
        assert by_flag == trained(with_line)
        assert by_flag != trained(base)

    def test_repeated_stores_lines_merge(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("stores=a:/s/a.mre\nstores=b:/s/b.mre,c:/s/c.mre\n")
        stores = parse_run_config(str(path)).stores
        assert stores == {"a": "/s/a.mre", "b": "/s/b.mre", "c": "/s/c.mre"}

    @pytest.mark.parametrize("value", ["missing-colon", "toy:"])
    def test_train_bad_stores_line_exit_2(self, cli_workspace, capsys, value):
        # stores=MODEL:PATH is the one store syntax; a malformed entry stops the run
        ws = cli_workspace
        config = ws["dir"] / "bad-stores.cfg"
        config.write_text(ws["config"].read_text() + f"stores={value}\n")
        assert main(["train", "--config", str(config)]) == 2
        assert f"bad value {value!r} for key 'stores'" in capsys.readouterr().err
        assert not ws["checkpoint"].exists()

    def test_eval_k_flag_overrides_config(self, cli_workspace):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        assert main(["eval", "--config", str(ws["config"]), "--k", "1"]) == 0
        assert set(json.loads(ws["report"].read_text())["recall"]) == {"1"}

    @pytest.mark.parametrize("value", ["x", "-1,0,1"])
    def test_eval_bad_k_flag_exit_2(self, cli_workspace, capsys, value):
        ws = cli_workspace
        assert main(["eval", "--config", str(ws["config"]), f"--k={value}"]) == 2
        assert f"bad value {value!r} for key 'k'" in capsys.readouterr().err

    def test_eval_k_with_a_leading_dash_needs_the_equals_form(self, cli_workspace, capsys):
        # argparse takes a spaced "-1,0,1" for an option, so it never reaches the k check
        with pytest.raises(SystemExit) as stop:
            main(["eval", "--config", str(cli_workspace["config"]), "--k", "-1,0,1"])
        assert stop.value.code == 2
        assert "argument --k" in capsys.readouterr().err


class TestIndexSearch:
    def test_index_then_search(self, cli_workspace, capsys):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        assert main(["index", "--config", str(ws["config"])]) == 0
        assert ws["index"].exists()
        alt = ws["dir"] / "alt-index.mre"
        assert main(["index", "--config", str(ws["config"]), "--out", str(alt)]) == 0
        assert alt.read_bytes() == ws["index"].read_bytes()
        code = main(["search", "--config", str(ws["config"]), "--k", "3", "item2 tag2"])
        assert code == 0
        out_lines = [l for l in capsys.readouterr().out.splitlines() if "\t" in l]
        assert len(out_lines) == 3
        doc_ids = [line.split("\t")[0] for line in out_lines]
        assert "doc2" in doc_ids
        dists = [float(line.split("\t")[1]) for line in out_lines]
        assert dists == sorted(dists)

    def test_search_deterministic(self, cli_workspace, capsys):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        assert main(["index", "--config", str(ws["config"])]) == 0
        capsys.readouterr()
        assert main(["search", "--config", str(ws["config"]), "item1"]) == 0
        first = capsys.readouterr().out
        assert main(["search", "--config", str(ws["config"]), "item1"]) == 0
        assert capsys.readouterr().out == first

    def test_search_takes_idf_file_or_corpus(self, cli_workspace, capsys):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        assert main(["index", "--config", str(ws["config"])]) == 0
        idf = ws["dir"] / "idf.tsv"
        assert main(["build-idf", str(ws["corpus"]), str(idf)]) == 0
        lines = [l for l in ws["config"].read_text().splitlines() if not l.startswith("corpus=")]
        idf_only = ws["dir"] / "idf-only.cfg"
        idf_only.write_text("\n".join(lines + [f"idf={idf}"]) + "\n")
        neither = ws["dir"] / "neither.cfg"
        neither.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["search", "--config", str(ws["config"]), "item1 tag1"]) == 0
        by_corpus = capsys.readouterr().out
        assert main(["search", "--config", str(idf_only), "item1 tag1"]) == 0
        assert capsys.readouterr().out == by_corpus
        assert main(["search", "--config", str(neither), "item1 tag1"]) == 2
        assert "search needs an 'idf' or 'corpus' key" in capsys.readouterr().err


class TestUnresolvableText:
    """A text with no token in any store ends the command with exit 2 and its name."""

    def _config_with(self, ws, key, row):
        path = ws["dir"] / f"more-{key}.jsonl"
        path.write_text(ws[key].read_text() + json.dumps(row) + "\n")
        config = ws["dir"] / f"more-{key}.cfg"
        name = "corpus" if key == "corpus" else "qa_pairs"
        config.write_text(ws["config"].read_text() + f"{name}={path}\n")
        return config

    @pytest.mark.parametrize("command", ["train", "index", "eval"])
    def test_the_document_is_named(self, cli_workspace, capsys, command):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        config = self._config_with(ws, "corpus", {"id": "docZ", "text": "zzz qqq"})
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 2
        assert "error: document 'docZ': no token of the text resolves" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "eval"])
    def test_the_query_is_named(self, cli_workspace, capsys, command):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        row = {"query_id": "queryZ", "query_text": "zzz", "positive_doc_id": "doc0"}
        config = self._config_with(ws, "pairs", row)
        capsys.readouterr()
        assert main([command, "--config", str(config)]) == 2
        assert "error: query 'queryZ': no token of the text resolves" in capsys.readouterr().err

    def test_search_names_its_query(self, cli_workspace, capsys):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        assert main(["index", "--config", str(ws["config"])]) == 0
        capsys.readouterr()
        assert main(["search", "--config", str(ws["config"]), "zzz qqq"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error: query 'zzz qqq': no token of the text resolves" in captured.err


def _write_run(tmp_path, docs, pairs, vectors, spec, params):
    """A run config over the given texts, one store "m", a spec text and a checkpoint."""
    corpus, qa = tmp_path / "corpus.jsonl", tmp_path / "pairs.jsonl"
    corpus.write_text("".join(json.dumps({"id": i, "text": t}) + "\n" for i, t in docs))
    qa.write_text("".join(
        json.dumps({"query_id": q, "query_text": t, "positive_doc_id": d}) + "\n"
        for q, t, d in pairs
    ))
    num_layers, dim = next(iter(vectors.values())).shape
    store = ContextFreeStore("m", num_layers, dim, vectors)
    write_context_free_store(str(tmp_path / "m.mre"), store)
    (tmp_path / "spec.cfg").write_text(spec)
    write_checkpoint(str(tmp_path / "model.crr"), params, "convrr")
    config = tmp_path / "run.cfg"
    config.write_text(
        f"corpus={corpus}\nqa_pairs={qa}\nstores=m:{tmp_path / 'm.mre'}\n"
        f"spec={tmp_path / 'spec.cfg'}\ncheckpoint={tmp_path / 'model.crr'}\n"
        f"report={tmp_path / 'report.json'}\nindex={tmp_path / 'index.mre'}\nk=1\n"
    )
    return config


class TestZeroNormText:
    """A text that encodes to a zero vector ends train, eval or index with exit 2 and its name.

    Under use_idf, "the" occurs in every document, so its weight is 0 and a
    text made of it composes to zeros; all-zero kernels and biases keep it
    at zero through the encoder.
    """

    SPEC = (
        "ensemble.aggregator=concatenate\nensemble.weights=1\nmixture.1.model=m\n"
        "mixture.1.weights=1\nmixture.1.aggregator=sum\nmixture.1.use_idf=true\n"
    )

    def _config(self, tmp_path, docs, query):
        vectors = {w: np.full((1, 4), i + 1.0, np.float32) for i, w in enumerate(["the", "cat", "dog"])}
        pairs = [("q1", query, "d1")]
        return _write_run(tmp_path, docs, pairs, vectors, self.SPEC, zero_convrr_params(4, depth=1))

    @pytest.mark.parametrize("command", ["eval", "train"])
    def test_the_query_is_named(self, tmp_path, capsys, command):
        config = self._config(tmp_path, [("d1", "the cat"), ("d2", "the dog")], "the")
        assert main([command, "--config", str(config)]) == 2
        assert "error: query 'q1': vector norm 0 at or below floor" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["eval", "index", "train"])
    def test_the_document_is_named(self, tmp_path, capsys, command):
        docs = [("d1", "the cat"), ("d2", "the dog"), ("d3", "the the")]
        config = self._config(tmp_path, docs, "cat")
        assert main([command, "--config", str(config)]) == 2
        assert "error: document 'd3': vector norm 0" in capsys.readouterr().err


class TestCompiledTexts:
    """eval and index hold one table of distinct tokens, never a matrix per text."""

    WORDS, TEXTS, LENGTH, DIM = 40, 600, 24, 64

    @pytest.fixture
    def config(self, tmp_path):
        gen = np.random.default_rng(3)
        words = [f"w{i}" for i in range(self.WORDS)]
        vectors = {w: gen.normal(size=(2, self.DIM // 2)).astype(np.float32) for w in words}

        def text():
            return " ".join(words[i] for i in gen.integers(0, self.WORDS, self.LENGTH))

        docs = [(f"d{i}", text()) for i in range(self.TEXTS)]
        pairs = [(f"q{i}", text(), f"d{i}") for i in range(self.TEXTS)]
        spec = (
            "ensemble.aggregator=concatenate\nensemble.weights=1\nmixture.1.model=m\n"
            "mixture.1.weights=0.5,0.5\nmixture.1.aggregator=concatenate\n"
        )
        params = init_convrr_params(self.DIM, depth=1, window=3, rng=gen)
        return _write_run(tmp_path, docs, pairs, vectors, spec, params)

    @pytest.mark.parametrize("command", ["eval", "index"])
    def test_traced_peak_is_far_below_one_matrix_per_text(self, config, command, monkeypatch):
        monkeypatch.setattr(encoder, "ENCODE_CELLS", 1 << 13)  # keeps each forward's part small
        texts = self.TEXTS * (2 if command == "eval" else 1)
        per_text_matrices = texts * self.LENGTH * self.DIM * 4
        tracemalloc.start()
        try:
            assert main([command, "--config", str(config)]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < per_text_matrices / 2


class TestInputErrors:
    def test_corpus_not_utf8_exit_2(self, tmp_path, capsys):
        corpus = tmp_path / "c.jsonl"
        corpus.write_bytes(b'{"id": "a", "text": "caf\xe9"}\n')
        assert main(["build-idf", str(corpus), str(tmp_path / "idf.tsv")]) == 2
        assert "c.jsonl is not valid UTF-8" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "idf, line",
        [("#N=0\n", 1), (f"#N=2\nitem1\t1\t{math.log(2)!r}\nitem1\t1\t{math.log(2)!r}\n", 3)],
    )
    def test_unusable_idf_file_exit_2(self, cli_workspace, capsys, idf, line):
        path = cli_workspace["dir"] / "idf.tsv"
        path.write_text(idf)
        config = cli_workspace["dir"] / "idf.cfg"
        config.write_text(cli_workspace["config"].read_text() + f"idf={path}\n")
        assert main(["train", "--config", str(config)]) == 2
        assert f"error: line {line}: " in capsys.readouterr().err

    def test_store_token_not_utf8_exit_2(self, cli_workspace, capsys):
        body = struct.pack("<IHII", 1, 2, 4, 2) + b"\xff\0" + np.zeros(8, "<f4").tobytes()
        framed = b"MRE1" + struct.pack("<H", 3) + body
        cli_workspace["store"].write_bytes(framed + struct.pack("<I", zlib.crc32(framed)))
        assert main(["train", "--config", str(cli_workspace["config"])]) == 2
        assert "is not UTF-8" in capsys.readouterr().err


@pytest.mark.parametrize("output", ["idf", "loss_trace", "report"])
def test_failed_text_write_keeps_the_previous_file(cli_workspace, monkeypatch, output):
    ws = cli_workspace
    assert main(["train", "--config", str(ws["config"])]) == 0
    target = ws["dir"] / "idf.tsv" if output == "idf" else ws[output]
    target.write_text("previous\n")
    real_replace = os.replace

    def replace(src, dst):
        if os.fspath(dst) == str(target):
            raise OSError("disk full")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    if output == "idf":
        argv = ["build-idf", str(ws["corpus"]), str(target)]
    else:
        argv = ["train" if output == "loss_trace" else "eval", "--config", str(ws["config"])]
    assert main(argv) == 2
    assert target.read_text() == "previous\n"
    assert not [p for p in ws["dir"].iterdir() if p.name.endswith(".tmp")]


class TestIndexFiles:
    def test_search_on_a_v1_index_exit_2(self, cli_workspace, capsys):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        config = ws["dir"] / "v1.cfg"
        v1 = Path(__file__).parent / "data" / "v1_index.mre"
        config.write_text(ws["config"].read_text() + f"index={v1}\n")
        capsys.readouterr()
        assert main(["search", "--config", str(config), "item2 tag2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{v1}: unsupported version 1 (expected 3)" in captured.err

    def test_search_on_a_flipped_index_byte_exit_2(self, cli_workspace, capsys):
        ws = cli_workspace
        assert main(["train", "--config", str(ws["config"])]) == 0
        assert main(["index", "--config", str(ws["config"])]) == 0
        blob = bytearray(ws["index"].read_bytes())
        blob[len(blob) // 2] ^= 0x10
        ws["index"].write_bytes(bytes(blob))
        assert main(["search", "--config", str(ws["config"]), "item2 tag2"]) == 2
        assert "checksum" in capsys.readouterr().err
