"""SHA-256 of the program's seeded artifacts, beside those of a parent revision.

    python3 tools/artifact_digests.py [--parent REV] [--workdir DIR]

A speedup must leave every seeded artifact byte-identical. This script
computes, in a fresh process per tree at one BLAS thread:

- ``run_clustered_benchmark(seed=7)``, as sorted-key JSON;
- on the ``text_train`` perfbench input set of seed ``INPUT_SEED``,
  written once by this checkout's ``perfbench/inputs.py`` and read by
  both trees: the checkpoint and loss CSV of CLI ``train``, the report of
  CLI ``eval`` and the index file of CLI ``index`` (over the trained
  checkpoint);
- the same four CLI files with ``encoder=fcrr`` (``fcrr/...``), since no
  other artifact runs the fully-connected encoder;
- ``served``: every query of that input set's QA pairs served alone over
  that index, as ``multires search`` serves it (``compose_text``, then
  ``encode_texts`` of the one matrix, then ``search`` for the top
  ``SERVE_K``), hashed as each query vector's bytes and its list of
  (id, ``repr(distance)``) pairs, in order.

The tree is this checkout as its files stand and, with ``--parent``, REV
of the same repository, extracted with ``git archive`` into a temporary
directory as ``tools/bench_pairs.py`` does. The script prints one line per
artifact with each tree's digest and exits 1 when any digest differs
between the trees.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
OUTPUTS = {  # run config key: the file the CLI writes there
    "checkpoint": "model.crr",
    "loss_trace": "loss.csv",
    "report": "report.json",
    "index": "index.mre",
}
ARTIFACTS = [
    "clustered_benchmark.json",
    *OUTPUTS.values(),
    *(f"fcrr/{name}" for name in OUTPUTS.values()),
    "served",
]
INPUT_SEED = 1
SERVE_K = 10


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def served(config_path: str):
    """Serve each query of the run's QA pairs alone, as ``multires search`` does.

    Loads the stores, spec, IDF, checkpoint and index the way CLI ``search``
    does, and yields, per query in file order, its vector and its top
    ``SERVE_K`` as (id, ``repr(distance)``) pairs. It makes only calls that
    older revisions of the package have too, so a parent tree runs it.
    """
    from multires import cli
    from multires import corpus as corpus_mod
    from multires.embedding.compose import compose_text
    from multires.embedding.stores import read_context_free_store
    from multires.model.checkpoint import read_checkpoint
    from multires.model.encoder import encode_texts
    from multires.retrieval import RetrievalIndex, search

    cfg = cli.parse_run_config(config_path)
    docs = corpus_mod.load_corpus(cfg.corpus)
    stores, spec, idf = cli._composition(cfg, [] if cfg.idf else docs)
    params, _ = read_checkpoint(cfg.checkpoint)
    stored = read_context_free_store(cfg.index, "index")
    index = RetrievalIndex(tuple(stored.index), stored.rows[:, 0])
    for pair in corpus_mod.load_qa_pairs(cfg.qa_pairs, docs):
        matrix = compose_text(corpus_mod.tokenize(pair.query_text), stores, spec, idf)
        vec = encode_texts([matrix], params)[0]
        yield vec, [(doc_id, repr(dist)) for doc_id, dist in search(index, vec, SERVE_K)]


def cli_digests(config: str, out: str) -> tuple[str, dict[str, str]]:
    """Run CLI ``train``, ``eval`` and ``index`` on ``config`` with every output under ``out``.

    Returns the config file written there and the digest of each output.
    """
    from multires import cli

    os.makedirs(out, exist_ok=True)
    config += "".join(f"{key}={os.path.join(out, name)}\n" for key, name in OUTPUTS.items())
    config_path = os.path.join(out, "run.cfg")
    with open(config_path, "w", encoding="utf-8") as fh:
        fh.write(config)
    for command in ("train", "eval", "index"):
        if cli.main([command, "--config", config_path]) != 0:
            raise SystemExit(f"artifact_digests: CLI {command} failed")
    digests = {}
    for name in OUTPUTS.values():
        with open(os.path.join(out, name), "rb") as fh:
            digests[name] = _sha256(fh.read())
    return config_path, digests


def tree_digests(inputs: str, out: str) -> dict[str, str]:
    """The digest of each artifact of the ``multires`` package on ``sys.path``.

    Runs inside the child process; writes the CLI outputs under ``out``.
    """
    from multires.synthetic import run_clustered_benchmark

    digests = {
        "clustered_benchmark.json": _sha256(
            json.dumps(run_clustered_benchmark(seed=7), sort_keys=True).encode("utf-8")
        )
    }
    with open(os.path.join(inputs, "run.cfg"), encoding="utf-8") as fh:
        config = fh.read()
    config_path, outputs = cli_digests(config, out)
    digests.update(outputs)
    _, outputs = cli_digests(config + "encoder=fcrr\n", os.path.join(out, "fcrr"))
    digests.update({f"fcrr/{name}": digest for name, digest in outputs.items()})
    digest = hashlib.sha256()
    for vec, hits in served(config_path):
        digest.update(vec.tobytes())
        digest.update(repr(hits).encode("utf-8"))
    digests["served"] = digest.hexdigest()
    return digests


def run_tree(tree: str, inputs: str, out: str) -> dict[str, str]:
    """``tree_digests`` in a fresh process importing ``tree``'s package, at one BLAS thread."""
    os.makedirs(out, exist_ok=True)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([os.path.join(tree, "src"), HERE]))
    env.update({var: "1" for var in THREAD_VARS})
    code = (
        "import json, multires, artifact_digests as a\n"
        f"digests = a.tree_digests({inputs!r}, {out!r})\n"
        "print(json.dumps({'package': multires.__file__, **digests}))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise SystemExit(f"artifact_digests: the run in {tree} failed:\n{proc.stderr}")
    digests = json.loads(proc.stdout.strip().splitlines()[-1])
    package = digests.pop("package")
    if not os.path.abspath(package).startswith(os.path.join(os.path.abspath(tree), "src") + os.sep):
        raise SystemExit(f"artifact_digests: the run in {tree} imported {package}")
    return digests


def compare(change: dict[str, str], parent: dict[str, str] | None) -> tuple[list[str], bool]:
    """One line per artifact with each side's digest; whether every digest matches."""
    same = True
    lines = []
    for name in ARTIFACTS:
        line = f"{name:26} {change.get(name, '-'):64}"
        if parent is not None:
            match = name in change and change.get(name) == parent.get(name)
            same = same and match
            line += f" {parent.get(name, '-'):64} {'same' if match else 'DIFFERS'}"
        lines.append(line)
    return lines, same


def extract(rev: str, into: str) -> str:
    """Write the files of ``rev`` into a fresh directory under ``into``; stop if it is unknown."""
    rev_parse = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        capture_output=True, text=True,
    )
    if rev_parse.returncode != 0:
        raise SystemExit(f"artifact_digests: unknown revision {rev!r}")
    tree = tempfile.mkdtemp(prefix="parent-", dir=into)
    archive = subprocess.run(
        ["git", "-C", ROOT, "archive", rev_parse.stdout.strip()], capture_output=True, check=True
    )
    subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
    return tree


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", default=None, help="git revision to compare against")
    parser.add_argument("--workdir", default=None, help="where inputs, outputs and the parent go")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        inputs = os.path.join(tmp, "inputs")
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "inputs.py"),
             "--workload", "text_train", "--seed", str(INPUT_SEED), "--out", inputs],
            env=env, check=True,
        )
        change = run_tree(ROOT, inputs, os.path.join(tmp, "change"))
        parent = None
        if args.parent is not None:
            parent = run_tree(extract(args.parent, tmp), inputs, os.path.join(tmp, "parent"))
    header = f"{'artifact':26} {'change':64}" + (f" {'parent':64}" if parent is not None else "")
    lines, same = compare(change, parent)
    print("\n".join([header, *lines]))
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
