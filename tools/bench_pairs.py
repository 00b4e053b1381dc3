"""Alternating parent/change benchmark pairs, summarized into a BENCH file.

    python3 tools/bench_pairs.py --parent REV --workload NAME --pairs N \\
        --first-seed S --name TAG [--workdir DIR]

The change is the checkout this script lives in, as its files stand;
the parent is REV of the same repository, extracted with ``git archive``
into a temporary directory (nothing is registered in the repository, so
an interrupted run leaves no state behind). Pair i runs
``perfbench/run.py`` once in each tree with seed S + i, the parent first
in even pairs and the change first in odd ones, so a drift in the
machine's speed hits both sides alike. Every run lasts BENCHMARK.json's
``run_seconds``. The two runs of a pair must print the same environment
line (Python, numpy, BLAS and its threads, cores, seed, conv backend);
the script stops if they differ, since the pair would not be
like-for-like. It also stops when a run reports ``correct: false`` or a
failed operation: the timings of a program that failed its checks are
not summarized.

After the pairs, one traced pair at seed S (``--trace 1``) records each
side's per-layer figures under ``traced``, to show in which layer a
change in the end-to-end figures sits. No claim test runs on them.

The output, ``BENCH_<TAG>.json`` at the root of the checkout, keeps one
entry per workload; running the script for another workload adds that
workload and leaves the others as they are. The file is replaced
atomically, so an interrupted run leaves the previous file whole. An
entry holds every run's metrics and correct/attempted/failed counts,
each side's median and quartiles per metric, the change's wins over the
parent per metric (a tie counts for neither side), whether the parent's
spread leaves the metric unresolved against its bound, the traced pair,
and the environment line perfbench printed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))
from multires.fileio import atomic_write  # noqa: E402  (this checkout's package)

MIN_CLAIM_PAIRS = 10  # fewer pairs than this never make a clear gain


def quartiles(values: list[float]) -> dict[str, float]:
    """Median and the 25th/75th percentiles (linear interpolation)."""
    if len(values) == 1:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: list[dict], metrics: list[dict]) -> dict:
    """Per metric: each side's quartiles, the change's wins, and the claim test.

    ``runs`` holds one record per pair: ``{"seed", "parent", "change"}``,
    each side with perfbench's ``metrics`` as {name: {"value", "unit"}}.
    ``metrics`` is BENCHMARK.json's ``end_to_end`` list. ``clear_gain``
    is true when there are at least ten pairs, the change wins at least
    nine in ten of them, and its median beats the parent's by more than
    the parent's interquartile range. ``unresolved`` is true when the
    parent's interquartile range exceeds the metric's ``bound`` times its
    median, so the medians cannot show a regression of that size, unless
    every change run beats every parent run.
    """
    out = {}
    for spec in metrics:
        name, higher = spec["name"], spec["better"] == "higher"
        parent = [r["parent"]["metrics"][name]["value"] for r in runs]
        change = [r["change"]["metrics"][name]["value"] for r in runs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        losses = sum((c < p) if higher else (c > p) for p, c in zip(parent, change))
        sides = {"parent": quartiles(parent), "change": quartiles(change)}
        gap = sides["change"]["median"] - sides["parent"]["median"]
        iqr = sides["parent"]["q3"] - sides["parent"]["q1"]
        separated = min(change) > max(parent) if higher else max(change) < min(parent)
        out[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            **sides,
            "change_wins": wins,
            "change_losses": losses,
            "ties": len(runs) - wins - losses,
            "median_ratio": (
                sides["change"]["median"] / sides["parent"]["median"]
                if sides["parent"]["median"] else None
            ),
            "clear_gain": (
                len(runs) >= MIN_CLAIM_PAIRS
                and 10 * wins >= 9 * len(runs)
                and (gap if higher else -gap) > iqr
            ),
            "unresolved": iqr > spec["bound"] * abs(sides["parent"]["median"]) and not separated,
        }
    return out


def run_side(tree: str, workload: str, seed: int, seconds: float, trace: bool = False) -> dict:
    """One perfbench run in ``tree``: its last two stdout lines, parsed.

    A traced run's ``metrics`` are the per-layer figures.
    """
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise SystemExit(f"bench_pairs: perfbench failed in {tree} (seed {seed}):\n{proc.stderr}")
    detail, result = json.loads(lines[-2]), json.loads(lines[-1])
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
        "environment": detail.get("environment", {}),
    }


def run_pair(parent_tree: str, workload: str, seed: int, seconds: float, label: str,
             first: str = "parent", trace: bool = False) -> dict:
    """Run both sides once, ``first`` first; stop on an incorrect run or unlike environments."""
    order = ["parent", "change"] if first == "parent" else ["change", "parent"]
    record = {"seed": seed, "first": first}
    for side in order:
        run = run_side(parent_tree if side == "parent" else ROOT, workload, seed, seconds, trace)
        if not run["correct"] or run["failed"]:
            raise SystemExit(
                f"bench_pairs: {label} (seed {seed}), {side} run failed its checks: correct"
                f" {run['correct']}, {run['failed']} of {run['attempted']} operations failed"
            )
        record[side] = run
        print(f"{label} seed {seed} {side}: "
              f"{json.dumps({k: v['value'] for k, v in run['metrics'].items()})}",
              file=sys.stderr)
    if record["parent"]["environment"] != record["change"]["environment"]:
        raise SystemExit(
            f"bench_pairs: {label} (seed {seed}) ran in different environments:\n"
            f"  parent {json.dumps(record['parent']['environment'])}\n"
            f"  change {json.dumps(record['change']['environment'])}"
        )
    return record


def resolve(rev: str) -> str:
    """The commit id ``rev`` names in this repository; stop if it names none."""
    rev_parse = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", "--quiet", f"{rev}^{{commit}}"],
        capture_output=True, text=True,
    )
    if rev_parse.returncode != 0:
        raise SystemExit(f"bench_pairs: unknown revision {rev!r}")
    return rev_parse.stdout.strip()


def extract(rev: str, into: str) -> str:
    """Write the files of ``rev`` into a fresh directory under ``into``."""
    tree = tempfile.mkdtemp(prefix="parent-", dir=into)
    archive = subprocess.run(["git", "-C", ROOT, "archive", rev], capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", tree], input=archive.stdout, check=True)
    return tree


def write_atomic(path: str, text: str) -> None:
    """Replace ``path`` with ``text`` only once all of it is on disk (``fileio.atomic_write``)."""
    with atomic_write(path) as fh:
        fh.write(text.encode("utf-8"))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--parent", required=True, help="git revision to compare against")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--first-seed", type=int, required=True)
    parser.add_argument("--name", required=True, help="the output is BENCH_<name>.json")
    parser.add_argument("--workdir", default=None, help="where the parent tree is extracted")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        benchmark = json.load(fh)
    metrics, seconds = benchmark["end_to_end"], benchmark["run_seconds"]
    commit = resolve(args.parent)
    with tempfile.TemporaryDirectory(dir=args.workdir) as tmp:
        parent_tree = extract(commit, tmp)
        runs = [
            run_pair(parent_tree, args.workload, args.first_seed + i, seconds,
                     f"pair {i + 1}/{args.pairs}", "parent" if i % 2 == 0 else "change")
            for i in range(args.pairs)
        ]
        traced = run_pair(parent_tree, args.workload, args.first_seed, seconds, "traced pair",
                          trace=True)

    environment = runs[0]["change"]["environment"]
    for r in runs + [traced]:
        for side in ("parent", "change"):
            r[side].pop("environment")
    entry = {
        "parent": commit,
        "pairs": args.pairs,
        "first_seed": args.first_seed,
        "seconds": seconds,
        "environment": environment,
        "summary": summarize(runs, metrics),
        "runs": runs,
        "traced": traced,
    }
    out = os.path.join(ROOT, f"BENCH_{args.name}.json")
    bench = {"workloads": {}}
    if os.path.exists(out):
        with open(out, encoding="utf-8") as fh:
            bench = json.load(fh)
    bench["workloads"][args.workload] = entry
    write_atomic(out, json.dumps(bench, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
