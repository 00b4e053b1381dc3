"""The pair-run summary of tools/bench_pairs.py, on canned perfbench results."""

import importlib.util
import json
import os

import pytest

from multires import fileio

_PATH = os.path.join(os.path.dirname(__file__), "..", "tools", "bench_pairs.py")
_spec = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [
    {"name": "round_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "eval_queries_per_s", "unit": "queries/s", "better": "higher", "bound": 0.25},
]


def pair(seed, parent, change):
    def side(values):
        round_s, qps = values
        return {
            "correct": True, "attempted": 3, "failed": 0,
            "metrics": {
                "round_s": {"value": round_s, "unit": "s"},
                "eval_queries_per_s": {"value": qps, "unit": "queries/s"},
            },
        }
    return {"seed": seed, "parent": side(parent), "change": side(change)}


def test_quartiles_interpolate_linearly():
    assert bench_pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == {"q1": 2.0, "median": 3.0, "q3": 4.0}
    assert bench_pairs.quartiles([7.0]) == {"q1": 7.0, "median": 7.0, "q3": 7.0}


def test_wins_follow_the_metric_direction_and_ties_count_for_neither():
    runs = [
        pair(1, (6.0, 100.0), (2.0, 100.0)),   # round_s win, qps tie
        pair(2, (6.2, 100.0), (2.1, 120.0)),   # win, win
        pair(3, (5.9, 110.0), (6.5, 90.0)),    # loss, loss
        pair(4, (6.1, 100.0), (6.1, 130.0)),   # tie, win
    ]
    out = bench_pairs.summarize(runs, METRICS)
    r, q = out["round_s"], out["eval_queries_per_s"]
    assert (r["change_wins"], r["change_losses"], r["ties"]) == (2, 1, 1)
    assert (q["change_wins"], q["change_losses"], q["ties"]) == (2, 1, 1)
    assert r["parent"] == pytest.approx({"q1": 5.975, "median": 6.05, "q3": 6.125})
    assert r["change"]["median"] == pytest.approx(4.1)
    assert not r["clear_gain"] and not q["clear_gain"]


def test_clear_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr():
    parent = [6.0, 6.1, 6.2, 6.3, 6.4, 6.0, 6.1, 6.2, 6.3, 6.4]
    change = [2.0] * 9 + [7.0]
    runs = [pair(i, (p, 1.0), (c, 1.0)) for i, (p, c) in enumerate(zip(parent, change))]
    out = bench_pairs.summarize(runs, METRICS)["round_s"]
    assert out["change_wins"] == 9 and out["clear_gain"]
    assert out["median_ratio"] == pytest.approx(2.0 / 6.2)

    change = [2.0] * 8 + [7.0, 7.0]  # eight wins in ten is not enough
    runs = [pair(i, (p, 1.0), (c, 1.0)) for i, (p, c) in enumerate(zip(parent, change))]
    assert not bench_pairs.summarize(runs, METRICS)["round_s"]["clear_gain"]

    change = [p - 0.01 for p in parent]  # wins every pair, but inside the parent's spread
    runs = [pair(i, (p, 1.0), (c, 1.0)) for i, (p, c) in enumerate(zip(parent, change))]
    out = bench_pairs.summarize(runs, METRICS)["round_s"]
    assert out["change_wins"] == 10 and not out["clear_gain"]


def test_clear_gain_needs_ten_pairs():
    parent = [6.0, 6.1, 6.2, 6.3, 6.4]
    runs = [pair(i, (p, 100.0), (2.0, 500.0)) for i, p in enumerate(parent)]
    out = bench_pairs.summarize(runs, METRICS)
    assert out["round_s"]["change_wins"] == 5 and not out["round_s"]["clear_gain"]
    assert out["eval_queries_per_s"]["change_wins"] == 5
    assert not out["eval_queries_per_s"]["clear_gain"]


def test_a_parent_spread_wider_than_the_bound_is_unresolved():
    # parent IQR / median: 0.2 / 6.2 is within the 0.25 bound, 2.0 / 6.0 is not
    narrow, wide = [6.0, 6.1, 6.2, 6.3, 6.4], [4.0, 5.0, 6.0, 7.0, 8.0]
    runs = [pair(i, (p, 100.0), (p, 100.0)) for i, p in enumerate(narrow)]
    assert not bench_pairs.summarize(runs, METRICS)["round_s"]["unresolved"]
    runs = [pair(i, (p, 100.0), (6.0, 100.0)) for i, p in enumerate(wide)]
    out = bench_pairs.summarize(runs, METRICS)
    assert out["round_s"]["unresolved"]
    assert not out["eval_queries_per_s"]["unresolved"]  # no spread at all

    # unless every change run beats every parent run, in the metric's direction
    runs = [pair(i, (p, 100.0), (3.9, 100.0)) for i, p in enumerate(wide)]
    assert not bench_pairs.summarize(runs, METRICS)["round_s"]["unresolved"]
    for change, unresolved in [(79.0, True), (81.0, False)]:
        runs = [pair(i, (6.0, 10 * p), (6.0, change)) for i, p in enumerate(wide)]
        assert bench_pairs.summarize(runs, METRICS)["eval_queries_per_s"]["unresolved"] is unresolved


def test_write_atomic_keeps_the_old_file_when_writing_fails(tmp_path, monkeypatch):
    assert bench_pairs.atomic_write is fileio.atomic_write
    out = tmp_path / "BENCH_x.json"
    bench_pairs.write_atomic(str(out), '{"a": 1}\n')
    assert out.read_text() == '{"a": 1}\n'

    def broken_fsync(fd):
        raise OSError("disk full")

    monkeypatch.setattr(fileio.os, "fsync", broken_fsync)
    with pytest.raises(OSError, match="disk full"):
        bench_pairs.write_atomic(str(out), '{"a": 2}\n')
    assert out.read_text() == '{"a": 1}\n'
    assert [p.name for p in tmp_path.iterdir()] == ["BENCH_x.json"]


def test_a_pair_in_different_environments_stops_the_run(tmp_path, monkeypatch):
    def fake_run_side(tree, workload, seed, seconds, trace=False):
        record = pair(seed, (6.0, 100.0), (2.0, 500.0))["parent"]
        backend = "numba" if tree == bench_pairs.ROOT else "numpy"
        return {**record, "environment": {"seed": seed, "conv_backend": backend}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: str(tmp_path))
    monkeypatch.setattr(bench_pairs, "resolve", lambda rev: "0" * 40)
    with pytest.raises(SystemExit, match="different environments"):
        bench_pairs.main(["--parent", "HEAD", "--workload", "clustered_train", "--pairs", "1",
                          "--first-seed", "1", "--name", "test", "--workdir", str(tmp_path)])
    assert not os.path.exists(os.path.join(bench_pairs.ROOT, "BENCH_test.json"))


_ARGS = ["--parent", "HEAD", "--workload", "index_and_serve", "--first-seed", "5", "--name", "test"]
with open(os.path.join(bench_pairs.ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    _END_TO_END = json.load(_fh)["end_to_end"]


def fake_side(value, **flaws):
    """A correct perfbench result with every end-to-end metric at ``value``."""
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in _END_TO_END}
    return {"correct": True, "attempted": 3, "failed": 0, "metrics": metrics, **flaws}


@pytest.mark.parametrize(
    "flaw, side", [({"correct": False}, "change"), ({"failed": 2}, "parent")],
    ids=["incorrect", "failed-operations"],
)
def test_a_run_that_failed_its_checks_stops_the_run(flaw, side, tmp_path, monkeypatch):
    def fake_run_side(tree, workload, seed, seconds, trace=False):
        this = "change" if tree == bench_pairs.ROOT else "parent"
        flawed = this == side and seed == 6  # the second pair
        return {**fake_side(1.0, **(flaw if flawed else {})), "environment": {"seed": seed}}

    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: str(tmp_path))
    monkeypatch.setattr(bench_pairs, "resolve", lambda rev: "0" * 40)
    with pytest.raises(SystemExit, match=rf"pair 2/3 \(seed 6\), {side} run failed its checks"):
        bench_pairs.main(_ARGS + ["--pairs", "3", "--workdir", str(tmp_path)])
    assert not os.path.exists(os.path.join(bench_pairs.ROOT, "BENCH_test.json"))


def test_a_traced_pair_at_the_first_seed_is_recorded(tmp_path, monkeypatch):
    calls = []

    def fake_run_side(tree, workload, seed, seconds, trace=False):
        this = "change" if tree == bench_pairs.ROOT else "parent"
        calls.append((this, seed, trace))
        record = fake_side(2.0 if this == "parent" else 1.0)
        if trace:
            value = 0.5 if this == "parent" else 0.1
            record["metrics"] = {"stores.read_s": {"value": value, "unit": "s"}}
        return {**record, "environment": {"seed": seed}}

    written = {}
    monkeypatch.setattr(bench_pairs, "run_side", fake_run_side)
    monkeypatch.setattr(bench_pairs, "extract", lambda rev, into: str(tmp_path))
    monkeypatch.setattr(bench_pairs, "resolve", lambda rev: "0" * 40)
    monkeypatch.setattr(bench_pairs, "write_atomic", lambda path, text: written.update({path: text}))
    assert bench_pairs.main(_ARGS + ["--pairs", "2", "--workdir", str(tmp_path)]) == 0
    assert calls == [
        ("parent", 5, False), ("change", 5, False),
        ("change", 6, False), ("parent", 6, False),
        ("parent", 5, True), ("change", 5, True),
    ]
    (path, text), = written.items()
    assert path == os.path.join(bench_pairs.ROOT, "BENCH_test.json")
    entry = json.loads(text)["workloads"]["index_and_serve"]
    assert [r["seed"] for r in entry["runs"]] == [5, 6]
    assert entry["summary"]["round_s"]["change_wins"] == 2
    traced = entry["traced"]
    assert traced["seed"] == 5 and traced["first"] == "parent"
    assert traced["parent"]["metrics"] == {"stores.read_s": {"value": 0.5, "unit": "s"}}
    assert traced["change"]["metrics"] == {"stores.read_s": {"value": 0.1, "unit": "s"}}
    assert "environment" not in traced["parent"] and entry["environment"] == {"seed": 5}


def test_an_unknown_parent_revision_stops_the_run_in_one_line(tmp_path, monkeypatch):
    def no_extract(rev, into):
        raise AssertionError("nothing is extracted for an unknown revision")

    monkeypatch.setattr(bench_pairs, "extract", no_extract)
    args = _ARGS[2:] + ["--parent", "no-such-revision-0f1e", "--pairs", "1"]
    with pytest.raises(SystemExit) as stop:
        bench_pairs.main(args + ["--workdir", str(tmp_path)])
    assert str(stop.value.code) == "bench_pairs: unknown revision 'no-such-revision-0f1e'"
    assert not os.path.exists(os.path.join(bench_pairs.ROOT, "BENCH_test.json"))
