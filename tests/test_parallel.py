"""The thread runtime: ``parallel.run``'s contract, its pool, and that no other module starts threads."""

import ast
import pathlib
import sys
import threading
import time

import pytest

from multires import parallel

SRC = pathlib.Path(parallel.__file__).parent
THREAD_MODULES = ("threading", "concurrent")


def _cores(monkeypatch, n):
    monkeypatch.setattr(parallel, "usable_cores", lambda: n)


def _thread_code(tree: ast.AST) -> list[str]:
    """The thread imports and affinity calls in a module's syntax tree."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] in THREAD_MODULES]
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] in THREAD_MODULES:
            found.append(node.module)
        elif isinstance(node, ast.Attribute) and node.attr == "sched_setaffinity":
            found.append(node.attr)
    return found


def test_only_parallel_starts_threads_or_binds_cores():
    found = {
        str(path.relative_to(SRC)): names
        for path in sorted(SRC.rglob("*.py"))
        if (names := _thread_code(ast.parse(path.read_text(), str(path))))
    }
    assert set(found) == {"parallel.py"}
    assert set(found["parallel.py"]) == {"threading", "concurrent.futures", "sched_setaffinity"}


def test_every_item_runs_before_the_first_failure_is_raised(monkeypatch):
    _cores(monkeypatch, 2)
    finished = []

    def item(i):
        if i == 0:
            raise ValueError("first item")
        time.sleep(0.05)
        finished.append(i)

    with pytest.raises(ValueError, match="first item"):
        parallel.run(item, range(5), workers=2)  # items after the failure still run
    assert sorted(finished) == [1, 2, 3, 4]


def test_the_first_failed_item_in_order_is_raised(monkeypatch):
    _cores(monkeypatch, 3)

    def item(i):
        if i == 1:
            time.sleep(0.1)
            raise KeyError("second item")
        if i == 2:
            raise ValueError("third item")

    with pytest.raises(KeyError, match="second item"):
        parallel.run(item, range(3))


def test_a_run_inside_a_run_runs_inline(monkeypatch):
    _cores(monkeypatch, 2)
    seen = []

    def item(i):
        threads = []
        parallel.run(lambda j: threads.append(threading.get_ident()), range(3))
        seen.append((parallel.inside_split(), threads == [threading.get_ident()] * 3))
        raise ValueError("item failed")

    with pytest.raises(ValueError, match="item failed"):
        parallel.run(item, range(2))
    assert seen == [(True, True)] * 2
    assert not parallel.inside_split()  # the flag was reset on the failure


@pytest.mark.parametrize("items, workers", [(range(1), None), (range(3), 1), (range(0), None)])
def test_a_run_on_one_worker_starts_no_pool(items, workers, monkeypatch):
    _cores(monkeypatch, 2)
    monkeypatch.setattr(parallel, "_pool", None)
    monkeypatch.setattr(parallel, "_split", threading.local())
    threads, ran = threading.active_count(), []
    parallel.run(ran.append, items, workers)
    assert ran == list(items)
    assert parallel._pool is None and threading.active_count() == threads
    assert vars(parallel._split) == {}  # no thread-local write


def test_an_inline_run_stops_at_its_first_failure():
    ran = []

    def item(i):
        ran.append(i)
        if i == 1:
            raise ValueError("second item")

    with pytest.raises(ValueError, match="second item"):
        parallel.run(item, range(4), workers=1)
    assert ran == [0, 1]


def test_more_workers_than_cores_run_every_item_once(monkeypatch):
    _cores(monkeypatch, 2)
    runs = [0] * 300
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            parallel.run(lambda i: runs.__setitem__(i, runs[i] + 1), range(len(runs)), workers=6)
    finally:
        sys.setswitchinterval(interval)
    assert runs == [5] * len(runs)


def test_concurrent_first_calls_start_one_pool(monkeypatch):
    made = []
    executor = parallel.ThreadPoolExecutor

    def slow_pool(*args, **kwargs):
        time.sleep(0.05)  # widen the window between the check and the assignment
        made.append(executor(*args, **kwargs))
        return made[-1]

    monkeypatch.setattr(parallel, "_pool", None)
    monkeypatch.setattr(parallel, "ThreadPoolExecutor", slow_pool)
    pools = []
    start = threading.Barrier(4)

    def first_use():
        start.wait()
        pools.append(parallel._get_pool())

    callers = [threading.Thread(target=first_use) for _ in range(4)]
    try:
        for t in callers:
            t.start()
        for t in callers:
            t.join(10)
    finally:
        for pool in made:
            pool.shutdown()
    assert not any(t.is_alive() for t in callers)
    assert len(made) == 1 and len(pools) == 4 and all(pool is made[0] for pool in pools)
