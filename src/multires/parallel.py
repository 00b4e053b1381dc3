"""The thread runtime: one pool, one core binding, one worker count and one ``run``.

This is the only module that starts threads, binds them to cores or
decides how many workers run. ``run(task, items, workers)`` calls
``task(item)`` for every item, on the calling thread and on up to
``workers - 1`` threads of one process-wide pool. Its callers hand it
native work that releases the GIL:

- ``multires.numerics.kernels`` runs a large conv GEMM in chunks of
  output rows, one per worker (``split_workers``);
- ``multires.model.encoder.encode_texts`` runs its parts' forwards, one
  whole forward per worker;
- ``multires.fileio.crc32`` runs the slices of a large checksum
  (``zlib.crc32``).

Worker count. ``split_workers()`` is the number of usable cores
(``os.sched_getaffinity``) per thread of the loaded OpenBLAS, so a split
takes only the cores the BLAS leaves idle. It is 1, so no split, when the
BLAS already runs a thread per usable core or its thread count cannot be
read (a BLAS other than OpenBLAS).

Core binding. While it works for a run, a pool thread binds itself to a
usable core other than the calling thread's; on the 2-core VM where the
split was measured, the operating system's scheduler otherwise left it on
the caller's core, and a split product took as long as the whole one. It
gets its own affinity back when its work ends, so the binding never
outlives the core choice it came from.

No nesting. While a thread works for a run (a thread-local flag, set and
reset in a ``finally``), every run it asks for runs inline, and
``inside_split()`` tells callers so, so that they plan one chunk. So a
pool thread never waits on the pool.

A forked child has none of its parent's threads: it starts its own pool.
"""

from __future__ import annotations

import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, Sequence, TypeVar

try:
    from numpy._core import _multiarray_umath as _umath
except ImportError:  # numpy < 2
    from numpy.core import _multiarray_umath as _umath

T = TypeVar("T")

_pool: ThreadPoolExecutor | None = None
_pool_lock = threading.Lock()
_split = threading.local()  # .inside: this thread works for a run

_current_core = None  # the core the calling thread runs on, or -1
if hasattr(os, "sched_setaffinity"):
    try:
        _current_core = ctypes.CDLL(None).sched_getcpu
        _current_core.argtypes, _current_core.restype = [], ctypes.c_int
    except (OSError, AttributeError):
        pass


def _openblas_threads_getter() -> Callable[[], int] | None:
    """OpenBLAS's thread-count getter, found from numpy's own extension module, or None."""
    try:
        lib = ctypes.CDLL(_umath.__file__)  # dlsym searches the libraries it links too
    except (OSError, TypeError):
        return None
    for symbol in (
        "scipy_openblas_get_num_threads64_",
        "openblas_get_num_threads64_",
        "openblas_get_num_threads",
    ):
        fn = getattr(lib, symbol, None)
        if fn is not None:
            fn.argtypes, fn.restype = [], ctypes.c_int
            return fn
    return None


_openblas_threads = _openblas_threads_getter()


def usable_cores() -> int:
    """Cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform: never split
        return 1


def blas_threads() -> int | None:
    """Threads the loaded OpenBLAS runs a gemm on, or None when that cannot be read."""
    return int(_openblas_threads()) if _openblas_threads is not None else None


def split_workers() -> int:
    """Workers a split runs on at once: the usable cores per BLAS thread.

    1, so no split, when the BLAS already runs a thread per usable core or
    its thread count cannot be read.
    """
    threads = blas_threads()
    return max(1, usable_cores() // threads) if threads else 1


def inside_split() -> bool:
    """Whether this thread works for a run, where every further run runs inline."""
    return getattr(_split, "inside", False)


def _forget_pool() -> None:
    """A forked child has none of its parent's threads: it starts its own pool."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _get_pool() -> ThreadPoolExecutor:
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(max(1, usable_cores() - 1), thread_name_prefix="multires")
        return _pool


def run(task: Callable[[T], None], items: Sequence[T], workers: int | None = None) -> None:
    """Call ``task(item)`` for every item, on this thread and up to ``workers - 1`` pool threads.

    ``workers`` defaults to one per item. This thread takes the first item,
    and each worker then takes the next item left, in order. Every item
    runs: the call returns once all have finished, then re-raises the
    failure of the first item, in item order, that failed.

    With one worker or one item, or inside another run, the items run
    inline on this thread, in order, and the first failure ends the run:
    no pool, no lock and no thread-local write.
    """
    n = len(items) if workers is None else min(workers, len(items))
    if n < 2 or inside_split():
        for item in items:
            task(item)
        return
    failures: list[BaseException | None] = [None] * len(items)
    pending = iter(range(1, len(items)))
    lock = threading.Lock()

    def work(i: int | None = None) -> None:
        _split.inside = True
        try:
            if i is None:
                with lock:
                    i = next(pending, None)
            while i is not None:
                try:
                    task(items[i])
                except BaseException as exc:  # re-raised below, once every item has run
                    failures[i] = exc
                with lock:
                    i = next(pending, None)
        finally:
            _split.inside = False

    pool = _get_pool()
    others = sorted(os.sched_getaffinity(0) - {_current_core() if _current_core else -1})
    futures = [
        pool.submit(_on_core, others[w % len(others)] if others else None, work) for w in range(n - 1)
    ]
    work(0)
    for future in futures:
        future.result()
    error = next((e for e in failures if e is not None), None)
    if error is not None:
        raise error


def _on_core(core: int | None, work: Callable[[], None]) -> None:
    """Call ``work()`` with this pool thread bound to ``core``, then restore its affinity."""
    if core is None:
        work()
        return
    saved = os.sched_getaffinity(0)
    try:
        os.sched_setaffinity(0, {core})
    except OSError:  # the core left the process's set: run where the scheduler puts it
        pass
    try:
        work()
    finally:
        try:
            os.sched_setaffinity(0, saved)
        except OSError:  # none of the saved cores is left: keep the binding
            pass
