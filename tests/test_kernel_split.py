"""A large conv GEMM runs in row chunks, one per usable core, with the bits of one chunk.

The kernels split the forward's and the input gradient's products by texts
and the kernel gradient's product by output kernels. These tests patch the
BLAS thread count to 1 and the usable core count to 1, 2 and 3 on shapes
whose work crosses the split threshold in chunks of unequal size, and
require the same bytes. That rests on the BLAS computing a row of a
product the same way whatever the number of rows past its small-matrix
paths, so the tests run at the real threshold on the BLAS in use.
"""

import multiprocessing
import os
import subprocess
import sys
import threading

import numpy as np
import pytest

from multires import parallel
from multires.corpus import QaPair
from multires.errors import DegenerateVectorError
from multires.model import encoder
from multires.model.checkpoint import serialize_params
from multires.model.encoder import TokenTexts, encode_texts, init_convrr_params, init_fcrr_params
from multires.model.train import TrainConfig, train
from multires.numerics import kernels
from test_encode_parts import _check_encode_memory


@pytest.fixture
def chunk_counts(monkeypatch):
    """The chunk count of every GEMM phase and the worker count of every concurrent run of parts.

    encode_texts' parts at one worker run inline, as a plain loop would, and
    are not recorded.
    """
    counts = []
    run = parallel.run

    def recording(task, items, workers=None):
        if workers != 1:
            counts.append(len(items) if workers is None else min(workers, len(items)))
        return run(task, items, workers)

    monkeypatch.setattr(parallel, "run", recording)
    return counts


def _cores(monkeypatch, n, blas_threads=1):
    monkeypatch.setattr(parallel, "usable_cores", lambda: n)
    monkeypatch.setattr(parallel, "blas_threads", lambda: blas_threads)


def _case(batch, k, d, n_k, ws, dtype):
    gen = np.random.default_rng([batch, k, d, n_k, ws, np.dtype(dtype).itemsize])
    x = gen.normal(size=(batch, k, d)).astype(dtype)
    w = gen.normal(size=(n_k, ws, d)).astype(dtype)
    w = np.ascontiguousarray(w.transpose(1, 2, 0)).transpose(2, 0, 1)  # GEMM-major, as trained
    return x, w, gen.normal(size=n_k).astype(dtype), gen.normal(size=(batch, k, n_k)).astype(dtype)


# 61 texts (odd) of 41 positions and 145 kernels (prime to 2 and 3): at ws=1 the
# products do 2501 x 288 x 145 = 104 M multiply-adds, three chunks' work.
SPLIT = dict(batch=61, k=41, d=288, n_k=145)
WORKERS = (2, 3)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ws", [1, 3, 5])
def test_forward_bytes_do_not_depend_on_the_core_count(ws, dtype, monkeypatch, chunk_counts):
    x, w, b, _ = _case(ws=ws, dtype=dtype, **SPLIT)
    _cores(monkeypatch, 1)
    want = kernels.conv_forward(x, w, b)
    for n in WORKERS:
        _cores(monkeypatch, n)
        assert kernels.conv_forward(x, w, b).tobytes() == want.tobytes()
    assert chunk_counts == [1, 2, 3]


@pytest.mark.parametrize("input_grad", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("ws", [1, 3, 5])
def test_backward_bytes_do_not_depend_on_the_core_count(
    ws, dtype, input_grad, monkeypatch, chunk_counts
):
    x, w, _, g = _case(ws=ws, dtype=dtype, **SPLIT)
    _cores(monkeypatch, 1)
    want = kernels.conv_backward(x, w, g, input_grad)
    for n in WORKERS:
        _cores(monkeypatch, n)
        got = kernels.conv_backward(x, w, g, input_grad)
        assert (got[0] is None) == (not input_grad)
        for part, ref in zip(got, want):
            assert part is None or part.tobytes() == ref.tobytes()
        assert got[1].transpose(1, 2, 0).flags.c_contiguous  # still GEMM-major
    # the windows' product by kernels (145: chunks of 72/73 and 48/48/49), then the
    # input gradient's product by texts
    phases = 2 if input_grad else 1
    assert chunk_counts == [n for n in (1, 2, 3) for _ in range(phases)]


def test_a_gemm_just_below_the_threshold_starts_no_thread(monkeypatch, chunk_counts):
    # 43 texts x 127 positions at ws=3, d = n_k = 64: 5461 x 192 x 64 multiply-adds,
    # 4096 below two chunks' work.
    x, w, b, g = _case(batch=43, k=127, d=64, n_k=64, ws=3, dtype=np.float32)
    assert 2 * kernels.CHUNK_MACS - 43 * 127 * 3 * 64 * 64 == 4096
    _cores(monkeypatch, 2)
    monkeypatch.setattr(parallel, "_pool", None)
    threads = threading.active_count()
    kernels.conv_forward(x, w, b)
    kernels.conv_backward(x, w, g)
    assert chunk_counts == [1, 1, 1]
    assert parallel._pool is None and threading.active_count() == threads


def test_a_trimmed_backward_under_two_chunks_runs_inline(monkeypatch, chunk_counts):
    # 200 one-position texts at ws=5, d = n_k = 288: the full window's products would do
    # 200 x 1440 x 288 = 83 M multiply-adds, two chunks' work; the one tap that reaches
    # a row leaves 17 M.
    x, w, _, g = _case(batch=200, k=1, d=288, n_k=288, ws=5, dtype=np.float32)
    assert 200 * 5 * 288 * 288 >= 2 * kernels.CHUNK_MACS > 200 * 288 * 288
    _cores(monkeypatch, 1)
    want = kernels.conv_backward(x, w, g)
    _cores(monkeypatch, 2)
    monkeypatch.setattr(parallel, "_pool", None)
    for part, ref in zip(kernels.conv_backward(x, w, g), want):
        assert part.tobytes() == ref.tobytes()
    assert chunk_counts == [1, 1, 1, 1] and parallel._pool is None


# Texts shorter than the window whose trimmed products still do three chunks' work:
# 1300 x 288 x 288 = 108 M multiply-adds with one tap, 500 x 864 x 288 = 124 M with three.
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch, k, ws", [(1300, 1, 5), (250, 2, 7)])
def test_trimmed_backward_bytes_do_not_depend_on_the_core_count(
    batch, k, ws, dtype, monkeypatch, chunk_counts
):
    x, w, _, g = _case(batch=batch, k=k, d=288, n_k=288, ws=ws, dtype=dtype)
    _cores(monkeypatch, 1)
    want = kernels.conv_backward(x, w, g)
    for n in WORKERS:
        _cores(monkeypatch, n)
        for part, ref in zip(kernels.conv_backward(x, w, g), want):
            assert part.tobytes() == ref.tobytes()
    assert chunk_counts == [1, 1, 2, 2, 3, 3]


def test_one_usable_core_runs_inline(monkeypatch, chunk_counts):
    x, w, b, _ = _case(ws=5, dtype=np.float32, **SPLIT)
    _cores(monkeypatch, 1)
    monkeypatch.setattr(parallel, "_pool", None)
    kernels.conv_forward(x, w, b)
    assert chunk_counts == [1] and parallel._pool is None


@pytest.mark.parametrize(
    "cores, blas_threads, workers",
    [(1, 1, 1), (2, 1, 2), (3, 1, 3), (2, 2, 1), (4, 2, 2), (5, 2, 2), (2, 4, 1), (4, None, 1)],
)
def test_the_split_takes_the_cores_the_blas_threads_leave(cores, blas_threads, workers, monkeypatch):
    _cores(monkeypatch, cores, blas_threads)
    assert parallel.split_workers() == workers


def test_a_blas_thread_per_core_runs_inline(monkeypatch, chunk_counts):
    x, w, b, g = _case(ws=5, dtype=np.float32, **SPLIT)
    _cores(monkeypatch, 2, blas_threads=2)
    monkeypatch.setattr(parallel, "_pool", None)
    kernels.conv_forward(x, w, b)
    kernels.conv_backward(x, w, g)
    assert chunk_counts == [1, 1, 1] and parallel._pool is None


@pytest.mark.skipif(parallel.blas_threads() is None, reason="the BLAS thread count is unreadable")
def test_blas_threads_reads_the_loaded_blas():
    src = os.path.dirname(os.path.dirname(parallel.__file__))  # multires' root
    counts = sorted({1, min(2, len(os.sched_getaffinity(0)))})
    for n in counts:
        env = dict(os.environ, OPENBLAS_NUM_THREADS=str(n), PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-c", "from multires import parallel; print(parallel.blas_threads())"],
            env=env, capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.strip() == str(n)


def test_concurrent_callers_and_more_chunks_than_cores_keep_the_bytes(monkeypatch):
    x, w, b, g = _case(ws=3, dtype=np.float32, **SPLIT)
    _cores(monkeypatch, 1)
    want = kernels.conv_forward(x, w, b).tobytes(), kernels.conv_backward(x, w, g)[1].tobytes()
    _cores(monkeypatch, 4)
    results = []

    def caller():
        for _ in range(5):
            got = kernels.conv_forward(x, w, b).tobytes(), kernels.conv_backward(x, w, g)[1].tobytes()
            results.append(got == want)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=caller) for _ in range(2)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(120)
        assert not any(t.is_alive() for t in callers)
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 10


def _encode_in_child(conn, x, w, b):
    conn.send((parallel._pool is None, kernels.conv_forward(x, w, b).tobytes()))
    conn.close()


def test_a_forked_child_starts_its_own_pool(monkeypatch):
    x, w, b, _ = _case(ws=5, dtype=np.float32, **SPLIT)
    _cores(monkeypatch, 2)
    want = kernels.conv_forward(x, w, b)
    assert parallel._pool is not None  # the parent's pool threads are not in the child
    ctx = multiprocessing.get_context("fork")
    parent_end, child_end = ctx.Pipe(duplex=False)
    child = ctx.Process(target=_encode_in_child, args=(child_end, x, w, b))
    child.start()
    child_end.close()
    try:
        assert parent_end.poll(60), "the forked child hung"
        fresh, got = parent_end.recv()
        child.join(10)
        assert child.exitcode == 0
    finally:
        if child.is_alive():
            child.kill()
    assert fresh and got == want.tobytes()


def test_encode_texts_bytes_do_not_depend_on_the_core_count(monkeypatch, chunk_counts):
    gen = np.random.default_rng(5)
    table = gen.normal(size=(500, 128)).astype(np.float32)
    ids = [gen.integers(0, 500, size=k) for k in gen.choice([24, 40], size=150)]
    texts = TokenTexts(table, ids)
    params = init_convrr_params(128, rng=np.random.default_rng(6))
    _cores(monkeypatch, 1)
    want = encode_texts(texts, params)
    chunk_counts.clear()
    _cores(monkeypatch, 2)
    assert encode_texts(texts, params).tobytes() == want.tobytes()
    assert max(chunk_counts) == 2


def test_seeded_training_bytes_do_not_depend_on_the_core_count(monkeypatch, chunk_counts):
    gen = np.random.default_rng(8)
    n, dim = 60, 128
    docs = {f"d{i}": gen.normal(size=(32, dim)).astype(np.float32) for i in range(n)}
    queries = {f"q{i}": gen.normal(size=(12, dim)).astype(np.float32) for i in range(n)}
    pairs = [QaPair(f"q{i}", "", f"d{i}") for i in range(n)]
    cfg = TrainConfig(iterations=3, batch_size=48, seed=3)
    runs = []
    for cores in (1, 2):
        _cores(monkeypatch, cores)
        chunk_counts.clear()
        result = train(pairs, queries, docs, "convrr", cfg)
        runs.append((serialize_params(result.params, "convrr"), np.array(result.loss_trace).tobytes()))
        assert max(chunk_counts) == cores  # 48 documents of 32 positions: 126 M multiply-adds
    assert runs[0] == runs[1]


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs two usable cores")
def test_a_pool_thread_runs_its_chunk_off_the_calling_threads_core(monkeypatch):
    _cores(monkeypatch, 2)
    second_started = threading.Event()
    seen = {}

    def chunk(i):
        seen[i] = (threading.get_native_id(), os.sched_getaffinity(0))
        if i == 0:  # else this thread could take both trivial chunks
            seen["overlap"] = second_started.wait(10)
        else:
            second_started.set()

    parallel.run(chunk, range(2))
    (caller, caller_set), (worker, worker_set) = seen[0], seen[1]
    assert seen["overlap"] and caller == threading.get_native_id()
    assert worker != caller and len(worker_set) == 1 and worker_set < caller_set
    # the binding ends with the run: an idle pool thread may run on any usable core
    assert os.sched_getaffinity(worker) == caller_set


# --- encode_texts: parts run concurrently, one whole forward per worker ---


def _encoder_params(kind, dim, dtype):
    rng = np.random.default_rng(9)
    if kind == "convrr":
        return init_convrr_params(dim, rng=rng, dtype=dtype)
    return init_fcrr_params(dim, rng=rng, dtype=dtype)


def _texts(lengths, per_length, dim, dtype, as_tokens, seed=11):
    gen = np.random.default_rng(seed)
    table = gen.normal(size=(2000, dim)).astype(dtype)
    ids = [gen.integers(0, len(table), size=k) for k in gen.permutation(np.repeat(lengths, per_length))]
    if as_tokens:
        return TokenTexts(table, ids, [f"t{i}" for i in range(len(ids))])
    return [table[i] for i in ids]


# (kind, text lengths, texts per length) at d''=64: at 2 and 3 workers every length
# group runs in two or more parts; convrr's longer group splits at one worker too.
ENCODE_CASES = [("convrr", (12, 40), 300), ("fcrr", (1, 3), 9000)]


@pytest.mark.parametrize("as_tokens", [True, False])
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind, lengths, per_length", ENCODE_CASES)
def test_encode_texts_bytes_do_not_depend_on_the_worker_count(
    kind, lengths, per_length, dtype, as_tokens, monkeypatch, chunk_counts
):
    texts = _texts(lengths, per_length, 64, dtype, as_tokens)
    params = _encoder_params(kind, 64, dtype)
    runs = []
    for n in (1, 2, 3):
        _cores(monkeypatch, n)
        if n > 1:
            parts = encoder._parts(texts, params, encoder._part_cells(n))
            assert all(sum(k == length for k, _ in parts) >= 2 for length in lengths)
        chunk_counts.clear()
        runs.append(encode_texts(texts, params).tobytes())
        if n > 1:
            assert chunk_counts[0] == n  # the parts' workers
        assert set(chunk_counts[n > 1:]) <= {1}  # every GEMM inside a part as one chunk
    assert runs[0] == runs[1] == runs[2]


def test_the_gemms_inside_a_part_run_as_one_chunk(monkeypatch, chunk_counts):
    # 60 texts of 40 positions at d''=288: one worker runs two parts of 1200 rows, whose
    # GEMMs split in two; two workers run parts of 8 or 9 texts, 133 M or 149 M
    # multiply-adds per GEMM, above two chunks' work, and must not split them.
    texts = _texts((40,), 60, 288, np.float32, True)
    params = _encoder_params("convrr", 288, np.float32)
    assert 8 * 40 * 5 * 288 * 288 >= 2 * kernels.CHUNK_MACS
    _cores(monkeypatch, 1)
    want = encode_texts(texts, params)
    assert chunk_counts == [1, 1, 1, 1]
    _cores(monkeypatch, 2)
    chunk_counts.clear()
    assert encode_texts(texts, params).tobytes() == want.tobytes()
    assert chunk_counts == [2] + [1] * 14  # 7 parts of two conv blocks each


def test_a_one_text_call_starts_no_pool(monkeypatch, chunk_counts):
    texts = _texts((40,), 1, 288, np.float32, True)
    params = _encoder_params("convrr", 288, np.float32)
    _cores(monkeypatch, 2)
    monkeypatch.setattr(parallel, "_pool", None)
    threads = threading.active_count()
    encode_texts(texts, params)
    assert chunk_counts == [1, 1] and parallel._pool is None and threading.active_count() == threads


@pytest.mark.parametrize("as_tokens", [True, False])
def test_a_zero_norm_text_in_a_late_part_is_named_as_by_one_worker(as_tokens, monkeypatch):
    texts = _texts((12, 40), 300, 64, np.float32, as_tokens)
    params = _encoder_params("convrr", 64, np.float32)  # zero biases: a zero text encodes to 0
    _cores(monkeypatch, 2)
    parts = encoder._parts(texts, params, encoder._part_cells(2))
    # zero texts in the last three parts: the first of them must be named, whichever
    # worker fails first
    zero = [part[len(part) // 2] for _, part in parts[-3:]]
    if as_tokens:
        table = np.vstack([texts.table, np.zeros((1, 64), np.float32)])
        ids = list(texts.ids)
        for i in zero:
            ids[i] = np.full(len(ids[i]), len(table) - 1)
        texts = TokenTexts(table, ids, texts.names)
    else:
        texts = list(texts)
        for i in zero:
            texts[i] = np.zeros_like(texts[i])
    messages = []
    for n in (1, 2, 3):
        _cores(monkeypatch, n)
        with pytest.raises(DegenerateVectorError) as info:
            encode_texts(texts, params)
        messages.append((str(info.value), info.value.position))
    name = f"text 't{zero[0]}'" if as_tokens else f"text {zero[0]}"
    assert messages[0][0].startswith(name) and messages[0][1] == zero[0]
    assert messages == [messages[0]] * 3


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("n", [250, 2000])
def test_encode_memory_is_bounded_at_several_workers(n, workers, monkeypatch):
    """As ``test_encode_memory_is_bounded``, with the parts running concurrently."""
    params = init_convrr_params(64, rng=np.random.default_rng(0))
    texts = list(np.random.default_rng(n).normal(size=(n, 40, 64)).astype(np.float32))
    _cores(monkeypatch, workers)
    _check_encode_memory(texts, params)


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("n", [250, 2000])
def test_encode_memory_is_bounded_for_token_texts_at_several_workers(n, workers, monkeypatch):
    params = init_convrr_params(64, rng=np.random.default_rng(0))
    table = np.random.default_rng(n).normal(size=(n * 40, 64)).astype(np.float32)
    rows = np.arange(len(table))
    _cores(monkeypatch, workers)
    _check_encode_memory(TokenTexts(table, [rows[i * 40:(i + 1) * 40] for i in range(n)]), params)


def test_a_failed_part_leaves_later_gemms_free_to_split(monkeypatch):
    _cores(monkeypatch, 2)
    inside = []

    def task():
        inside.append(len(kernels._chunks(6, 6 * kernels.CHUNK_ROWS, 6 * kernels.CHUNK_MACS)))
        raise ValueError("part failed")

    with pytest.raises(ValueError, match="part failed"):
        parallel.run(lambda _: task(), range(2))
    assert inside == [1, 1]  # no split inside a split
    assert len(kernels._chunks(6, 6 * kernels.CHUNK_ROWS, 6 * kernels.CHUNK_MACS)) == 2  # the flag was reset


def test_more_workers_than_cores_keep_the_bytes(monkeypatch):
    """Many small parts on four workers with rapid thread switches: no part is lost or run twice."""
    texts = _texts((12, 40), 600, 64, np.float32, True)
    params = _encoder_params("convrr", 64, np.float32)
    _cores(monkeypatch, 1)
    want = encode_texts(texts, params).tobytes()
    _cores(monkeypatch, 4)
    assert len(encoder._parts(texts, params, encoder._part_cells(4))) >= 20
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = [encode_texts(texts, params).tobytes() == want for _ in range(5)]
    finally:
        sys.setswitchinterval(interval)
    assert results == [True] * 5


def test_at_most_concurrent_parts_run_at_once(monkeypatch, chunk_counts):
    """More cores than CONCURRENT_PARTS: parts keep their size and no more run at once."""
    texts = _texts((12, 40), 300, 64, np.float32, True)
    params = _encoder_params("convrr", 64, np.float32)
    _cores(monkeypatch, 1)
    want = encode_texts(texts, params).tobytes()
    for n in (2, 4, 6):
        _cores(monkeypatch, n)
        assert encoder._part_cells(n) == encoder.ENCODE_CELLS // encoder.CONCURRENT_PARTS
        chunk_counts.clear()
        assert encode_texts(texts, params).tobytes() == want
        assert chunk_counts[0] == min(n, encoder.CONCURRENT_PARTS)
