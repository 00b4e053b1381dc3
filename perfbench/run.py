"""Benchmark command: one seeded workload, measured, checked, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout; it imports the program from
``src``. It pins the BLAS and OpenMP thread count to one before numpy
loads, generates the workload's inputs in a separate process (cached
under ``perfbench/cache`` by seed and by a digest of the code that writes
them), then runs the workload in a fresh process.
The last line of standard output is
``{"correct", "attempted", "failed", "metrics"}``; the line before it
holds the environment, the checks and the workload's own figures. With
``--trace 1`` the metrics are the per-layer figures of a traced run, and
the line before holds that run's end-to-end figures, whose difference
from an untraced run is the tracing overhead. Full results, and
the span records of traced runs, go to ``perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("clustered_train", "text_train", "index_and_serve")
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
CACHED_SEEDS = 2          # input sets kept per workload; older ones are deleted
DEADLINE_S = 170.0        # whole command, input generation included


def fail(message: str, code: int = 2) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def child_env(root: str) -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = BLAS_THREADS
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(root, "src"), HERE])
    return env


def remaining(start: float) -> float:
    return DEADLINE_S - (time.monotonic() - start)


def run_child(cmd: list[str], env: dict, timeout: float, stdout) -> int:
    """Run one child process to its end; kill it and wait for it on timeout."""
    proc = subprocess.Popen(cmd, env=env, stdout=stdout)
    try:
        return proc.wait(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        return -1
    except BaseException:
        proc.kill()
        proc.wait()
        raise


def code_digest(root: str) -> str:
    """Digest of inputs.py and the program sources, which write and read the inputs.

    A change to either gives new input sets, so no run reads files that
    older code wrote.
    """
    files = [os.path.join(HERE, "inputs.py")]
    for folder, dirs, names in os.walk(os.path.join(root, "src", "multires")):
        dirs.sort()
        files += [os.path.join(folder, n) for n in sorted(names) if n.endswith(".py")]
    digest = hashlib.sha256()
    for path in files:
        digest.update(os.path.relpath(path, root).encode())
        with open(path, "rb") as fh:
            digest.update(hashlib.sha256(fh.read()).digest())
    return digest.hexdigest()[:16]


def ensure_inputs(workload: str, seed: int, env: dict, start: float, root: str) -> str | None:
    """Path of the workload's input set for this seed and code, generated if not cached."""
    cache = os.path.join(HERE, "cache")
    target = os.path.join(cache, f"{workload}-{seed}-{code_digest(root)}")
    if not os.path.isdir(target):
        os.makedirs(cache, exist_ok=True)
        older = sorted(
            (e for e in os.scandir(cache) if e.is_dir() and e.name.startswith(workload + "-")),
            key=lambda e: e.stat().st_mtime,
        )
        for entry in older[: max(0, len(older) - CACHED_SEEDS + 1)]:
            shutil.rmtree(entry.path, ignore_errors=True)
        cmd = [sys.executable, os.path.join(HERE, "inputs.py"),
               "--workload", workload, "--seed", str(seed), "--out", target]
        if run_child(cmd, env, remaining(start), sys.stderr) != 0 or not os.path.isdir(target):
            return None
    os.utime(target)
    return target


def environment(seed: int) -> dict:
    """Interpreter, numpy, BLAS and machine facts, read in a process like the workload's."""
    import platform

    import numpy as np

    blas = np.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "cores": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "seed": seed,
    }


def blas_threads() -> int | str:
    """Thread count the loaded OpenBLAS reports, else the pinned setting."""
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__) + ".libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        return fail("--seed must be non-negative")
    if args.seconds <= 0:
        return fail("--seconds must be positive")

    start = time.monotonic()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "multires", "__init__.py")):
        return fail(f"no program source under {os.path.join(root, 'src')}; run from a checkout root")
    with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)  # metric names and units
    for var in THREAD_VARS:  # before numpy loads in this process
        os.environ[var] = BLAS_THREADS
    env = child_env(root)

    inputs = ensure_inputs(args.workload, args.seed, env, start, root)
    if inputs is None:
        return fail("input generation failed", 1)

    results = os.path.join(HERE, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    out = stem + ".json"
    if os.path.exists(out):
        os.remove(out)
    cmd = [sys.executable, os.path.join(HERE, "workload.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--inputs", inputs, "--out", out]
    with open(stem + ".log", "w", encoding="utf-8") as log:
        code = run_child(cmd, env, remaining(start), log)
    shutil.rmtree(out + ".work", ignore_errors=True)
    if code != 0 or not os.path.isfile(out):
        return fail(f"workload process ended with code {code}; see {stem}.log", 1)

    with open(out, encoding="utf-8") as fh:
        result = json.load(fh)
    result["environment"] = {**environment(args.seed), **result.pop("program_environment")}
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=1)

    printed = "layers" if args.trace else "metrics"
    metrics = {
        m["name"]: {"value": result[printed][m["name"]], "unit": m["unit"]}
        for m in spec["per_layer" if args.trace else "end_to_end"]
    }
    detail = {k: v for k, v in result.items() if k != printed}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
