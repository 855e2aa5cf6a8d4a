"""Child processes of the benchmark: `setup` and `stage`.

`run.py` starts each in a fresh interpreter with the BLAS thread count
pinned. A stage process runs the stage once, as a user's `domainlm` command
would, so its resident-memory high-water mark is that one stage's and not
the set-up's. Each writes one JSON file that `run.py` reads.

    python3 perfbench/child.py setup --workload W --seed N --size full --work DIR
    python3 perfbench/child.py stage --workload W --seed N --size full --work DIR --rep 0 --traced 0
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np
import scipy

import workloads
from domainlm import cli
from tracing import StageHooks, Tracer

SETUP_REPEATS = 5


def _rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "nproc": len(os.sched_getaffinity(0)),
    }


def calibrate_gemm(shape=(2048, 128, 512), repeats: int = 50) -> dict:
    """Peak GFLOP/s (best of `repeats`) of one (m, k) @ (k, n) product at the
    pretrain feed-forward shape, in float64 and float32."""
    m, k, n = shape
    rng = np.random.default_rng(0)
    out = {}
    for dtype in ("float64", "float32"):
        a = rng.standard_normal((m, k)).astype(dtype)
        b = rng.standard_normal((k, n)).astype(dtype)
        best = float("inf")
        for _ in range(repeats):
            start = time.perf_counter()
            a @ b
            best = min(best, time.perf_counter() - start)
        out[f"gemm_{dtype}_gflops"] = 2 * m * k * n / best / 1e9
    return out


def do_setup(args) -> dict:
    inputs = args.work / "inputs"
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        start = time.perf_counter()
        workloads.setup(args.workload, args.seed, args.size, inputs)
        times.append(time.perf_counter() - start)
    return {"setup_s": times, "env": environment(), "calibration": calibrate_gemm()}


def do_stage(args) -> dict:
    """One timed stage; with --traced 1 its root span covers exactly that time."""
    baseline = _rss_mb()
    inputs, out = args.work / "inputs", args.work / f"out{args.rep}"
    argv = workloads.argv(args.workload, args.seed, args.size, inputs, out)
    hooks = StageHooks()
    tracer = Tracer() if args.traced else None
    encoded = None
    if tracer is not None:
        tracer.install()
        root = tracer.open("cli")
    start = time.perf_counter()
    code = cli.main(argv)
    if code == 0 and args.workload == "tokenizer":
        encoded = workloads.encode_heldout(inputs, out)
    elapsed = time.perf_counter() - start
    if tracer is not None:
        tracer.close(root)

    if args.workload == "tokenizer":
        tokens = sum(map(len, encoded or []))
    else:
        tokens = hooks.infer_tokens if args.workload == "topics" else hooks.train_tokens
    rep = {
        "stage_s": elapsed, "exit_code": code, "tokens": tokens, "traced": tracer is not None,
        "fingerprints": hooks.fingerprints(), "baseline_rss_mb": baseline, "peak_rss_mb": _rss_mb(),
    }
    if args.rep == 0 and encoded is not None:
        rep["encoded"] = encoded  # checked for round trips by run.py
    if tracer is not None:
        rep["layers"] = tracer.layer_metrics()
        rep["spans"] = tracer.records()
    return rep


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "stage"))
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--rep", type=int, default=0)
    parser.add_argument("--traced", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.mode == "setup":
        result, name = do_setup(args), "setup.json"
    else:
        result, name = do_stage(args), f"stage{args.rep}.json"
    (args.work / name).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
