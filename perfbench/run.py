"""Benchmark of the domainlm pipeline, one workload per run.

    python3 perfbench/run.py --workload pretrain --seed 1 --seconds 20 --trace 0

Builds the workload's inputs from the seed in a set-up process (five times,
reporting the median), runs the workload's `domainlm` subcommand once per
fresh stage process, repeatedly for `--seconds`, reports medians over those
reps, checks the outputs, and prints every metric with its unit and, as the
last line, one JSON object {"correct", "attempted", "failed", "metrics"}.
`--trace 0` reports the end-to-end metrics; `--trace 1` reports per-layer
metrics from traced reps of the stage, alternating with untraced reps that
give the tracing overhead. A full record (environment, every rep, spans)
goes to .bench_out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

DEADLINE_S = 170  # every run ends well inside the 180 s it is allowed

E2E_UNITS = {
    "setup_s": "s",
    "stage_s": "s",
    "tokens_per_s": "tok/s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_gflops"):
        return "GFLOP/s"
    if name.endswith(("_share", "error_rate")):
        return "ratio"
    if name.endswith(".p50"):
        return "ms"
    if name == "final_loss":
        return "nats"
    return "count"


def child_env() -> dict:
    threads = str(min(2, len(os.sched_getaffinity(0))))
    env = dict(os.environ)
    env.update(
        PYTHONPATH=os.pathsep.join([str(SRC), str(HERE)]),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
    )
    return env


def run_child(mode: str, result: str, args, work: Path, deadline: float, *extra: str) -> dict | None:
    """Run one child process to completion; its JSON result, or None if it failed."""
    command = [
        sys.executable, str(HERE / "child.py"), mode, "--workload", args.workload, "--seed", str(args.seed),
        "--size", args.size, "--work", str(work), *extra,
    ]
    try:
        # The program's own progress lines go to stderr, keeping stdout for results.
        proc = subprocess.run(
            command, env=child_env(), stdout=sys.stderr, timeout=max(1.0, deadline - time.monotonic())
        )
    except subprocess.TimeoutExpired:
        print(f"{mode} process timed out", file=sys.stderr)
        return None
    if proc.returncode != 0:
        print(f"{mode} process exited with code {proc.returncode}", file=sys.stderr)
        return None
    return json.loads((work / result).read_text(encoding="utf-8"))


def run_stages(args, work: Path, deadline: float) -> list[dict] | None:
    """Stage processes, one rep each, until `--seconds` are spent; None if one failed.

    With --trace 1, untraced and traced reps alternate, and each kind runs
    at least once. Only the first rep's outputs are kept for the checks.
    """
    reps: list[dict] = []
    began = time.monotonic()
    while True:
        index = len(reps)
        traced = args.trace == 1 and index % 2 == 1
        start = time.monotonic()
        rep = run_child(
            "stage", f"stage{index}.json", args, work, deadline, "--rep", str(index), "--traced", str(int(traced))
        )
        if rep is None:
            return None
        reps.append(rep)
        if rep["exit_code"] != 0:
            return reps
        if index > 0:
            shutil.rmtree(work / f"out{index}")
        now = time.monotonic()
        if now + 2 * (now - start) > deadline:
            return reps
        if now - began >= args.seconds and (args.trace == 0 or len(reps) >= 2):
            return reps


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((SRC / "domainlm").glob("*.py")):
        digest.update(path.name.encode())
        digest.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {"commit": commit, "source_sha256": digest.hexdigest()}


def median_rep(reps: list[dict]) -> dict:
    """The rep whose stage time is the (lower) median, so its spans are one whole stage."""
    ordered = sorted(reps, key=lambda r: r["stage_s"])
    return ordered[(len(ordered) - 1) // 2]


def evaluate(args, work: Path, setup: dict | None, reps: list[dict] | None) -> tuple[dict, dict, dict]:
    """(checks, end-to-end metrics, per-layer metrics) of one run."""
    import workloads

    e2e = dict.fromkeys(E2E_UNITS, 0.0)
    layers = {"final_loss": 0.0}
    checks = dict.fromkeys(workloads.CHECK_NAMES[args.workload], False)
    if setup is not None:
        e2e["setup_s"] = statistics.median(setup["setup_s"])
        for key, value in setup["calibration"].items():
            layers[f"calib.{key}"] = value
    if reps is None:
        return checks, e2e, layers

    plain = [r for r in reps if not r["traced"]]
    e2e["stage_s"] = statistics.median(r["stage_s"] for r in plain)
    e2e["tokens_per_s"] = statistics.median(r["tokens"] / r["stage_s"] for r in plain)
    e2e["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in plain)
    traced = [r for r in reps if r["traced"]]
    if traced:
        layers.update(median_rep(traced)["layers"])
        layers["trace.untraced_stage_s"] = e2e["stage_s"]
        layers["trace.overhead_s"] = layers["trace.stage_s"] - e2e["stage_s"]
    if any(r["exit_code"] != 0 for r in reps):
        return checks, e2e, layers

    first = reps[0]
    artifacts = {**first["fingerprints"], "encoded": first.get("encoded")}
    try:
        found, layers["final_loss"] = workloads.check(
            args.workload, args.seed, args.size, work / "inputs", work / "out0", artifacts
        )
        checks.update(found)
    except Exception as exc:  # a check that cannot run has failed
        print(f"output check raised {exc!r}", file=sys.stderr)
    checks["reps_agree"] = all(
        r["tokens"] == first["tokens"] and r["fingerprints"] == first["fingerprints"] for r in reps
    )
    return checks, e2e, layers


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full", help="tiny is for the self-test")
    parser.add_argument("--keep", action="store_true", help="keep the work directory with inputs and outputs")
    args = parser.parse_args()

    if not (SRC / "domainlm" / "cli.py").is_file():
        print(f"error: no domainlm sources under {SRC}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(SRC), str(HERE)]
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work = ROOT / ".bench_work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        setup = run_child("setup", "setup.json", args, work, deadline)
        reps = run_stages(args, work, deadline) if setup is not None else None
        checks, e2e, layers = evaluate(args, work, setup, reps)
    finally:
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)
    failed = sum(not ok for ok in checks.values())
    layers["error_rate"] = failed / len(checks)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "size": args.size, "dtype": workloads.DTYPES[args.workload], **source_identity(),
        "env": setup and setup["env"], "setup_s": setup and setup["setup_s"],
        "checks": checks, "e2e": e2e, "layers": layers,
        "reps": [{k: v for k, v in r.items() if k != "encoded"} for r in reps or []],
        "work": str(work) if args.keep else None,
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-s{args.seed}-trace{args.trace}.json").write_text(json.dumps(record), encoding="utf-8")

    reported = {k: (v, layer_unit(k)) for k, v in sorted(layers.items())} if args.trace else {
        k: (v, E2E_UNITS[k]) for k, v in e2e.items()
    }
    print(f"workload {args.workload} seed {args.seed} dtype {record['dtype']} commit {record['commit']} "
          f"source {record['source_sha256'][:12]} env {json.dumps(record['env'])}")
    for name, ok in checks.items():
        print(f"check {name}: {'ok' if ok else 'FAILED'}")
    for name, (value, unit) in reported.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": len(checks),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in reported.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
