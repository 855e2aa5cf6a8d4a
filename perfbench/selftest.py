"""Self-test of the benchmark at tiny sizes; exits non-zero if anything fails.

    python3 perfbench/selftest.py

For every workload it checks that
- the metric names and units printed equal those declared in BENCHMARK.json,
  with tracing off and on, and that every output check passes;
- the same seed run twice gives identical final_loss, tokenizer.merges,
  autodiff.tape_nodes and analysis.clusters;
- the traced self times plus cli.self_s add up to the traced stage time;
- a corrupted output fails a check, so error_rate rises above 0.
"""

from __future__ import annotations

import csv
import json
import math
import shutil
import subprocess
import sys
from argparse import Namespace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import SELF_TIME_METRICS  # noqa: E402

SEED = 3
failures: list[str] = []


def expect(ok: bool, message: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {message}")
    if not ok:
        failures.append(message)


def bench(workload: str, trace: int, *extra: str) -> tuple[dict, dict]:
    """Run the benchmark at tiny size; (last-line result, full record)."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(SEED),
               "--seconds", "0", "--trace", str(trace), "--size", "tiny", *extra]
    proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise RuntimeError(f"{command} exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = json.loads((ROOT / ".bench_out" / f"{workload}-s{SEED}-trace{trace}.json").read_text())
    return result, record


def corrupt(workload: str, work: Path, reps: list[dict]) -> None:
    """Damage one output of the stage so that one check must fail."""
    out = work / "out0"
    if workload == "pretrain":
        path = out / "loss_history.csv"
        rows = list(csv.reader(path.open()))
        rows[-1][-1] = "nan"
        with path.open("w", newline="") as handle:
            csv.writer(handle).writerows(rows)
    elif workload == "finetune":
        path = out / "metrics.json"
        path.write_text(json.dumps({**json.loads(path.read_text()), "accuracy": 0.5}))
    elif workload == "tokenizer":
        first = reps[0]["encoded"][0]
        first.append(first[-1])
    else:
        path = out / "projection.csv"
        path.write_text("".join(path.read_text().splitlines(keepends=True)[:-1]))


def main() -> int:
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in declared["end_to_end"]}
    layers = {m["name"]: m["unit"] for m in declared["per_layer"]}
    expect([w["name"] for w in declared["workloads"]] == list(workloads.WORKLOADS),
           "declared workloads equal the benchmark's workloads")

    for workload in workloads.WORKLOADS:
        plain, record = bench(workload, 0, "--keep")
        expect({k: v["unit"] for k, v in plain["metrics"].items()} == e2e,
               f"{workload}: end-to-end names and units match BENCHMARK.json")
        expect(plain["correct"] and plain["failed"] == 0, f"{workload}: every output check passes")

        work = Path(record["work"])
        reps = [json.loads((work / f"stage{i}.json").read_text()) for i in range(len(record["reps"]))]
        setup = json.loads((work / "setup.json").read_text())
        corrupt(workload, work, reps)
        args = Namespace(workload=workload, seed=SEED, size="tiny")
        checks, _, _ = run.evaluate(args, work, setup, reps)
        shutil.rmtree(work)
        error_rate = sum(not ok for ok in checks.values()) / len(checks)
        expect(error_rate > 0, f"{workload}: a corrupted output raises error_rate to {error_rate:.2f}")

        traced = [bench(workload, 1) for _ in range(2)]
        first, second = (r for _, r in traced)
        expect({k: v["unit"] for k, v in traced[0][0]["metrics"].items()} == layers,
               f"{workload}: per-layer names and units match BENCHMARK.json")
        same = [
            first["layers"][k] == second["layers"][k]
            for k in ("final_loss", "tokenizer.merges", "autodiff.tape_nodes", "analysis.clusters")
        ]
        expect(all(same), f"{workload}: the same seed repeats final_loss and the layer counts")
        parts = sum(first["layers"][m] for m in SELF_TIME_METRICS.values())
        expect(math.isclose(parts, first["layers"]["trace.stage_s"], rel_tol=1e-9),
               f"{workload}: self times sum to the traced stage time")

    print(f"{len(failures)} failure(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
