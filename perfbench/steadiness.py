"""Run-to-run steadiness of the benchmark's end-to-end metrics.

Runs ``perfbench/run.py`` with tracing off once per seed for each workload,
one run at a time, and reports each metric's median, quartiles and quartile spread (the
distance between the first and third quartile as a share of the median)
next to the bound ``BENCHMARK.json`` fixes for it.  Run from the root of a
source checkout:

    python3 perfbench/steadiness.py --runs 10 --out perfbench/steadiness.json
    python3 perfbench/steadiness.py --workloads eqn_cold --runs 5 --first-seed 100
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

import run

ROOT = Path(__file__).resolve().parent.parent


def run_once(cmd: list[str], workload: str, seed: int, seconds: int) -> dict:
    out = subprocess.run([*cmd, "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def environment() -> dict:
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    return {**run.environment(), "commit": commit}


def summarise(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf"), "values": values}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workloads", nargs="*", default=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=bench["run_seconds"])
    ap.add_argument("--out", type=Path, help="also write the summary as JSON here")
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"environment": environment(), "seeds": [args.first_seed, args.first_seed + args.runs - 1],
              "run_seconds": args.seconds, "workloads": {}}
    worst_ok = True
    for workload in args.workloads:
        runs = [run_once(bench["command"], workload, args.first_seed + r, args.seconds)
                for r in range(args.runs)]
        correct = all(r["correct"] and r["failed"] == 0 for r in runs)
        report["workloads"][workload] = {"correct": correct, "metrics": {}}
        for name in runs[0]["metrics"]:
            s = summarise([r["metrics"][name]["value"] for r in runs])
            report["workloads"][workload]["metrics"][name] = s
            bound = bounds.get(name)
            flag = ""
            if bound is not None and s["spread"] > bound / 3:
                flag = "  <-- spread above a third of the bound"
                worst_ok = False
            print(f"{workload:14s} {name:32s} median {s['median']:12.5g}  "
                  f"q1 {s['q1']:12.5g}  q3 {s['q3']:12.5g}  spread {s['spread']:7.4f}"
                  + (f"  bound {bound}" if bound is not None else "") + flag, flush=True)
        worst_ok &= correct
        if not correct:
            print(f"{workload}: a run failed its correctness gate", flush=True)
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0 if worst_ok else 1


if __name__ == "__main__":
    sys.exit(main())
