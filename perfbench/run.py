"""tensorprim benchmark: one workload, one closed-loop caller, one thread.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 18 --trace 0

The caller runs one step after another with no think time.  Before timing,
every distinct step is run once and checked against an independent numpy
oracle, and the default-seed inputs are run once and their output digests
compared with the ones recorded in ``perfbench/digests.json`` (in a fresh
process when ``--seed`` is another seed, so the measured process holds only
the workload under test).  During timing
every step's output digest must equal the one its first run produced; a
step that raises or differs counts as failed.

Step and set-up times are normalised by a library-free reference probe run
around each of them (see ``speed.py``): they read as milliseconds at a fixed
machine speed, which keeps neighbours on a shared machine from moving them.
The raw wall times are printed to standard error.

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
times the steps untraced for half the run and under the outside-in tracer
for the other half, and prints the per-layer metrics plus the tracing
overhead; its spans go to ``.perfbench_out/<workload>.spans.jsonl.gz``.

The last line of standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# one thread: no BLAS or OpenMP pool may start behind numpy's back
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402  (after the thread settings)

import workloads  # noqa: E402
from speed import REFERENCE_S, reference_probe  # noqa: E402
from workloads import GateError, digest  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
DEFAULT_SEED = 0
MIN_STEPS = 100           # p90 needs at least ten samples beyond it
SETUP_PROBES = 15         # fresh processes per run; setup_s is their median
SPEED_PROBES = 5          # reference probes before, between and after the set-up parts
EXTRA_SECONDS = 40        # a slow machine may run this long past --seconds


def import_library():
    if not (SRC / "tensorprim" / "__init__.py").is_file():
        sys.exit(f"perfbench: no tensorprim sources at {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import tensorprim
    return tensorprim


def setup_probe(args) -> None:
    """In a fresh process: time ``import tensorprim`` and the first, untimed
    step (input generation excluded), and print both with the normalised
    set-up time: each part scaled by the reference probes run just before
    and just after it, since the machine's speed can change between them."""
    def speed() -> float:
        return statistics.median(reference_probe() for _ in range(SPEED_PROBES))

    before = speed()
    t0 = time.perf_counter()
    tp = import_library()
    t1 = time.perf_counter()
    w = workloads.WORKLOADS[args.workload](tp, args.seed)
    between = speed()
    t2 = time.perf_counter()
    w.step(0)
    t3 = time.perf_counter()
    after = speed()
    norm = ((t1 - t0) / (before + between) + (t3 - t2) / (between + after)) * 2 * REFERENCE_S
    print(json.dumps({"import_s": t1 - t0, "first_step_s": t3 - t2, "norm_s": norm}))


def measure_setup(args) -> tuple[float, float]:
    """Median over fresh processes of the set-up time, normalised and raw."""
    norm, raw = [], []
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    for _ in range(SETUP_PROBES):
        out = subprocess.run(cmd, capture_output=True, text=True, timeout=60, check=True)
        probe = json.loads(out.stdout.strip().splitlines()[-1])
        raw.append(probe["import_s"] + probe["first_step_s"])
        norm.append(probe["norm_s"])
    return statistics.median(norm), statistics.median(raw)


def recorded_digests() -> dict:
    return json.loads((HERE / "digests.json").read_text())


def digest_probe(args) -> None:
    """In a fresh process: print the default-seed digests of each distinct step."""
    tp = import_library()
    print(json.dumps(first_digests(workloads.WORKLOADS[args.workload](tp, DEFAULT_SEED))))


def default_seed_digests(workload: str) -> list[str]:
    out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--digest-probe",
                          "--workload", workload], capture_output=True, text=True,
                         timeout=120, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def first_digests(w) -> list[str]:
    """Run each distinct step once, in order, and digest its outputs."""
    out = []
    for i in range(w.n_keys):
        w.step(i)
        out.append(digest(w.outputs(i)))
    return out


def gate(w, seed: int) -> tuple[list[str], list[str], bool]:
    """The correctness gate before timing: every distinct step against the
    oracle, and the default-seed outputs against their recorded digests.
    Returns the digest of each distinct step, the problems found, and
    whether the program's default-seed output bits changed."""
    problems = []
    expected = []
    for i in range(w.n_keys):
        w.step(i)
        expected.append(digest(w.outputs(i)))
        try:
            w.check(i)
        except GateError as e:
            problems.append(f"oracle: {e}")
    got = expected if seed == DEFAULT_SEED else default_seed_digests(w.name)
    changed = got != recorded_digests()[w.name]
    if changed:
        problems.append("default-seed outputs differ from perfbench/digests.json")
    return expected, problems, changed


def timed_loop(w, expected: list[str], seconds: float, min_steps: int, first: int = 0,
               log=sys.stderr) -> tuple[list[tuple[float, float]], int, int]:
    """Closed loop: each step starts when the previous one ends.  Returns
    (step wall time, mean wall time of the reference probes just before and
    just after it) for every step that returned, the number of steps
    attempted and the number failed (raised, or output digest differing
    from ``expected``)."""
    steps: list[tuple[float, float]] = []
    attempted = failed = 0
    clock = time.perf_counter
    start = clock()
    before = reference_probe()
    while True:
        elapsed = clock() - start
        if (elapsed >= seconds and attempted >= min_steps) \
                or elapsed >= seconds + EXTRA_SECONDS:
            break
        i = first + attempted
        attempted += 1
        t0 = clock()
        try:
            w.step(i)
        except Exception:
            failed += 1
            if failed == 1:
                traceback.print_exc(file=log)
            continue
        wall = clock() - t0
        after = reference_probe()
        steps.append((wall, (before + after) / 2))
        before = after
        if digest(w.outputs(i)) != expected[w.key(i)]:
            failed += 1
            if failed == 1:
                print(f"perfbench: step {i} output differs from its first run", file=log)
    return steps, attempted, failed


def normalised(steps: list[tuple[float, float]]) -> list[float]:
    return [t * REFERENCE_S / probe for t, probe in steps]


def p50_ms(times: list[float]) -> float:
    return statistics.median(times) * 1e3 if times else float("nan")


def p90_ms(times: list[float]) -> float:
    if len(times) < 2:
        return float("nan")
    return statistics.quantiles(times, n=10, method="inclusive")[8] * 1e3


def environment() -> dict:
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "cpu_count": os.cpu_count()}


def run(args) -> dict:
    tp = import_library()
    setup_s, raw_setup_s = measure_setup(args) if not args.trace else (None, None)
    w = workloads.WORKLOADS[args.workload](tp, args.seed)
    expected, problems, changed = gate(w, args.seed)
    if changed:
        expected = [""] * w.n_keys  # the program's output bits changed: every step fails
    first = w.n_keys

    if not args.trace:
        steps, attempted, failed = timed_loop(w, expected, args.seconds, MIN_STEPS, first)
        times = normalised(steps)
        raw = [t for t, _ in steps]
        print(f"perfbench: {args.workload}: raw wall step_p50 {p50_ms(raw):.3f} ms, "
              f"step_p90 {p90_ms(raw):.3f} ms, setup {raw_setup_s:.4f} s; reference probe "
              f"p50 {p50_ms([p for _, p in steps]):.4f} ms; {len(times)} samples",
              file=sys.stderr)
        metrics = {
            "step_p50_ms": p50_ms(times),
            "step_p90_ms": p90_ms(times),
            "steps_per_s": len(times) / sum(times) if times else 0.0,
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "ok_frac": (attempted - failed) / attempted,
        }
    else:
        from tracer import Tracer, layer_metrics

        half = args.seconds / 2
        plain, a1, f1 = timed_loop(w, expected, half, MIN_STEPS // 5, first)
        tracer = Tracer()
        with tracer:
            traced, a2, f2 = timed_loop(w, expected, half, MIN_STEPS // 5, first + a1)
        attempted, failed = a1 + a2, f1 + f2
        metrics = layer_metrics(tracer, len(traced))
        metrics["trace.overhead_frac"] = (p50_ms(normalised(traced))
                                          / p50_ms(normalised(plain)) - 1.0)
        seen = {span[0] for span in tracer.spans}
        problems += [f"tracer saw no {layer} calls"
                     for layer in w.layers if layer not in seen]
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(OUT_DIR / f"{args.workload}.spans.jsonl.gz")

    for p in problems:
        print(f"perfbench: {args.workload}: {p}", file=sys.stderr)
    units = {m["name"]: m["unit"] for kind in ("end_to_end", "per_layer")
             for m in json.loads((ROOT / "BENCHMARK.json").read_text())[kind]}
    return {"correct": not problems, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--digest-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe or args.digest_probe:
        (setup_probe if args.setup_probe else digest_probe)(args)
        return 0
    result = run(args)
    print(json.dumps({"workload": args.workload, "seed": args.seed, **environment()}),
          file=sys.stderr)
    for name, m in result["metrics"].items():
        print(f"{args.workload:14s} {name:40s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
