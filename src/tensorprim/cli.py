"""Command line entry point: conformance verification, plan inspection,
approximation error reports and micro-benchmarks.

Exit codes: 0 all good, 1 a check failed, 2 usage error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from dataclasses import dataclass

from . import approx, bench, equation as eqn, verify
from .dtypes import DType
from .ops import InvalidSpecError
from .tensor import TensorDesc, TensorError


@dataclass
class RunConfig:
    fmt: str = "text"
    out: str | None = None


def _emit(config: RunConfig, text_lines: list[str], rows: list[dict]) -> None:
    if config.fmt == "text":
        payload = "\n".join(text_lines) + "\n"
    elif config.fmt == "json":
        payload = json.dumps(rows, indent=2, sort_keys=True, default=str) + "\n"
    elif config.fmt == "csv":
        buf = io.StringIO()
        keys = sorted({k for r in rows for k in r})
        w = csv.DictWriter(buf, fieldnames=keys)
        w.writeheader()
        for r in rows:
            w.writerow(r)
        payload = buf.getvalue()
    else:
        raise ValueError(f"unknown format {config.fmt}")
    if config.out:
        with open(config.out, "w") as f:
            f.write(payload)
    else:
        sys.stdout.write(payload)


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args: argparse.Namespace) -> int:
    config = RunConfig(args.format, args.out)
    only = args.only.split(",") if args.only else None
    try:
        with verify.inject_fault(args.inject_fault):
            results = verify.run_checks(only=only, seed=args.seed, max_nodes=args.max_nodes)
    except KeyError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2
    lines = [r.line() for r in results]
    npass = sum(r.passed for r in results)
    lines.append(f"{npass}/{len(results)} checks passed"
                 + (f" (fault injected: {args.inject_fault})" if args.inject_fault else ""))
    rows = [{"name": r.name, "passed": r.passed, "measured": str(r.measured),
             "budget": str(r.budget), "detail": r.detail} for r in results]
    _emit(config, lines, rows)
    return 0 if npass == len(results) else 1


# ---------------------------------------------------------------------------
# plan
# ---------------------------------------------------------------------------

def _shape_list(text: str) -> list[tuple[int, int]]:
    """argparse type of --args: '4x4,4x8,8x4' -> [(4, 4), (4, 8), (8, 4)]."""
    shapes = []
    for part in text.split(","):
        r, _, c = part.strip().partition("x")
        try:
            shapes.append((int(r), int(c)))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"expected shapes like '4x4,4x8', got {part.strip()!r}") from None
    return shapes


def _positive_int(text: str) -> int:
    """argparse type of --count and --repeats."""
    if not text.isdecimal() or int(text) < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return int(text)


def _parse_arg_descs(shapes: list[tuple[int, int]] | None, count_hint: int,
                     dtype: DType) -> list[TensorDesc]:
    """Per-slot descriptors from the --args shapes; unspecified slots default
    to 32x32."""
    descs = [TensorDesc(r, c, r, dtype) for r, c in shapes or ()]
    while len(descs) < count_hint:
        descs.append(TensorDesc(32, 32, 32, dtype))
    return descs


def cmd_plan(args: argparse.Namespace) -> int:
    config = RunConfig(args.format, args.out)
    # count the argument slots actually referenced by the equation text
    import re
    refs = [int(m) for m in re.findall(r"\bT(\d+)\b", args.equation)]
    nslots = (max(refs) + 1) if refs else 0
    dtype = DType(args.dtype)
    descs = _parse_arg_descs(args.args, nslots, dtype)
    try:
        plan = eqn.plan_equation(args.equation, descs)
    except eqn.ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except (eqn.EquationError, ValueError) as e:
        print(f"invalid equation: {e}", file=sys.stderr)
        return 2
    if args.dot:
        with open(args.dot, "w") as f:
            f.write(eqn.export_plan(plan, "dot") + "\n")
    doc = eqn.plan_to_dict(plan)
    lines = [f"equation: {args.equation}",
             f"root register score: {plan.tree.root.score}",
             f"temp slots: {plan.temp_count}   temp bytes: {plan.temp_bytes}"
             f"   naive bytes: {plan.naive_bytes}"]
    for s in doc["steps"]:
        lines.append(f"  t={s['t']} {s['op']:<10} v={s['score']} "
                     f"in={s['inputs']} out={s['output']} shape={s['shape']}")
    if config.fmt == "json":
        _emit(config, lines, [doc])
    else:
        _emit(config, lines, doc["steps"])
    return 0


# ---------------------------------------------------------------------------
# approx-report
# ---------------------------------------------------------------------------

def cmd_approx_report(args: argparse.Namespace) -> int:
    config = RunConfig(args.format, args.out)
    checks = ["approx-pade-tanh", "approx-minimax-tanh", "approx-exp-taylor",
              "approx-sigmoid-identity", "approx-bounds-monotonic"]
    results = verify.run_checks(only=checks, seed=args.seed)
    lines = [r.line() for r in results]
    rows = [{"name": r.name, "passed": r.passed, "measured": str(r.measured),
             "budget": str(r.budget)} for r in results]
    if args.coefficients:
        with open(args.coefficients, "w") as f:
            json.dump(approx.coefficient_tables(), f, indent=2, sort_keys=True)
        lines.append(f"coefficient tables written to {args.coefficients}")
    _emit(config, lines, rows)
    return 0 if all(r.passed for r in results) else 1


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def cmd_bench(args: argparse.Namespace) -> int:
    config = RunConfig(args.format, args.out)
    m, n, k = args.m, args.n, args.k
    results: list[bench.BenchResult] = []
    if args.op == "brgemm":
        results.append(bench.bench_brgemm(m, n, k, args.count, DType(args.dtype),
                                          args.repeats, args.seed))
    if args.op == "all":
        results.extend(bench.bench_brgemm(m, n, k, args.count, dtype, args.repeats,
                                          args.seed, layout, path)
                       for dtype, layout, path in bench.BRGEMM_PATHS)
    if args.op in ("fc", "all"):
        results.append(bench.bench_fc(repeats=args.repeats, seed=args.seed))
    if args.op in ("softmax", "all"):
        results.extend(bench.bench_softmax(repeats=args.repeats, seed=args.seed))
    rows = [r.row() for r in results]
    lines = [f"{r.name}: median {r.median_s * 1e3:.3f} ms, min {r.min_s * 1e3:.3f} ms"
             + (f", {r.gflops:.2f} GFLOP/s" if r.gflops == r.gflops else "")
             + (f", scratch fused/naive = {r.extra['plan_temp_bytes']}/"
                f"{r.extra['naive_temp_bytes']}" if "plan_temp_bytes" in r.extra else "")
             for r in results]
    _emit(config, lines, rows)
    return 0


# ---------------------------------------------------------------------------
# main
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Reports a usage error in one stderr line and exits 2."""

    def error(self, message: str):
        self.exit(2, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(prog="tensorprim",
                description="2D tensor primitive kernels: verification, "
                            "plan inspection and benchmarks")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--format", choices=["text", "json", "csv"], default="text")
        sp.add_argument("--out", default=None, help="write the report to a file")

    v = sub.add_parser("verify", help="run the property/invariant suites")
    common(v)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--only", default=None,
                   help="comma-separated check names (see docs); default all")
    v.add_argument("--max-nodes", type=int, default=None,
                   help="cap for the planner brute-force oracle")
    v.add_argument("--inject-fault", choices=verify.FAULTS, default=None,
                   help="test-only negative control: flip the reduction order, "
                        "or reverse the contraction's k loop or batch fold")
    v.set_defaults(fn=cmd_verify)

    pl = sub.add_parser("plan", help="score, plan and dump an equation")
    common(pl)
    pl.add_argument("equation", help="e.g. 'tanh(T0) + (T1 matmul T2) / (T3 - T4)'")
    pl.add_argument("--args", type=_shape_list, default=None,
                    help="per-slot shapes, e.g. '4x4,4x8,8x4'")
    pl.add_argument("--dtype", choices=[d.value for d in
                                        (DType.FP32, DType.FP64)], default="fp32")
    pl.add_argument("--dot", default=None, help="write a DOT rendering to this path")
    pl.set_defaults(fn=cmd_plan)

    ar = sub.add_parser("approx-report", help="approximation error report")
    common(ar)
    ar.add_argument("--seed", type=int, default=0)
    ar.add_argument("--coefficients", default=None,
                    help="dump the fitted coefficient tables as JSON to this path")
    ar.set_defaults(fn=cmd_approx_report)

    b = sub.add_parser("bench", help="micro-benchmarks")
    common(b)
    b.add_argument("--seed", type=int, default=0)
    b.add_argument("--op", choices=["brgemm", "fc", "softmax", "all"], default="all")
    b.add_argument("--m", type=int, default=64)
    b.add_argument("--n", type=int, default=64)
    b.add_argument("--k", type=int, default=64)
    b.add_argument("--count", type=_positive_int, default=16)
    b.add_argument("--dtype", choices=["fp32", "bf16"], default="fp32")
    b.add_argument("--repeats", type=_positive_int, default=5)
    b.set_defaults(fn=cmd_bench)
    return p


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except BrokenPipeError:
        return 0
    except (TensorError, InvalidSpecError, eqn.EquationError) as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
