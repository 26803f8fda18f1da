#!/usr/bin/env python3
"""tropfan benchmark: whole CLI commands on seeded workloads.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload variety|basis|intersect \
        --seed N --seconds S --trace 0|1

Load is a closed loop with one client: one command at a time, each in a fresh
interpreter (child.py), as a CLI user runs it, so no cache state carries from
one command to the next. A pass runs every command of the workload once, in
order; another pass starts only if the time spent in the commands'
processes is expected to stay within --seconds, so there is at least one.
Each command's time is its median over the passes, and the end-to-end
metrics are computed from those medians.

The seed picks a random permutation of the variable order of every ideal file
and --vars list, and the --seed of each stable-intersection. Coefficients and
supports stay fixed. Every output is mapped back to the identity variable
order, re-canonicalized through cycle_from_dict/cycle_to_dict and compared
byte for byte with references.json; a mismatch counts as a failed command.

With --trace 1 the first pass runs untraced and the later passes traced
(tracer.py); the result then holds the per-layer metrics, the tracing
overhead and the host-speed probe. The last line of stdout is the JSON
result in every mode.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
CHILD = BENCH / "child.py"
REFERENCES = BENCH / "references.json"
WORK = ROOT / ".perfbench_work"
TRACES = ROOT / ".perfbench_out"

# A run must exit within 180 s: no command runs past this many seconds.
HARD_LIMIT_S = 165.0

# PRIME_CORPUS of tropfan.corpus, copied so that the workload stays fixed
# when the package's corpus changes.
CORPUS = (
    ("line2", "xy", ("x+y+1",)),
    ("plane3", "xyz", ("x+y+z",)),
    ("linear_pair4", "xyzw", ("x+y+z+w", "x+2*y+3*w")),
    ("hyperbola", "xy", ("x*y-1",)),
    ("quadric_cone", "xyz", ("x*y-z^2",)),
    ("toric_cubic", "xyz", ("x^2*y-z^3",)),
    ("fermat_cubic", "xy", ("x^3+y^3+1",)),
    ("elliptic", "xy", ("y^2-x^3+x",)),
    ("plane_in_3", "xyz", ("x+y+z+1",)),
    ("space_conic", "xyzw", ("x+2*y+3*z+5*w", "x*y-z*w")),
)
LINEAR5 = ("linear5", "abcde", ("a+b+c+d+e", "a+2*b+3*c+5*d+7*e"))
CURVE3 = ("curve3", "xyz", ("x+y+z+1", "x*y*z-1"))
TWISTED_CUBIC = ("twisted_cubic", "xyz", ("y-x^2", "z-x^3", "x*z-y^2"))
LINE_CONIC = ("line_conic", "xyz", ("x+y+z", "x^2+y^2+z^2"))
SPACE_CONIC = CORPUS[-1]

HYPERSURFACES = (
    ("A4", "xyzw", "x*y+z*w+x*z+y*w+x^2+w^2+y^2*z+1"),
    ("B4", "xyzw", "x^2*y+y^2*z+z^2*w+w^2*x+x*y*z+y*z*w+1"),
    ("C4", "xyzw", "x^3+y^3+z^3+w^3+x*y*z*w+x*y+z*w+1"),
    ("A5", "abcde", "a*b+c*d+e*a+b*c+d*e+a^2+e^2+1"),
    ("B5", "abcde", "a^2*b+b^2*c+c^2*d+d^2*e+e^2*a+a*b*c*d*e+1"),
)
INTERSECTIONS = (("A4B4", "A4", "B4"), ("A4B4C4", "A4B4", "C4"),
                 ("A5B5", "A5", "B5"))

WORKLOADS = ("variety", "basis", "intersect")

# name -> unit; all "better": "lower" except ok_ratio.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "op_geomean_s": "s",
    "max_op_s": "s",
    "peak_rss_mb": "MB",
    "ok_ratio": "ratio",
}


@dataclass
class Op:
    """One CLI command of a workload and how to check its output."""

    name: str
    argv: list
    kind: str                 # "cycle", "fan" or "text"
    variables: str = ""       # identity order of the output coordinates
    order: str = ""           # the order the command was given
    save_as: str | None = None


def build_ops(workload: str, seed: int | None):
    """The commands of one pass and the input files they read.

    seed None gives the identity variable orders and displacement seed 0,
    which is how references.json was made.
    """
    rng = random.Random(seed)
    files = {}

    def order_of(variables):
        if seed is None:
            return variables
        return "".join(rng.sample(variables, len(variables)))

    def ideal_file(name, variables, gens):
        order = order_of(variables)
        files[f"{name}.ideal"] = (f"vars: {','.join(order)}\n"
                                  + "".join(g + "\n" for g in gens))
        return order

    ops = []
    if workload == "variety":
        for name, variables, gens in CORPUS + (LINEAR5, CURVE3, TWISTED_CUBIC):
            order = ideal_file(name, variables, gens)
            ops.append(Op(name, ["variety", f"{name}.ideal", "--format", "json"],
                          "cycle", variables, order))
    elif workload == "basis":
        for name, variables, gens in (LINE_CONIC, TWISTED_CUBIC, SPACE_CONIC,
                                      CURVE3):
            ideal_file(name, variables, gens)
            ops.append(Op(name, ["is-tropical-basis", f"{name}.ideal"], "text"))
    elif workload == "intersect":
        # cycles that are intersected must share one coordinate order
        orders = {v: order_of(v) for v in ("xyzw", "abcde")}
        polys = {}
        for label, variables, poly in HYPERSURFACES:
            polys[label] = poly
            order = orders[variables]
            ops.append(Op(f"hyp_{label}",
                          ["hypersurface", poly, "--vars", ",".join(order),
                           "--format", "json"],
                          "cycle", variables, order, f"{label}.json"))
        for label, a, b in INTERSECTIONS:
            variables = "abcde" if label.endswith("5") else "xyzw"
            displacement = 0 if seed is None else rng.randrange(10 ** 6)
            ops.append(Op(f"si_{label}",
                          ["stable-intersection", f"{a}.json", f"{b}.json",
                           "--format", "json", "--seed", str(displacement)],
                          "cycle", variables, orders[variables],
                          f"{label}.json"))
        ops.append(Op("bal_A5B5", ["is-balanced", "A5B5.json"], "text"))
        order = ideal_file("A4B4", "xyzw", (polys["A4"], polys["B4"]))
        ops.append(Op("pv_A4B4", ["prevariety", "A4B4.ideal", "--format", "json"],
                      "fan", "xyzw", order))
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops, files


def canonical(op: Op, text: str) -> str:
    """The output in the identity variable order, re-canonicalized."""
    if op.kind == "text":
        return text
    from tropfan.cli import dumps_canonical
    from tropfan.cycles import cycle_from_dict, cycle_to_dict, fan_to_dict
    data = json.loads(text)
    where = [op.order.index(v) for v in op.variables]
    for field in ("rays", "lineality"):
        data[field] = [[col[i] for i in where] for col in data[field]]
    obj = cycle_from_dict(data, require_weights=op.kind == "cycle")
    if op.kind == "fan":
        return dumps_canonical(fan_to_dict(obj, data["convention"]))
    return dumps_canonical(cycle_to_dict(obj))


def check_output(op: Op, text: str, reference: str) -> str | None:
    """None when the output matches the reference, else the problem."""
    from tropfan.errors import TropfanError
    try:
        if canonical(op, text) != reference:
            return "output differs from the reference"
    except (ValueError, KeyError, TypeError, IndexError, TropfanError) as e:
        return f"unreadable output: {e!r}"
    return None


@dataclass
class Result:
    op: str
    setup_s: float | None
    op_s: float
    elapsed_s: float          # the child process, start to exit
    maxrss_kb: int
    ok: bool
    problem: str | None
    layers: dict | None


def run_child(op: Op, workdir: Path, trace: bool, spans: Path | None,
              timeout: float):
    """Run one command in a fresh interpreter: (record or None, problem)."""
    spec = json.dumps({"argv": op.argv, "trace": trace,
                       "spans": str(spans) if spans else None})
    env = dict(os.environ, PYTHONPATH=str(SRC))
    # an installed package has its bytecode cached; let the children cache it
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    try:
        proc = subprocess.run([sys.executable, str(CHILD), spec],
                              cwd=workdir, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {timeout:.0f} s"
    lines = proc.stdout.splitlines()
    try:
        return json.loads(lines[-1]), None
    except (IndexError, ValueError):
        return None, (f"child exited {proc.returncode} without a record: "
                      f"{proc.stderr.strip()[-400:]}")


def run_op(op: Op, reference: str, workdir: Path, trace: bool,
           spans: Path | None, timeout: float, checked: dict) -> Result:
    """Run and check one command; `checked` memoizes the verdict on each
    distinct output, since re-canonicalizing costs as much as some commands."""
    started = time.perf_counter()
    record, problem = run_child(op, workdir, trace, spans, timeout)
    elapsed = time.perf_counter() - started
    if record is None:
        return Result(op.name, None, elapsed, elapsed, 0, False, problem, None)
    if record["error"] is not None:
        problem = record["error"].strip().splitlines()[-1]
    elif record["rc"] != 0:
        problem = f"exit code {record['rc']}: {record['stderr'].strip()}"
    else:
        key = (op.name, record["stdout"])
        if key not in checked:
            checked[key] = check_output(op, record["stdout"], reference)
        problem = checked[key]
    if op.save_as is not None:
        (workdir / op.save_as).write_text(record["stdout"], encoding="utf-8")
    return Result(op.name, record["setup_s"], record["op_s"], elapsed,
                  record["maxrss_kb"], problem is None, problem,
                  record.get("layers"))


def end_to_end(passes) -> dict:
    """End-to-end metrics of untraced passes. Each command's time is its
    median over the passes; the pass-level figures are taken from those."""
    by_op = {}
    for results in passes:
        for r in results:
            by_op.setdefault(r.op, []).append(r.op_s)
    times = [statistics.median(ts) for ts in by_op.values()]
    setups = [r.setup_s for results in passes for r in results
              if r.setup_s is not None]
    return {
        "setup_s": statistics.median(setups) if setups else math.nan,
        "wall_s": sum(times),
        "op_geomean_s": math.exp(statistics.fmean(
            math.log(max(t, 1e-9)) for t in times)),
        "max_op_s": max(times),
        "peak_rss_mb": statistics.median(
            max(r.maxrss_kb for r in results) for results in passes) / 1024,
    }


def host_loop_s() -> float:
    """Time of a fixed pure-Python loop: a probe of host speed drift. It is
    reported for diagnosis only and never used to normalize a metric."""
    started = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i % 7
    return time.perf_counter() - started


def run_passes(ops, references, workdir: Path, seconds: float, trace: bool,
               trace_dir: Path):
    """Closed loop over passes: [(traced, results)]. `seconds` budgets the
    time spent in the commands' processes, not in checking their outputs.
    Another pass starts only if it is expected to fit, judged by the last
    pass; with tracing, the first pass is untraced and one traced pass runs."""
    hard_deadline = time.perf_counter() + HARD_LIMIT_S
    checked = {}
    passes = []
    spent = 0.0
    while True:
        traced = trace and bool(passes)
        results = []
        for op in ops:
            remaining = hard_deadline - time.perf_counter()
            if remaining <= 0:
                results.append(Result(op.name, None, 0.0, 0.0, 0, False,
                                       "not run: time limit", None))
                continue
            spans = (trace_dir / f"pass{len(passes)}-{op.name}.jsonl.gz"
                     if traced else None)
            results.append(run_op(op, references[op.name], workdir, traced,
                                  spans, remaining, checked))
        passes.append((traced, results))
        last = sum(r.elapsed_s for r in results)
        spent += last
        if trace and not traced:
            continue
        if spent + last > seconds or \
                time.perf_counter() + last > hard_deadline:
            return passes


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    references = json.loads(REFERENCES.read_text(encoding="utf-8"))[workload]
    ops, files = build_ops(workload, seed)
    probe_start = host_loop_s()
    workdir = WORK / f"run-{os.getpid()}"
    trace_dir = TRACES / f"{workload}-seed{seed}"
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        for name, text in files.items():
            (workdir / name).write_text(text, encoding="utf-8")
        passes = run_passes(ops, references, workdir, seconds, trace,
                            trace_dir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()
    probe_end = host_loop_s()

    all_results = [r for _, results in passes for r in results]
    failed = [r for r in all_results if not r.ok]
    for r in failed:
        print(f"FAILED {workload}/{r.op} (seed {seed}): {r.problem}",
              file=sys.stderr)
    print(f"host loop: {probe_start:.4f} s at start, {probe_end:.4f} s at end;"
          f" {len(passes)} passes", file=sys.stderr)
    for op in ops:
        times = [r.op_s for r in all_results if r.op == op.name]
        print(f"  {op.name:16s} median {statistics.median(times):9.4f} s",
              file=sys.stderr)

    untraced = end_to_end([rs for t, rs in passes if not t])
    if not trace:
        untraced["ok_ratio"] = 1 - len(failed) / len(all_results)
        metrics = {k: (untraced[k], unit) for k, unit in END_TO_END.items()}
    else:
        per_pass = []
        for results in (rs for t, rs in passes if t):
            raw = {}
            for r in results:
                for k, v in (r.layers or {}).items():
                    raw[k] = raw.get(k, 0) + v
            per_pass.append(tracer.layer_metrics(raw))
        metrics = {k: (statistics.median(m[k][0] for m in per_pass), unit)
                   for k, (_, unit) in per_pass[0].items()}
        traced_wall = end_to_end([rs for t, rs in passes if t])["wall_s"]
        metrics["trace.untraced_wall_s"] = (untraced["wall_s"], "s")
        metrics["trace.traced_wall_s"] = (traced_wall, "s")
        metrics["trace.overhead_ratio"] = (traced_wall / untraced["wall_s"],
                                           "ratio")
        metrics["host.loop_start_s"] = (probe_start, "s")
        metrics["host.loop_end_s"] = (probe_end, "s")
        print(f"spans written to {trace_dir}", file=sys.stderr)

    for name, (value, unit) in metrics.items():
        print(f"{name:44s} {value:14.6f} {unit}")
    return {
        "correct": not failed,
        "attempted": len(all_results),
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "tropfan" / "cli.py").is_file():
        print(f"error: no tropfan sources under {SRC}; run from the root of "
              "a tropfan checkout", file=sys.stderr)
        return 2
    if not REFERENCES.is_file():
        print(f"error: missing {REFERENCES}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
