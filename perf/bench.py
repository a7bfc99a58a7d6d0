#!/usr/bin/env python3
"""The repository's benchmark.  One command::

    python3 perf/bench.py [--workload NAME] [--seed N] [--seconds S]
                          [--cycles N] [--trace 0|1] [--out FILE]

runs the named workload (default: all six) against the library's public
API, checks every run's outputs, prints every metric by name and unit,
and ends its standard output with one JSON object.  Other modes:
``--layers`` (micro-benchmarks only), ``--smoke`` (every workload at its
smallest size, every check, seconds), ``--compare A.json B.json`` and
``--surface`` (the library symbols the benchmark holds a refactor to).

Each workload runs in a fresh child process with ``PYTHONHASHSEED=0``;
``setup_s`` is measured by starting further fresh children.  See
``perf/README.md`` for the protocol and the glossary.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from typing import Dict, List, Optional, Sequence

_HERE = os.path.dirname(os.path.abspath(__file__))
_ROOT = os.path.dirname(_HERE)
# Run as a script, sys.path[0] is perf/ itself, which would let
# perf/trace.py shadow the standard library's ``trace``; import the
# package through the repository root instead.
sys.path[:] = [p for p in sys.path if os.path.abspath(p or ".") != _HERE]
sys.path.insert(0, _ROOT)

from perf.calibrate import calibration_loop, factor  # noqa: E402
from perf.metrics import (E2E_BY_NAME, END_TO_END, PER_LAYER,  # noqa: E402
                          PER_LAYER_BY_NAME)
from perf.stats import spread  # noqa: E402
from perf.workloads import BY_NAME, WORKLOADS  # noqa: E402

SCHEMA = "perf-bench/1"
CHILD_TIMEOUT_S = 170
#: Exit status of a worker that ran to the end but failed a check (a
#: crashed worker exits with the interpreter's 1 and prints no result).
EXIT_INCORRECT = 3
#: Fresh children timed for ``setup_s`` (the median is reported).
SETUP_CHILDREN = 5


def manifest() -> dict:
    with open(os.path.join(_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


# -- children ------------------------------------------------------------------

def _child_command(mode: str, workload: str, args: argparse.Namespace
                   ) -> List[str]:
    command = [sys.executable, os.path.abspath(__file__), "--child", mode,
               "--workload", workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds)]
    if args.cycles is not None:
        command += ["--cycles", str(args.cycles)]
    if args.out:
        command += ["--out", args.out]
    return command


def _spawn(command: Sequence[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONHASHSEED="0")
    return subprocess.run(command, env=env, stdout=subprocess.PIPE,
                          timeout=CHILD_TIMEOUT_S, text=True)


def run_child(mode: str, workload: str, args: argparse.Namespace) -> dict:
    """Run one worker child to completion and parse its last line."""
    done = _spawn(_child_command(mode, workload, args))
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, EXIT_INCORRECT) or not lines:
        raise RuntimeError(
            f"{mode} child for {workload} exited {done.returncode}")
    return json.loads(lines[-1])


def measure_setup(workload: str, args: argparse.Namespace) -> dict:
    """``setup_s``: interpreter start + ``import repro`` + one
    ``Database.with_workload``, in fresh children, each bracketed by the
    calibration loop; median calibrated seconds."""
    loops = [calibration_loop()]
    walls: List[float] = []
    for _ in range(SETUP_CHILDREN):
        start = time.perf_counter()
        done = _spawn(_child_command("setup", workload, args))
        walls.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise RuntimeError(f"setup child for {workload} exited "
                               f"{done.returncode}")
        loops.append(calibration_loop())
    values = [wall * factor(loops[i:i + 2]) for i, wall in enumerate(walls)]
    median, q1, q3 = spread(values)
    spec = E2E_BY_NAME["setup_s"]
    return {"value": median, "unit": spec.unit, "q1": q1, "q3": q3,
            "n": len(values), "kind": spec.kind}


def child_main(args: argparse.Namespace) -> int:
    """Entry point of a worker child: everything that touches ``repro``
    happens here, never in the parent."""
    from perf import adapter, layers, runner

    workload = BY_NAME[args.workload]
    if args.child == "setup":
        adapter.setup_once(workload, workload.variant_seed(args.seed, 0))
        return 0
    if args.child == "layers":
        print(json.dumps({"per_layer": layers.micro_metrics(args.seed)}))
        return 0
    if args.child == "smoke":
        small = workload.smoke()
        cycle = [runner.run_rep(small, args.seed, 0, deep=True,
                                calibrate=False)]
        result = runner.summarize(small, [cycle])
        print(json.dumps(result))
        return 0 if result["correct"] else EXIT_INCORRECT

    # One small discarded rep first: it imports every module the workload
    # touches and warms the interpreter's caches at a twentieth of a full
    # warm-up rep's cost.
    runner.run_rep(workload.smoke(), args.seed, 0, calibrate=False)
    if args.child == "run":
        cycles = runner.run_cycles(workload, args.seed, args.seconds,
                                   cycles=args.cycles)
        result = runner.summarize(workload, cycles)
        print(json.dumps(result))
        return 0 if result["correct"] else EXIT_INCORRECT

    assert args.child == "trace", args.child
    untraced = runner.run_rep(workload, args.seed, 0)
    traced, tracer, after_arm = runner.traced_rep(
        workload, args.seed, keep_spans=bool(args.out))
    problems = untraced.problems + traced.problems
    if runner.sim_digest([untraced]) != runner.sim_digest([traced]):
        problems.append(f"{workload.name}: tracing changed simulated "
                        f"behaviour (digests differ)")
    t_metrics = layers.traced_metrics(workload, traced, tracer, after_arm,
                                      untraced.cal_s)
    result = {
        "workload": workload.name,
        "correct": not problems,
        "problems": problems,
        "attempted": untraced.attempted + traced.attempted,
        "failed": untraced.failed + traced.failed,
        "sim_digest": runner.sim_digest([untraced]),
        "per_layer": layers.assemble(
            runner.layer_counts(workload, untraced), t_metrics,
            layers.micro_metrics(args.seed)),
        "arm_layer_shares": layers.per_arm_layer_shares(
            tracer, after_arm, [arm.name for arm in workload.arms]),
        "spans": tracer.span_count,
    }
    if args.out:
        path = os.path.join(os.path.dirname(os.path.abspath(args.out)),
                            f"trace-{workload.name}.jsonl")
        result["trace_file"] = path
        result["trace_spans_written"] = tracer.write_jsonl(path)
    print(json.dumps(result))
    return 0 if result["correct"] else EXIT_INCORRECT


# -- the report -----------------------------------------------------------------

def _format_end_to_end(result: dict) -> List[str]:
    lines = []
    for spec in END_TO_END:
        metric = result["metrics"].get(spec.name)
        if metric is None:
            continue
        lines.append(
            f"    {spec.name:<20} {spec.kind:<4} {metric['value']:>12.5g} "
            f"{spec.unit:<4} [q1 {metric['q1']:.5g}, q3 {metric['q3']:.5g}, "
            f"n {metric['n']}]  {spec.better} is better, bound "
            f"{spec.bound:.0%}")
    for name, value in result.get("info", {}).items():
        lines.append(f"    {name:<24} sim  {value:>12.5g}   (not gated)")
    return lines


def _format_per_layer(per_layer: Dict[str, dict]) -> List[str]:
    lines = []
    for spec in PER_LAYER:
        metric = per_layer.get(spec.name)
        if metric is None:
            continue
        lines.append(f"    {spec.name:<30} [{spec.source}] "
                     f"{metric['value']:>14.6g} {spec.unit}")
    return lines


def report(result: dict) -> str:
    """Every metric of one workload's result, by name and unit."""
    workload = BY_NAME[result["workload"]]
    lines = [f"== {workload.name} ({workload.loop} loop, "
             f"{workload.variants} variants x {len(workload.arms)} arms) =="]
    lines.append(
        f"  correct {'yes' if result['correct'] else 'NO'}   attempted "
        f"{result['attempted']}   failed {result['failed']}   sim_digest "
        f"{result.get('sim_digest', '')[:16]}")
    for problem in result.get("problems", ()):
        lines.append(f"  ! {problem}")
    if "metrics" in result:
        lines.append(
            f"  end-to-end (primary arm {workload.primary.name}, baseline "
            f"{workload.baseline.name}; fail_share "
            f"{result['fail_share']:.4f})")
        if workload.loop == "open":
            lines.append("    arrivals are simulated, so the generator "
                         "is never late: lateness 0 by construction")
        lines += _format_end_to_end(result)
    if "per_layer" in result:
        lines.append("  per-layer ([c] counters, [t] traced run, "
                     "[m] micro-benchmarks)")
        lines += _format_per_layer(result["per_layer"])
    return "\n".join(lines)


def last_line(results: Sequence[dict], traced: bool, single: bool) -> dict:
    """The JSON object standard output ends with."""
    metrics: Dict[str, dict] = {}
    for result in results:
        source = result["per_layer"] if traced else result["metrics"]
        for name, metric in source.items():
            key = name if single else f"{result['workload']}/{name}"
            metrics[key] = {"value": metric["value"], "unit": metric["unit"]}
    return {"correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "metrics": metrics}


def host_info() -> dict:
    return {"python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "machine": platform.machine(), "system": platform.system(),
            "cpus": os.cpu_count()}


# -- entry point ------------------------------------------------------------------

def parse_args(argv: Optional[Sequence[str]] = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(BY_NAME),
                        help="run one workload (default: all six)")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float, default=None,
                        help="time box of the measured reps (default: "
                             "run_seconds of BENCHMARK.json)")
    parser.add_argument("--cycles", type=int, default=None,
                        help="measure this many cycles (one rep per variant "
                             "each) instead of a time box")
    parser.add_argument("--trace", nargs="?", type=int, const=1, default=0,
                        choices=(0, 1),
                        help="1: the traced run and the per-layer metrics")
    parser.add_argument("--layers", action="store_true",
                        help="only the per-layer micro-benchmarks")
    parser.add_argument("--out", help="write the full result set here "
                        "(JSON; --trace 1 also writes trace-<workload>"
                        ".jsonl beside it)")
    parser.add_argument("--smoke", action="store_true",
                        help="every workload at its smallest size, one rep, "
                             "every check, no calibration")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    parser.add_argument("--surface", action="store_true",
                        help="print the library symbols the benchmark binds")
    parser.add_argument("--child", choices=("run", "trace", "setup",
                                            "layers", "smoke"),
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(manifest()["run_seconds"])
    return args


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if args.child:
        return child_main(args)
    if args.compare:
        from perf import compare
        return compare.main(*args.compare)
    if args.surface:
        from perf import adapter
        print(adapter.surface_listing())
        return 0
    if not os.path.isdir(os.path.join(_ROOT, "src", "repro")):
        print("perf/bench.py: the program under test (src/repro) is missing",
              file=sys.stderr)
        return 2
    if args.layers:
        micro = run_child("layers", WORKLOADS[0].name, args)["per_layer"]
        for name, value in micro.items():
            print(f"{name:<30} {value:>14.6g} "
                  f"{PER_LAYER_BY_NAME[name].unit}")
        return 0

    names = [args.workload] if args.workload else [w.name for w in WORKLOADS]
    mode = "smoke" if args.smoke else "trace" if args.trace else "run"
    results = []
    for name in names:
        result = run_child(mode, name, args)
        if mode == "run":
            result["metrics"]["setup_s"] = measure_setup(name, args)
        results.append(result)
        print(report(result), flush=True)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump({"schema": SCHEMA, "seed": args.seed, "mode": mode,
                       "seconds": args.seconds, "host": host_info(),
                       "workloads": {r["workload"]: r for r in results}},
                      handle, indent=1, sort_keys=True)
            handle.write("\n")
    print(json.dumps(last_line(results, traced=mode == "trace",
                               single=bool(args.workload))))
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
