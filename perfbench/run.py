"""Benchmark of the solenoidlab package: end-to-end timing and a traced run.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload conservation-b3 --seed 1 --seconds 25 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics: the median and
75th percentile of the time to one solution of the workload, the median
set-up time over fresh processes, and the peak resident memory of this
process.  With ``--trace 1`` it alternates untraced and traced solutions
and reports each layer's self time and work counts (see tracing.py).  Every
operation's output is checked; on the default seed it must also match
reference.json, recorded at the benchmark's parent commit.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--smoke`` runs
the same code paths at tiny sizes and skips the size-dependent checks.
``--record-reference`` rewrites reference.json from the current program.
"""

from __future__ import annotations

import os

# one BLAS thread, so a workload uses at most the threads it asks for;
# set before numpy is imported by anything
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import importlib
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
REFERENCE = HERE / "reference.json"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_PROBES = 7
SMOKE_SETUP_PROBES = 2
MIN_SOLUTIONS = 3

# metric names, units and workload reasons are declared once, in BENCHMARK.json
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
WHY = {w["name"]: w["why"] for w in SPEC["workloads"]}


def load_lab() -> SimpleNamespace:
    """Import the program's layer modules from the checkout's src/."""
    if not (SRC / "solenoidlab" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program source at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    names = ("rng", "params", "words", "gridmeasure", "fiber", "entropy",
             "projection", "dimension")
    lab = SimpleNamespace(**{n: importlib.import_module(f"solenoidlab.{n}") for n in names})
    if Path(lab.fiber.__file__).resolve().parent != (SRC / "solenoidlab").resolve():
        raise SystemExit(f"perfbench: imported solenoidlab from {lab.fiber.__file__}, not {SRC}")
    return lab


def solve(lab, workload, inputs, reference, estimators: bool):
    """One solution: every op in order, timed as a whole, then checked.

    Returns (wall seconds, facts by op, failed op names, problems).
    """
    state: dict = {}
    results = {}
    problems = []
    t0 = time.perf_counter()
    for op in workload.ops:
        try:
            results[op.name] = op.run(lab, inputs, state)
        except Exception as exc:  # a raising op is a failed op, the run goes on
            problems.append((op.name, f"raised {exc!r}"))
    wall = time.perf_counter() - t0
    facts = {}
    for op in workload.ops:
        if op.name not in results:
            continue
        try:
            # through JSON, so facts hold the same plain types as reference.json
            facts[op.name] = json.loads(
                json.dumps(op.facts(results[op.name], inputs), default=_item))
        except Exception as exc:
            problems.append((op.name, f"output unreadable: {exc!r}"))
    if len(facts) == len(workload.ops):
        problems += workload.check(facts, inputs, estimators)
    if reference is not None:
        problems += wl.compare_reference(facts, reference)
    return wall, facts, {op for op, _ in problems}, problems


def _item(value):
    return value.item()  # numpy scalar to the Python number


def setup(workload_name: str, seed: int, smoke: bool):
    """Imports, inputs and one smoke-size warm-up solution; returns (lab, inputs, seconds)."""
    t0 = time.perf_counter()
    lab = load_lab()
    workload = wl.WORKLOADS[workload_name]
    inputs = wl.make_inputs(workload, seed, smoke)
    solve(lab, workload, wl.make_inputs(workload, seed, smoke=True), None, estimators=False)
    return lab, inputs, time.perf_counter() - t0


def setup_seconds(args) -> float:
    """Median set-up time over fresh processes."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    times = []
    for _ in range(SMOKE_SETUP_PROBES if args.smoke else SETUP_PROBES):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode != 0:
            raise SystemExit(f"perfbench: set-up probe failed:\n{done.stderr}")
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


class Tally:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list = []

    def add(self, workload, failed_ops, problems):
        self.attempted += len(workload.ops)
        self.failed += len(failed_ops)
        self.problems += problems


def measure_end_to_end(lab, workload, inputs, reference, args, tally) -> dict:
    walls = []
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(walls) < MIN_SOLUTIONS:
        wall, _, failed, problems = solve(lab, workload, inputs, reference, not args.smoke)
        walls.append(wall)
        tally.add(workload, failed, problems)
    print(f"solutions: {len(walls)}")
    return {
        "wall_s": statistics.median(walls),
        "wall_s_p75": statistics.quantiles(walls, n=4)[2],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def measure_layers(lab, workload, inputs, reference, args, tally) -> dict:
    """Alternate untraced and traced solutions; per-layer medians from the traced ones."""
    # imported here, not at the top: tracing imports numpy, and set-up
    # probes must time numpy's first import
    from tracing import Tracer, layer_totals

    tracer = Tracer()
    plain, cpu, traced, per_solution = [], [], [], []
    builds = {1: [], 2: []}
    start = time.perf_counter()
    while time.perf_counter() - start < args.seconds or len(traced) < MIN_SOLUTIONS:
        c0 = time.process_time()
        wall, _, failed, problems = solve(lab, workload, inputs, reference, not args.smoke)
        cpu.append(time.process_time() - c0)
        plain.append(wall)
        tally.add(workload, failed, problems)

        tracer.clear()
        with tracer:
            wall, _, failed, problems = solve(lab, workload, inputs, reference, not args.smoke)
        traced.append(wall)
        per_solution.append(layer_totals(tracer.spans))
        tally.add(workload, failed, problems)

        if workload is wl.FIBER:
            # the same build at 1 and at 2 threads, untraced, order alternating
            spec = wl.fiber_spec(lab, inputs)
            for threads in (1, 2) if len(traced) % 2 else (2, 1):
                t0 = time.perf_counter()
                lab.fiber.build_fiber_measure(spec, threads=threads)
                builds[threads].append(time.perf_counter() - t0)

    # "<span>.<quantity>" names read the layer totals; a layer the workload
    # never calls reads 0
    metrics = {}
    for name in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        metrics[name] = statistics.median(
            layers.get(span, {}).get(quantity, 0.0) for layers in per_solution)
    metrics["fiber.build_fiber_measure.speedup_t2"] = (
        statistics.median(builds[1]) / statistics.median(builds[2]) if builds[2] else 0.0)
    metrics["run.cpu_over_wall"] = sum(cpu) / sum(plain)
    metrics["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)

    OUT.mkdir(exist_ok=True)
    spans = [{"name": n, "start": t0, "end": t1, "parent": p, "counts": c}
             for n, t0, t1, p, c in tracer.spans]
    (OUT / f"trace-{args.workload}-seed{args.seed}.json").write_text(json.dumps(spans))
    print(f"solutions: {len(plain)} untraced, {len(traced)} traced")
    return metrics


def record_reference() -> int:
    lab = load_lab()
    out = {}
    for name, workload in wl.WORKLOADS.items():
        inputs = wl.make_inputs(workload, wl.DEFAULT_SEED, smoke=False)
        _, facts, failed, problems = solve(lab, workload, inputs, None, estimators=True)
        if failed:
            print(f"{name}: not recorded, checks failed: {problems}", file=sys.stderr)
            return 1
        out[name] = facts
    REFERENCE.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny sizes, size-dependent checks off")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--record-reference", action="store_true")
    args = ap.parse_args(argv)

    if args.record_reference:
        return record_reference()
    if args.workload is None:
        ap.error("--workload is required")
    if args.setup_probe:
        print(repr(setup(args.workload, args.seed, args.smoke)[2]))
        return 0

    workload = wl.WORKLOADS[args.workload]
    reference = None
    if args.seed == wl.DEFAULT_SEED and not args.smoke:
        reference = json.loads(REFERENCE.read_text())[workload.name]
    setup_s = setup_seconds(args) if args.trace == 0 else None
    lab, inputs, _ = setup(args.workload, args.seed, args.smoke)

    tally = Tally()
    if args.trace == 0:
        metrics = measure_end_to_end(lab, workload, inputs, reference, args, tally)
        metrics["setup_s"] = setup_s
        units = END_TO_END
    else:
        metrics = measure_layers(lab, workload, inputs, reference, args, tally)
        units = PER_LAYER

    for op, message in tally.problems[:20]:
        print(f"CHECK FAILED {workload.name}/{op}: {message}")
    print(f"workload: {workload.name} ({WHY[workload.name]})")
    for name in units:
        print(f"{name:48s} {metrics[name]:>16.6g} {units[name]}")
    print(f"{'ops_failed':48s} {tally.failed / tally.attempted:>16.6g} ratio "
          f"({tally.failed} of {tally.attempted})")
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {n: {"value": float(metrics[n]), "unit": units[n]} for n in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
