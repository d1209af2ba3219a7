"""Run one workload of the patternex benchmark and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  With ``--trace 0`` it measures the
end-to-end metrics, timed by the speed clock of ``clock.py``; with
``--trace 1`` it runs one pass untraced and the same pass traced, and
reports the per-layer metrics and the tracing overhead.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 when
every output was confirmed, 1 when a check failed and 2 when the library
sources are missing.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

if sys.path and Path(sys.path[0]).resolve() == HERE:  # run as a script
    sys.path[0] = str(ROOT)
from perfbench import clock, inputs, stats, tracing, workloads  # noqa: E402

WORKLOADS = ("extremal_tables", "containment_queries", "verify_battery")

# About the seconds one pass takes at the seed commit, read from the speed
# clock (see clock.py and README.md).  A run does round(--seconds / this)
# passes, at least one, so the amount of work depends on --seconds only,
# never on the program's speed.  A pass of extremal_tables takes about
# 4.2 s; 3.8 makes 30 s give 8 passes, one full cycle of every pattern's
# symmetry images, so that every seed solves the same rows.
NOMINAL_PASS_S = {
    "extremal_tables": 3.8,
    "containment_queries": 1.6,
    "verify_battery": 30.0,
}
# set-up is repeated at least SETUP_REPEATS times and until SETUP_SECONDS
# have passed (at most SETUP_MAX_REPEATS times); its median is reported
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0
SETUP_MAX_REPEATS = 41


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    return args


def import_patternex():
    """Import patternex afresh: drop it from sys.modules, so the package runs again."""
    for name in [m for m in sys.modules if m == "patternex" or m.startswith("patternex.")]:
        del sys.modules[name]
    px = importlib.import_module("patternex")
    importlib.import_module("patternex.verify")
    return px


def set_up(generate, seed, passes, now):
    """Import patternex and generate every pass's inputs, repeatedly.

    Each pass's inputs are dropped as soon as they are made, and the
    previous repetition's package is collected before the clock starts.
    Returns the last package and the median set-up time.
    """
    times = []
    px = None
    while len(times) < SETUP_MAX_REPEATS and (
        len(times) < SETUP_REPEATS or sum(times) < SETUP_SECONDS
    ):
        px = None
        gc.collect()
        start = now()
        px = import_patternex()
        for p in range(passes):
            generate(px, seed, p)
        times.append(now() - start)
    return px, statistics.median(times)


def timed_pass(px, workload, units, now=perf_counter, tracer=None, pass_index=0):
    """Run every unit; returns (results, seconds per unit, wall seconds),
    all read from the clock ``now``."""
    results, seconds = [], []
    start = now()
    for i, unit in enumerate(units):
        if tracer is not None:
            tracer.begin_unit(f"{pass_index}/{i}")
        t0 = now()
        try:
            result = workloads.execute(px, workload, unit)
        except Exception as exc:  # counted as a failed unit; the run goes on
            result = exc
        seconds.append(now() - t0)
        if tracer is not None:
            tracer.end_unit()
        results.append(result)
    return results, seconds, now() - start


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args, passes, units_per_pass):
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "patternex_commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "passes": passes,
        "units_per_pass": units_per_pass,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "patternex" / "__init__.py").is_file():
        print(f"error: no patternex sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the untraced run reads every time from the speed clock; the traced run
    # keeps to perf_counter, so that no tick lands inside a span
    speed = None if args.trace else clock.SpeedClock()
    if speed is not None:
        speed.start()
    try:
        return measure(args, speed)
    finally:
        if speed is not None:
            speed.stop()


def measure(args, speed) -> int:
    workload, seed = args.workload, args.seed
    generate = inputs.GENERATORS[workload]
    passes = 1 if args.trace else max(1, round(args.seconds / NOMINAL_PASS_S[workload]))
    now = perf_counter if speed is None else speed.now
    px, setup_s = set_up(generate, seed, passes, now)
    if not Path(px.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: patternex was imported from {px.__file__}, not {SRC}", file=sys.stderr)
        return 2
    reference = workloads.load_reference()

    problems: list[tuple[str, list[str]]] = []

    def record(pass_index, units, results):
        found = workloads.check(px, workload, units, results, seed, pass_index, reference)
        for i, f in enumerate(found):
            if f:
                label = getattr(units[i], "label", "battery")
                problems.append((f"pass {pass_index} unit {i} ({label})", f))
        return sum(1 for f in found if f)

    def make_pass(pass_index):
        units = generate(px, seed, pass_index)
        # keep the collector from rescanning the inputs during the pass, so
        # its cost follows the library's own allocations
        gc.collect()
        gc.freeze()
        return units

    report: dict = {}
    units_per_pass = []
    if args.trace:
        units = make_pass(0)
        units_per_pass.append(len(units))
        _, _, untraced = timed_pass(px, workload, units)
        tracer = tracing.Tracer()
        tracer.install(px)
        try:
            results, _, traced = timed_pass(px, workload, units, tracer=tracer)
        finally:
            tracer.uninstall()
        gc.unfreeze()
        failed = record(0, units, results)
        attempted = len(units)
        trace_problems = tracer.consistency_problems()
        problems.extend(("trace", [p]) for p in trace_problems)
        metrics = tracer.metrics()
        metrics["trace.untraced_wall_s"] = (untraced, "s")
        metrics["trace.traced_wall_s"] = (traced, "s")
        metrics["trace.overhead_s"] = (traced - untraced, "s")
        (HERE / "results").mkdir(exist_ok=True)
        tracer.dump(HERE / "results" / f"{workload}-seed{seed}-spans.json")
        correct = failed == 0 and not trace_problems
    else:
        latencies: list[float] = []
        pass_medians: list[float] = []
        wall_s = raw_wall_s = 0.0
        failed = attempted = 0
        for p in range(passes):
            units = make_pass(p)
            units_per_pass.append(len(units))
            raw_start = perf_counter()
            results, seconds, wall = timed_pass(px, workload, units, now, pass_index=p)
            raw_wall_s += perf_counter() - raw_start
            gc.unfreeze()
            wall_s += wall
            latencies.extend(seconds)
            pass_medians.append(statistics.median(seconds))
            attempted += len(units)
            failed += record(p, units, results)
            del units, results
        tail_s, pct, beyond = stats.tail(latencies)
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_s": (wall_s, "s"),
            # the median of the per-pass medians, so that one pass whose
            # inputs run unusually fast or slow does not move it
            "latency_p50_ms": (statistics.median(pass_medians) * 1e3, "ms"),
            "latency_tail_ms": (tail_s * 1e3, "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
        }
        report["latency_tail"] = {"percentile": pct, "samples": len(latencies), "beyond": beyond}
        report["speed"] = {"raw_wall_s": raw_wall_s, **speed.speed_report()}
        correct = failed == 0

    report["failed_ratio"] = {"failed": failed, "attempted": attempted, "value": failed / attempted}
    report["env"] = environment(args, passes, units_per_pass)
    report["problems"] = [{"where": w, "problems": p} for w, p in problems]
    report["metrics"] = {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()}

    for name, (value, unit) in metrics.items():
        print(f"{name:48s} {value:14.6f} {unit}")
    if "latency_tail" in report:
        t = report["latency_tail"]
        print(f"latency_tail_ms is p{t['percentile']:g} of {t['samples']} samples, {t['beyond']} beyond it")
        print("speed " + json.dumps(report["speed"]))
    print(f"failed_ratio {failed}/{attempted} = {failed / attempted:g}")
    for where, found in problems[:20]:
        print(f"FAILED {where}: {'; '.join(found)}")
    print("env " + json.dumps(report["env"]))
    (HERE / "results").mkdir(exist_ok=True)
    with open(HERE / "results" / f"{workload}-seed{seed}-trace{args.trace}.json", "w") as fh:
        json.dump(report, fh, indent=1)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
