"""Benchmark for ribbonforge: one workload per run.

    python3 perfbench/run.py --workload decide --seed 1 --seconds 15 --trace 0

Workloads: decide, refute, search, verify (see workloads.py for why each
was chosen).  One process, one client, a closed loop: each operation starts
when the previous one returns, and no threads are used.  The package is
imported from ``src/`` next to this directory and receives only the inputs
generated from ``--seed``.  ``--seconds`` sets how many rounds of operations
a run makes, calibrated so that a run takes about that long on a 2-core
x86-64 machine under Python 3.11.

End-to-end metrics: ``scaled_wall_s``, the timed operations in seconds at
the host's nominal speed (see ``calib``), an operation stopped at its
deadline counting as the deadline; ``setup_s``, the median of several
imports of the package plus input builds, scaled the same way;
``peak_rss_mb``.  Raw wall-clock seconds are printed beside them.
The report also gives wall-clock latency p50 (p90 once 100 samples exist),
failed_ratio, growth_exponent (decide, refute) and the seconds of each
acceptance criterion (verify).

Each operation runs under a deadline (SIGALRM); an operation fails if it
raises, overruns the deadline, or returns a result its check rejects.
Checks run after the timed loop.  The output is a report, one metric per
line with its unit and sample count, then every failure with its input id
and reason, and last one JSON line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones.  With ``--trace 1``
the run first repeats itself untraced in a child process, then runs traced:
the metrics are the per-layer ones, spans go to ``perfbench/out/``, and
``trace.overhead_s`` is traced minus untraced ``scaled_wall_s``.  Traced
times are raw and include the host-speed samples taken inside calls
(about 4% of a call).
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import calib

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"
SETUP_REPEATS = 5
P90_MIN_SAMPLES = 100  # at least ten samples beyond the 90th percentile

# Per-layer metrics in the JSON line of a traced run.  Time sums are given
# for the functions that every workload calls; call counts for all of them.
TIMED_EVERYWHERE = (
    "presentation.presentation",
    "presentation.ArrowPresentation.arrow_positions",
    "presentation.component_vertex_sets",
    "presentation.components",
    "moves.partial_dual",
    "surfaces.trace_boundary",
    "surfaces.surface_summary",
    "surfaces.is_orientable",
)


class Deadline(BaseException):
    """Raised by SIGALRM; a BaseException so library ``except Exception``
    handlers cannot swallow it."""


class Outcome(NamedTuple):
    op: object
    seconds: float  # wall-clock
    scaled_s: float  # at nominal host speed; the deadline if it failed
    value: object
    reason: str | None  # failure reason, None if the call returned


def _on_alarm(signum, frame):
    raise Deadline()


def _import_fresh():
    for name in [n for n in sys.modules if n == "ribbonforge" or n.startswith("ribbonforge.")]:
        del sys.modules[name]
    return importlib.import_module("ribbonforge")


def set_up(workload, seed, rounds):
    """Import the package and build the inputs, several times; median raw
    and scaled seconds."""
    import gen

    times, scaled = [], []
    meter = calib.Meter()
    for _ in range(SETUP_REPEATS):
        gc.collect()
        with meter:
            rf = _import_fresh()
            gen.self_check(SRC / "ribbonforge" / "data")
            ops = workload.build(rf, random.Random(seed), rounds)
        times.append(meter.seconds)
        scaled.append(meter.scaled_s)
    return ops, statistics.median(times), statistics.median(scaled)


def run_ops(ops, deadline_s, tracer=None):
    """Closed loop over the operations; returns their outcomes."""
    signal.signal(signal.SIGALRM, _on_alarm)
    outcomes = []
    meter = calib.Meter()
    for index, op in enumerate(ops):
        value, reason = None, None
        try:
            with meter:
                signal.setitimer(signal.ITIMER_REAL, deadline_s)
                try:
                    value = tracer.run_op(index, op.run) if tracer else op.run()
                finally:
                    signal.setitimer(signal.ITIMER_REAL, 0)
        except Deadline:
            reason = "deadline"
        except Exception as exc:
            reason = type(exc).__name__
        scaled_s = deadline_s if reason == "deadline" else meter.scaled_s
        outcomes.append(Outcome(op, meter.seconds, scaled_s, value, reason))
    return outcomes


def check_all(outcomes):
    """Run every check, outside the timed loop; returns failures."""
    failures = []
    for o in outcomes:
        op, reason = o.op, o.reason
        if reason is None:
            try:
                reason = op.check(o.value)
            except Exception as exc:
                reason = f"wrong: check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append((op.id, reason))
    return failures


def growth_exponent(outcomes):
    """Least-squares slope of log median latency against log input size."""
    by_size: dict[int, list[float]] = {}
    for o in outcomes:
        if o.op.size is not None and o.reason is None:
            by_size.setdefault(o.op.size, []).append(o.scaled_s)
    if len(by_size) < 2:
        return None
    xs = [math.log(s) for s in sorted(by_size)]
    ys = [math.log(statistics.median(by_size[s])) for s in sorted(by_size)]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sum((x - mx) ** 2 for x in xs)


def measure(workload, seed, seconds, tracer=None):
    import workloads

    ops, setup_raw_s, setup_s = set_up(workload, seed, workloads.rounds_for(workload, seconds))
    if tracer is not None:
        tracer.install()
        cache_info = tracer.originals["surfaces.surface_summary"].cache_info
        hits_before = cache_info()
    gc.collect()
    outcomes = run_ops(ops, workload.deadline_s, tracer)
    hits = None
    if tracer is not None:
        after = cache_info()
        hits = (after.hits - hits_before.hits, after.misses - hits_before.misses)
    failures = check_all(outcomes)
    latencies = sorted(o.seconds if o.reason is None else workload.deadline_s for o in outcomes)
    return {
        "ops": ops, "setup_s": setup_s, "setup_raw_s": setup_raw_s,
        "raw_s": sum(o.seconds for o in outcomes),
        "wall_s": sum(o.scaled_s for o in outcomes),
        "outcomes": outcomes, "failures": failures, "latencies": latencies,
        "surface_hits": hits,
    }


def _line(name, value, unit, note=""):
    shown = "n/a" if value is None else f"{value:.6g}"
    print(f"  {name:<44} {shown:>12} {unit:<6} {note}".rstrip())


def report(workload, seed, run, traced):
    lat = run["latencies"]
    n = len(lat)
    failed = len(run["failures"])
    print(f"python {platform.python_version()}  nproc {len(os.sched_getaffinity(0))}  "
          f"{platform.machine()} {platform.system()}")
    print(f"workload {workload.name}{' (traced)' if traced else ''}  seed {seed}  operations {n}  "
          f"deadline {workload.deadline_s:g} s  (failed operations count at the deadline)")
    _line("setup_s", run["setup_s"], "s",
          f"median of {SETUP_REPEATS} set-ups, scaled; {run['setup_raw_s']:.6g} s raw")
    rounds = n // len({op.slot for op in run["ops"]})
    _line("scaled_wall_s", run["wall_s"], "s", f"{n} operations, {rounds} rounds")
    _line("wall_s", run["raw_s"], "s", "wall-clock; moves with the host's speed")
    _line("latency_p50_ms", statistics.median(lat) * 1e3, "ms", f"n={n}")
    if n >= P90_MIN_SAMPLES:
        _line("latency_p90_ms", statistics.quantiles(lat, n=10)[8] * 1e3, "ms", f"n={n}")
    else:
        _line("latency_p90_ms", None, "ms", f"n={n}; needs {P90_MIN_SAMPLES} samples")
    _line("failed_ratio", failed / n, "1", f"{failed}/{n}")
    _line("peak_rss_mb", peak_rss_mb(), "MB")
    if workload.name in ("decide", "refute"):
        sizes = sorted({op.size for op in run["ops"] if op.size is not None})
        _line("growth_exponent", growth_exponent(run["outcomes"]), "1",
              f"sizes {', '.join(map(str, sizes))}")
    if workload.name == "verify":
        for o in run["outcomes"]:
            if o.value is not None:
                _line(f"acceptance.c{o.value.number}_s", o.value.seconds, "s")
    for op_id, reason in run["failures"]:
        print(f"failure {workload.name} {op_id}: {reason}")


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def untraced_wall(args):
    """wall_s of the same run without tracing, from a fresh process."""
    child = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", "0"],
        capture_output=True, text=True, timeout=150, check=True,
    )
    return json.loads(child.stdout.splitlines()[-1])["metrics"]["scaled_wall_s"]["value"]


def per_layer(run, tracer, untraced_wall_s):
    funcs = tracer.per_function()
    metrics = {}
    for name in tracer.names[1:]:
        metrics[f"{name}.calls"] = (funcs[name]["calls"], "count")
        if name in TIMED_EVERYWHERE:
            metrics[f"{name}.total_s"] = (funcs[name]["total_s"], "s")
            metrics[f"{name}.self_s"] = (funcs[name]["self_s"], "s")
    hits, misses = run["surface_hits"]
    metrics["surfaces.surface_summary.hit_ratio"] = (hits / max(1, hits + misses), "ratio")
    metrics["trace.overhead_s"] = (run["wall_s"] - untraced_wall_s, "s")
    return metrics, funcs


def report_trace(run, tracer, funcs, metrics, untraced_wall_s, span_path):
    print("per-layer (traced run; total_s counts outermost calls, self_s excludes traced children)")
    for name in tracer.names[1:]:
        f = funcs[name]
        print(f"  {name:<48} calls {f['calls']:>9}  total {f['total_s']:10.4f} s"
              f"  self {f['self_s']:10.4f} s")
    hits, misses = run["surface_hits"]
    _line("surfaces.surface_summary.hit_ratio", metrics["surfaces.surface_summary.hit_ratio"][0],
          "ratio", f"{hits} hits / {hits + misses} calls")
    kept = None if not tracer.candidates else tracer.kept / tracer.candidates
    _line("minors.one_step_minors.kept_ratio", kept, "ratio",
          f"{tracer.kept} classes kept / {tracer.candidates} candidates built")
    _line("trace.scaled_wall_s", run["wall_s"], "s")
    _line("trace.untraced_scaled_wall_s", untraced_wall_s, "s")
    _line("trace.overhead_s", metrics["trace.overhead_s"][0], "s")
    print(f"spans: {len(tracer.span_fid)} kept, {tracer.dropped} dropped past the cap; "
          f"written to {span_path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # String hashing decides set iteration order, and so how much work some
    # searches do; fix it so that the seed alone decides a run's work.
    if argv is None and os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  {**os.environ, "PYTHONHASHSEED": "0"})

    if not (SRC / "ribbonforge" / "__init__.py").is_file():
        print(f"error: no ribbonforge sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS or args.seconds <= 0:
        print(f"error: workload must be one of {sorted(workloads.WORKLOADS)} "
              "and --seconds positive", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]

    if not args.trace:
        run = measure(workload, args.seed, args.seconds)
        report(workload, args.seed, run, traced=False)
        metrics = {
            "scaled_wall_s": (run["wall_s"], "s"),
            "setup_s": (run["setup_s"], "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    else:
        from spans import Tracer

        untraced_wall_s = untraced_wall(args)
        tracer = Tracer()
        run = measure(workload, args.seed, args.seconds, tracer)
        report(workload, args.seed, run, traced=True)
        metrics, funcs = per_layer(run, tracer, untraced_wall_s)
        span_path = OUT / f"trace-{workload.name}-{args.seed}.json"
        tracer.dump(span_path)
        report_trace(run, tracer, funcs, metrics, untraced_wall_s, span_path)

    failures = run["failures"]
    print(json.dumps({
        "correct": not any(reason.startswith("wrong") for _, reason in failures),
        "attempted": len(run["outcomes"]),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
