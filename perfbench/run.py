"""Benchmark for whitdim: one workload per run, in a fresh interpreter.

    python3 perfbench/run.py --workload sweep --seed 0 --seconds 25 --trace 0

Workloads are ``sweep``, ``table`` and ``structure`` (see README.md).  The
run imports whitdim from ``src/`` next to this directory, draws its inputs
from ``--seed``, runs items for ``--seconds`` seconds and checks every
output.  The last line of stdout is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics of
BENCHMARK.json with ``--trace 0``, its per-layer metrics with ``--trace 1``.
The line before it records the context (Python version, nproc, the tail
percentile and its sample counts, the gauge times, the unscaled throughput
and the failed ratio).
"""

from __future__ import annotations

import argparse
import bisect
import heapq
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
GOLDEN = HERE / "golden.json"
BENCHMARK = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 0
#: Set-ups measured per run; setup_s is their median.
SETUP_PROBES = 15
#: A child run gets this long before it is treated as hung.
CHILD_TIMEOUT_S = 150
#: A window is scaled by the gauge runs from this long before it to this
#: long after it.
GAUGE_MARGIN_S = 2.0


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "table", "structure"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: a set-up probe, and an untraced replay of the first N items
    parser.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--replay", type=int, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def load_program():
    """Import whitdim from this checkout's src/, never from site-packages."""
    sys.path.insert(0, str(SRC))
    import whitdim

    if Path(whitdim.__file__).resolve().parent != SRC / "whitdim":
        raise SystemExit(f"error: imported whitdim from {whitdim.__file__}, not from {SRC}")
    import workloads

    return workloads


def child(args, *extra):
    """Run this script again in a fresh interpreter; return its last stdout
    line.  The benchmark and whitdim use only the standard library, so the
    child runs with -S: the host Python's site-packages hooks (which can
    import packages at every start) stay out of the measured set-up."""
    cmd = [sys.executable, "-S", str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
                          check=True)
    return proc.stdout.strip().splitlines()[-1]


def measure_setup(args, host_factor):
    """Median time from starting an interpreter to the first timed item:
    ``import whitdim`` plus input generation.  Each probe runs the gauge
    right after its set-up, and its time is scaled by that gauge time."""
    samples = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        ready, gauge_s = map(float, child(args, "--probe").split())
        samples.append((ready - t0) * host_factor(gauge_s))
    return statistics.median(samples)


def tail_value(values, p):
    """Nearest-rank percentile p of ``values``, and how many values lie
    beyond it; only the values at or above it are ever held in a list."""
    rank = max(1, math.ceil(p / 100 * len(values)))
    top = heapq.nlargest(len(values) - rank + 1, values)
    return top[-1], sum(1 for v in top if v > top[-1])


def check_record(workload, seed, digests):
    """Compare output digests with those recorded for this seed, in the
    committed golden file and in the local record of earlier runs; extend
    the local record.  Returns the number of digests that disagree."""
    if not digests:
        return 0
    key = str(seed)
    golden = json.loads(GOLDEN.read_text()).get(workload, {}).get(key, "").split()
    local_path = OUT / "record.json"
    local = json.loads(local_path.read_text()) if local_path.exists() else {}
    known = local.get(workload, {}).get(key, "").split()
    mismatches = sum(1 for i, digest in enumerate(digests) if digest != "failed"
                     and any(i < len(ref) and ref[i] != digest for ref in (golden, known)))
    if mismatches == 0 and "failed" not in digests and len(digests) > len(known):
        local.setdefault(workload, {})[key] = " ".join(digests)
        OUT.mkdir(exist_ok=True)
        tmp = local_path.with_suffix(".tmp")
        tmp.write_text(json.dumps(local, indent=1, sort_keys=True) + "\n")
        os.replace(tmp, local_path)
    return mismatches


def window_gauge(clock, start, end):
    """Median time of the gauge runs that started from ``GAUGE_MARGIN_S``
    before the window to as long after it (host states last seconds to
    minutes, a single gauge run jitters); of all runs if none did."""
    starts = clock.gauge_start
    near = range(bisect.bisect_left(starts, start - GAUGE_MARGIN_S),
                 bisect.bisect_right(starts, end + GAUGE_MARGIN_S)) or range(len(starts))
    return statistics.median(clock.gauge_end[k] - starts[k] for k in near)


def end_to_end(clock, setup_s, tail_p, host_factor):
    """Times scaled to the reference host: each window's item latencies are
    multiplied, in place, by the host factor of the window's gauge time,
    and its rate divided by it.  Throughput and median latency are
    medians over the run's windows, so that a stretch of host contention
    shorter than half the run barely moves them.  So is the tail where
    every window has ten samples beyond it; otherwise it is taken over all
    items."""
    latencies = clock.latencies
    for start, end, first, last, _ in clock.segments:
        factor = host_factor(window_gauge(clock, start, end))
        for i in range(first, last):
            latencies[i] *= factor
    windows = clock.windows or clock.segments  # a run shorter than one window
    rates = [units / (end - start - clock.gauged_within(0, start, end))
             / host_factor(window_gauge(clock, start, end))
             for start, end, _, _, units in windows]
    medians = [statistics.median(latencies[first:last]) for _, _, first, last, _ in windows]
    if min(last - first for _, _, first, last, _ in windows) * (1 - tail_p / 100) >= 10:
        # every window has ten samples beyond the tail: take it per window
        tails = [tail_value(latencies[first:last], tail_p) for _, _, first, last, _ in windows]
        tail, beyond = statistics.median(t for t, _ in tails), sum(n for _, n in tails)
    else:
        tail, beyond = tail_value(latencies, tail_p)
    gauges = [end - start for start, end in zip(clock.gauge_start, clock.gauge_end)]
    context = {"tail_percentile": tail_p, "tail_samples_beyond": beyond,
               "latency_samples": len(latencies), "windows": len(clock.windows),
               "gauge_runs": len(gauges), "gauge_median_ms": statistics.median(gauges) * 1e3,
               "unscaled_throughput_per_s": clock.attempted / clock.wall}
    values = {
        "throughput_per_s": statistics.median(rates),
        "latency_p50_ms": statistics.median(medians) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    return values, context


def per_layer(args, clock, tracer, workload):
    import spans

    stats = tracer.self_times()
    values = {}
    for span, (calls, own, _) in stats.items():
        values[f"{span}.calls"] = calls
        values[f"{span}.self_s"] = own
    for module in spans.MODULES:
        values[f"{module}.self_s"] = sum(own for span, (_, own, _) in stats.items()
                                         if span.startswith(module + "."))
        values[f"{module}.lines"] = len((SRC / "whitdim" / f"{module}.py")
                                        .read_text().splitlines())
    counters = tracer.counters
    y_calls = max(values["whittaker.y_x_rho.calls"], 1)
    values["root_datum.weyl_group.elements"] = counters.get("root_datum.weyl_group.elements", 0)
    values["whittaker.y_x_rho.cosets"] = counters.get("whittaker.y_x_rho.cosets", 0) / y_calls
    values["whittaker.y_x_rho.orbit"] = counters.get("whittaker.y_x_rho.orbit", 0) / y_calls
    values["cli.stdout_bytes"] = 0
    values["whittaker.table.useful_ratio"] = 0.0
    values.update(workload.counters())

    untraced = json.loads(child(args, "--trace", "0", "--replay", str(len(clock.latencies))))
    values["trace.overhead_ratio"] = clock.wall / untraced["wall"] - 1
    values["trace.accounted_ratio"] = sum(own for _, own, _ in stats.values()) / clock.wall
    OUT.mkdir(exist_ok=True)
    tracer.dump(OUT / f"spans-{args.workload}-{args.seed}.bin")
    context = {"untraced_wall_s": untraced["wall"], "spans": len(tracer.end),
               "total_s": {span: total for span, (calls, _, total) in stats.items() if calls}}
    return values, context


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "whitdim" / "__init__.py").is_file():
        print(f"error: no whitdim sources at {SRC}", file=sys.stderr)
        return 2
    if args.probe:
        workloads = load_program()
        workloads.WORKLOADS[args.workload](args.seed)
        print(repr(time.monotonic()), repr(workloads.time_gauge()))
        return 0
    gauged = args.trace == 0 and args.replay is None
    workloads = load_program()
    if gauged:
        setup_s = measure_setup(args, workloads.host_factor)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.instrument(tracer)
    clock = workloads.Clock(args.seconds, args.replay, tracer, workload.window_s, gauged)
    clock.begin()
    try:
        workload.run(clock)
    finally:
        clock.finish()  # also stops the gauge timer
    if args.replay is not None:
        print(json.dumps({"wall": clock.wall, "items": len(clock.latencies)}))
        return 0
    if tracer is not None:
        tracer.paused = True

    workload.finish(clock)
    failed = clock.failed + check_record(args.workload, args.seed, workload.digests)
    attempted = clock.attempted
    if args.trace:
        values, context = per_layer(args, clock, tracer, workload)
    else:
        values, context = end_to_end(clock, setup_s, workload.tail_percentile,
                                     workloads.host_factor)
    declared = json.loads(BENCHMARK.read_text())["per_layer" if args.trace else "end_to_end"]
    context.update(workload=args.workload, seed=args.seed, seconds=args.seconds,
                   trace=args.trace, python=platform.python_version(),
                   nproc=len(os.sched_getaffinity(0)), items=len(clock.latencies),
                   wall_s=clock.wall, errors=clock.errors,
                   failed_ratio=failed / max(attempted, 1))
    print(json.dumps({"context": context}))
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print(json.dumps({"correct": failed == 0 and attempted > 0,
                      "attempted": max(attempted, 1), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
