"""Run one benchmark workload and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold_mix --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics untraced: the workload
is set up once, then the first pass runs every operation once and
later passes repeat them until ``--seconds`` have gone by since the
first began (the last pass is cut there; at least ``MIN_PASSES``).  Host times are in
reference-host time (``hostspeed.py``): each sample is divided by the
host factor of its pass, and each operation's time is its mean over the
passes.  ``setup_s`` is the median of ``SETUP_SAMPLES`` cold set-ups
(import included), each divided by a host factor sampled right after
it: this run's own and those of fresh processes started with
``--setup-only``, since a second set-up in one process would reuse the
program's warm caches.

``--trace 1`` wraps the layer boundaries (``layertrace.py``), runs
set-up once and the first pass traced, then the same pass again
untraced; it reports the per-layer metrics and the tracing overhead
between the two passes.  A metric whose wrapped function no longer
exists is left out of the JSON and listed as absent; a wrapped function
that exists but that the workload never called fails the run.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines above
it repeat the metrics as a table, under the workload-specific names.
The exit code is 0 when every correctness check passed, 1 when one
failed, 2 when the program under test cannot be imported.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Tuple

import hostspeed

SRC = Path(__file__).resolve().parent.parent / "src"
SETUP_SAMPLES = 5
#: Passes of every untraced run, however slow the host: later passes
#: must reproduce the first's simulated results (a pass cut at the end
#: of the budget still runs one operation).
MIN_PASSES = 2
#: Host-speed samples taken right after each set-up.
SETUP_CALIBRATION = 100

Metrics = Dict[str, Tuple[float, str]]


def _parse(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="print this process's import + set-up "
                        "reference-host seconds")
    return parser.parse_args(argv)


def _fresh_setup_s(args: argparse.Namespace) -> float:
    """Import + set-up reference-host seconds of a fresh process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload",
         args.workload, "--seed", str(args.seed), "--seconds", "0",
         "--setup-only"],
        capture_output=True, text=True, check=True, timeout=60,
    )
    return float(proc.stdout.split()[-1])


def _import_program():
    """Import the workloads against this checkout's ``src``, or None."""
    sys.path.insert(0, str(SRC))
    try:
        import repro
    except ImportError as exc:
        print(f"cannot import the program from {SRC}: {exc}", file=sys.stderr)
        return None
    if Path(repro.__file__).resolve().parent != (SRC / "repro").resolve():
        print(f"imported repro from {repro.__file__}, not {SRC}", file=sys.stderr)
        return None
    import suite

    return suite


def _end_to_end(suite, setup_s, passes, summary):
    first = passes[0]
    factors = [p.host.factor() for p in passes]
    op_ms = list(suite.mean_per_op([p.op_ms for p in passes], factors).values())
    # Per simulating operation: requests simulated over the
    # reference-host seconds spent simulating them (mean over passes).
    sim_s = suite.mean_per_op([p.sim_host_s for p in passes], factors)
    sim_rates = [
        first.sim_requests[key] / seconds for key, seconds in sim_s.items()
    ]
    pooled = hostspeed.HostSpeed()
    for p in passes:
        pooled.samples_ms += p.host.samples_ms
    op_pct, op_tail = suite.tail(op_ms)
    lat_pct, lat_tail = suite.tail(summary.latency_ms)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
        "op_ms_p50": (statistics.median(op_ms), "ms"),
        "op_ms_tail": (op_tail, "ms"),
        "sim_reqs_per_host_s": (statistics.median(sim_rates), "1/s"),
        "latency_ms_p50": (statistics.median(summary.latency_ms), "ms"),
        "latency_ms_tail": (lat_tail, "ms"),
        "plan_gap": (summary.plan_gap, "ratio"),
        "capacity_per_s": (summary.capacity_per_s, "1/s"),
    }, {"op_ms_tail": op_pct, "latency_ms_tail": lat_pct}, len(op_ms), {
        "passes": (len(passes), "count"),
        "host_factor": (pooled.factor(), "ratio"),
        "op_ms_p50_unscaled": (
            statistics.median(suite.mean_per_op(
                [p.op_ms for p in passes], [1.0] * len(passes)).values()),
            "ms",
        ),
    }


def _print_table(workload, metrics: Metrics, pcts, samples, summary,
                 error_frac, host):
    """The metrics, each with the name this workload gives it, if any."""
    print(f"workload {workload.name} seed {workload.seed}: "
          f"{samples} operations")
    for key, (value, unit) in metrics.items():
        own = workload.own_names.get(key)
        label = f"{key} ({own})" if own else key
        note = f" (p{pcts[key]:g})" if key in pcts else ""
        print(f"  {label:36s} {value:14.4f} {unit}{note}")
    print(f"  {'error_frac':36s} {error_frac:14.4f} frac")
    for label, (value, unit) in {**summary.extras, **host}.items():
        print(f"  {label:36s} {value:14.4f} {unit}")


def main(argv: List[str]) -> int:
    args = _parse(argv)
    started = time.perf_counter()
    suite = _import_program()
    if suite is None:
        return 2
    import_s = time.perf_counter() - started
    if args.workload not in suite.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"choose from {sorted(suite.WORKLOADS)}", file=sys.stderr)
        return 2
    cls = suite.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        import layertrace

        tracer = layertrace.install(layertrace.LayerTracer())
        tracer.active = True

    workload = cls(args.seed)
    if tracer:
        workload.quiet = tracer.paused
        workload.calibrate = False
    start = time.perf_counter()
    workload.setup()
    setup_s = import_s + time.perf_counter() - start
    if not tracer:
        setup_host = hostspeed.HostSpeed()
        setup_host.sample(SETUP_CALIBRATION)
        setup_s /= setup_host.factor()
    if args.setup_only:
        print(setup_s)
        return 0

    if tracer:
        tracer.phase = layertrace.RUN
    budget_start = time.perf_counter()
    first = workload.run_pass(first=True)
    passes = [first]
    if tracer:
        tracer.active = False
        passes.append(workload.run_pass(first=False))
    else:
        # Later passes fill the budget, the last one cut at its end.
        deadline = budget_start + args.seconds
        while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
            passes.append(workload.run_pass(first=False, until=deadline))

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    for index, later in enumerate(passes[1:], start=2):
        if later.fingerprint != first.fingerprint[:len(later.fingerprint)]:
            failed += 1
            print(f"check failed: pass {index} simulated results differ "
                  "from pass 1", file=sys.stderr)
    summary = workload.sim_summary()
    error_frac = failed / attempted

    if tracer:
        for span in workload.SPANS:
            if span not in tracer.missing and not tracer.calls(span):
                failed += 1
                print(f"check failed: traced run never called {span}",
                      file=sys.stderr)
        metrics, absent = layertrace.layer_metrics(tracer)
        metrics.update(workload.device_layer_metrics())
        traced_ms = sum(first.op_ms.values())
        untraced_ms = sum(passes[1].op_ms.values())
        metrics["trace.overhead_frac"] = (traced_ms / untraced_ms - 1.0, "frac")
        print(f"workload {workload.name} seed {args.seed} (traced): "
              f"per-layer metrics")
        for key, (value, unit) in sorted(metrics.items()):
            print(f"  {key:40s} {value:16.4f} {unit}")
        if absent:
            print(f"  absent (wrapped function gone): {', '.join(absent)}")
    else:
        setup_samples = [setup_s]
        setup_samples += [_fresh_setup_s(args) for _ in range(SETUP_SAMPLES - 1)]
        metrics, pcts, samples, host = _end_to_end(
            suite, statistics.median(setup_samples), passes, summary
        )
        _print_table(workload, metrics, pcts, samples, summary, error_frac,
                     host)

    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            key: {"value": value, "unit": unit}
            for key, (value, unit) in metrics.items()
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
