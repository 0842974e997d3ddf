"""Record the benchmark's reference figures for one seed.

Usage (from the repository root)::

    python3 perfbench/record.py --seed 1 [--out perfbench/reference.json]

For every workload this runs the benchmark untraced once and traced
twice, each for ``BENCHMARK.json``'s ``run_seconds``.  The counters of
the traced runs (every per-layer metric that is not a host time) must
repeat exactly.  If they do, it writes the counters, the untraced
end-to-end metrics and the traced host times to ``--out``, so a later
change can be compared against them; if one does not, it exits 1 and
leaves ``--out`` as it was.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parent / "BENCHMARK.json"
WORKLOADS = ("cold_mix", "serve_ladder", "stream_drift")


def is_host_time(name: str, unit: str) -> bool:
    """Per-layer metrics measured in wall time rather than counted."""
    return name == "trace.overhead_frac" or (
        unit in ("ms", "us") and not name.startswith("sim.")
    )


def _run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, check=False,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{workload} --trace {trace} exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, default=HERE / "reference.json")
    args = parser.parse_args(argv)
    seconds = json.loads(BENCHMARK.read_text())["run_seconds"]

    doc = {"seed": args.seed, "seconds": seconds, "workloads": {}}
    repeated = True
    for workload in WORKLOADS:
        end_to_end = _run(workload, args.seed, seconds, 0)
        traced = [_run(workload, args.seed, seconds, 1) for _ in range(2)]
        counters, host = {}, {}
        for name, metric in traced[0].items():
            if is_host_time(name, metric["unit"]):
                host[name] = metric
                continue
            counters[name] = metric
            again = traced[1].get(name)
            if again != metric:
                repeated = False
                print(f"{workload}: {name} differs between traced runs: "
                      f"{metric} vs {again}", file=sys.stderr)
        doc["workloads"][workload] = {
            "end_to_end": end_to_end,
            "counters": counters,
            "traced_host_times": host,
        }
        print(f"{workload}: {len(counters)} counters "
              f"{'repeat exactly' if repeated else 'DIFFER'}")
    if not repeated:
        print(f"counters did not repeat; {args.out} left as it was",
              file=sys.stderr)
        return 1
    args.out.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
