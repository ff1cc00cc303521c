"""The repository's benchmark: one command, three workloads.

    python3 perfbench/run.py --workload ward_stream --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off;
``--trace 1`` makes a separate traced run and reports the per-layer
metrics.  Every output is checked against its predicted outcome
outside the timed regions.  The human-readable report (every metric by
name and unit, the run's stamp and sample counts) comes first; the last
line of standard output is one JSON object::

    {"correct": true, "attempted": N, "failed": 0, "metrics": {...}}

Workloads, metrics and the first baseline are described in
``BENCHMARK.json``, ``perfbench/README.md`` and
``perfbench/BASELINE.json`` (which also records the held-out seed that
was never used while tuning; a later gain claim re-checks on it).
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("ward_stream", "clinic_bus", "vitals_history"),
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no src/repro under {ROOT}; run from a checkout "
            "of the repository", file=sys.stderr,
        )
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import bench_runner

    result = bench_runner.run(
        args.workload, args.seed, seconds=args.seconds, trace=bool(args.trace)
    )
    metrics = bench_runner.report(result, bool(args.trace))
    check = result["check"]
    print(json.dumps({
        "correct": check.failed == 0,
        "attempted": check.attempted,
        "failed": check.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
