"""Digests of what a perfbench workload's audit trail exports, to check
that a change keeps them byte-identical.

    python scripts/export_digests.py --workload clinic_bus --seed 1
    python scripts/export_digests.py --workload clinic_bus --seed 1 --base HEAD~1

Runs one workload as ``perfbench/run.py`` does, for perfbench's own
round count but untimed: set-up, every round with its reads, the deep
verifies, finish and the oracles.  Then prints one ``name value`` line
per item, sorted by name:

- ``export:<sink>`` and, for a spine, ``checkpoints:<sink>``: the sha256
  of the sink's ``export()`` and ``export_checkpoints()``.  Sinks are
  found as ``Deployment.verify`` finds them: node spines by hostname
  (``spine:<host>``), then detached domain logs (``log:<domain>``);
- ``spill:<file>``: the sha256 of every spill file the run left,
  named below the workload's spill directory;
- ``compliance:<sink>`` and ``provenance:<sink>``: the sha256 of the
  sink's compliance report and of its provenance graph;
- ``count:<name>``: the workload's ``counts()``.

``--base REF`` computes the same lines in a temporary git worktree of
``REF`` (``scripts/ab_pairs.py``'s helper), this script driving that
checkout's ``src`` and ``perfbench``, and prints every line that
differs; the exit status is 1 when any does.  ``--checkout DIR`` runs
the workload from another checkout's ``src`` and ``perfbench``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, List

from ab_pairs import ROOT, worktree


def _sha(value) -> str:
    text = json.dumps(value, sort_keys=True, default=str)
    return hashlib.sha256(text.encode()).hexdigest()


def _sinks(deploy) -> Dict[str, object]:
    """Every audit sink ``Deployment.verify`` checks, by name."""
    sinks = {}
    for handle in deploy._nodes.values():
        if handle.machine is not None:
            sinks[f"spine:{handle.spec.hostname}"] = handle.spine
    for name, domain in deploy.world.domains.items():
        if name not in deploy._spine_backed_domains:
            sinks[f"log:{name}"] = domain.audit
    return sinks


def _provenance(graph) -> List[str]:
    """A provenance graph as sorted JSON lines (nodes, then edges)."""
    nodes = sorted(
        json.dumps([node, data], sort_keys=True, default=str)
        for node, data in graph.graph.nodes(data=True)
    )
    edges = sorted(
        json.dumps([u, v, data], sort_keys=True, default=str)
        for u, v, data in graph.graph.edges(data=True)
    )
    return nodes + edges


def collect(checkout: Path, workload: str, seed: int) -> Dict[str, str]:
    """Run ``workload`` from ``checkout``'s sources; every line's value
    by name."""
    sys.path[:0] = [str(checkout / "src"), str(checkout / "perfbench")]
    import bench_runner
    from bench_workloads import WORKLOADS
    from repro.audit import ComplianceAuditor, denial_rate_below, graph_from_log

    run_dir = Path(tempfile.mkdtemp(prefix=f"digests-{workload}-"))
    wl = WORKLOADS[workload](
        seed, bench_runner.rounds_for(workload, 10.0), run_dir
    )
    try:
        wl.setup()
        for r in range(wl.rounds):
            wl.run_round(r)
            wl.between_rounds(r)
        for _ in range(bench_runner.DEEP_VERIFIES):
            wl.check.expect("deep verify", wl.verify(mode="deep"), True)
        wl.finish()
        wl.oracles()
        lines: Dict[str, str] = {}
        for name, sink in _sinks(wl.deploy).items():
            lines[f"export:{name}"] = _sha(sink.export())
            if hasattr(sink, "export_checkpoints"):
                lines[f"checkpoints:{name}"] = _sha(sink.export_checkpoints())
            auditor = ComplianceAuditor()
            auditor.register(denial_rate_below(1.0, "denial rate"))
            report = auditor.run(sink)
            lines[f"compliance:{name}"] = _sha(dataclasses.asdict(report))
            lines[f"provenance:{name}"] = _sha(
                _provenance(graph_from_log(sink))
            )
        for path in sorted(run_dir.rglob("*.seg")):
            # Named below the workload's own (randomly named) spill dir.
            name = "/".join(path.relative_to(run_dir).parts[1:])
            lines[f"spill:{name}"] = hashlib.sha256(
                path.read_bytes()
            ).hexdigest()
        for name, value in wl.counts().items():
            lines[f"count:{name}"] = str(value)
        lines["check:failed"] = str(wl.check.failed)
        return lines
    finally:
        wl.close()
        shutil.rmtree(run_dir, ignore_errors=True)


def differences(base: Dict[str, str], change: Dict[str, str]) -> List[str]:
    """One line per name whose value differs or that one side lacks,
    sorted by name.  Pure: no I/O."""
    missing = "<missing>"
    return [
        f"{name}: {base.get(name, missing)} -> {change.get(name, missing)}"
        for name in sorted(base.keys() | change.keys())
        if base.get(name) != change.get(name)
    ]


def _parse(text: str) -> Dict[str, str]:
    return dict(line.split(" ", 1) for line in text.strip().splitlines())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--workload", required=True,
        choices=("ward_stream", "clinic_bus", "vitals_history"),
    )
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--base", help="git ref to compare against")
    parser.add_argument("--checkout", type=Path, default=ROOT)
    args = parser.parse_args(argv)

    if args.base is None:
        for name, value in sorted(
            collect(args.checkout, args.workload, args.seed).items()
        ):
            print(name, value)
        return 0
    runs = []
    with worktree(args.base) as base:
        for checkout in (base, args.checkout):
            runs.append(_parse(subprocess.run(
                [sys.executable, __file__, "--workload", args.workload,
                 "--seed", str(args.seed), "--checkout", str(checkout)],
                check=True, capture_output=True, text=True,
            ).stdout))
    diff = differences(*runs)
    print(f"{args.workload} seed {args.seed}: {args.base} vs "
          f"{args.checkout}, {len(runs[1])} lines, {len(diff)} differ")
    for line in diff:
        print(line)
    return 1 if diff else 0


if __name__ == "__main__":
    sys.exit(main())
