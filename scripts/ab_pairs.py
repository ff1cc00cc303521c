"""Alternating A/B pairs of the end-to-end benchmark: a base ref vs the
working tree.

    python scripts/ab_pairs.py --base HEAD~1 --workload ward_stream --pairs 10

Checks ``--base`` out into a temporary ``git worktree``, then runs
``perfbench/run.py`` (at its own run length) in the base and in this
working tree alternately, the base first on odd pairs and the change
first on even ones, so drift in machine speed lands on both sides.  A run whose last JSON line is
not ``"correct": true`` stops the script.

For each end-to-end metric declared in ``BENCHMARK.json`` (read, never
written) it prints the base median and interquartile range, the change
median, the relative delta, how many pairs the change won, and a
verdict against the metric's ``bound``: ``within``, ``worse`` (the delta
is worse than the bound), or ``unresolved`` when the base's own IQR is
wider than the bound -- unless every change run reads better than every
base run, or every one worse, which settles the comparison whatever the
spread.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from contextlib import contextmanager
from pathlib import Path
from typing import Dict, Iterator, List, Sequence

ROOT = Path(__file__).resolve().parent.parent


@contextmanager
def worktree(ref: str) -> Iterator[Path]:
    """``ref`` checked out in a temporary ``git worktree``, removed on
    exit."""
    path = Path(tempfile.mkdtemp(prefix="ab-base-")) / "base"
    subprocess.run(
        ["git", "worktree", "add", "--detach", str(path), ref],
        cwd=ROOT, check=True, capture_output=True,
    )
    try:
        yield path
    finally:
        subprocess.run(
            ["git", "worktree", "remove", "--force", str(path)],
            cwd=ROOT, capture_output=True,
        )
        shutil.rmtree(path.parent, ignore_errors=True)


def _quartiles(values: Sequence[float]):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def parse_run(line: str) -> Dict[str, float]:
    """The metric values of one run's last output line; raises
    ValueError unless the run reported ``"correct": true``."""
    run = json.loads(line)
    if run.get("correct") is not True:
        raise ValueError(
            f"run not correct: {run.get('failed')} of "
            f"{run.get('attempted')} operations failed"
        )
    return {name: m["value"] for name, m in run["metrics"].items()}


def summarise(
    base_lines: Sequence[str],
    change_lines: Sequence[str],
    end_to_end: Sequence[Dict],
) -> List[Dict]:
    """One row per declared metric, from paired runs' JSON lines.

    ``base_lines[i]`` and ``change_lines[i]`` are pair ``i``;
    ``end_to_end`` is ``BENCHMARK.json``'s list of metric declarations
    (name, unit, better, bound).  Pure: no I/O.
    """
    if len(base_lines) != len(change_lines) or not base_lines:
        raise ValueError("need the same, non-zero number of base and change runs")
    base = [parse_run(line) for line in base_lines]
    change = [parse_run(line) for line in change_lines]
    rows = []
    for spec in end_to_end:
        name = spec["name"]
        if name not in base[0]:
            continue
        lower = spec["better"] == "lower"
        b = [run[name] for run in base]
        c = [run[name] for run in change]
        b_med, c_med = statistics.median(b), statistics.median(c)
        q1, q3 = _quartiles(b)
        delta = (c_med - b_med) / b_med if b_med else 0.0
        worse = delta if lower else -delta
        wins = sum(
            (cv < bv) if lower else (cv > bv) for bv, cv in zip(b, c)
        )
        iqr = (q3 - q1) / b_med if b_med else 0.0
        dominated = max(c) < min(b) or min(c) > max(b)
        if iqr > spec["bound"] and not dominated:
            verdict = "unresolved"
        elif worse > spec["bound"]:
            verdict = "worse"
        else:
            verdict = "within"
        rows.append({
            "metric": name,
            "unit": spec["unit"],
            "base_median": b_med,
            "base_iqr": q3 - q1,
            "change_median": c_med,
            "delta": delta,
            "wins": wins,
            "pairs": len(b),
            "bound": spec["bound"],
            "verdict": verdict,
        })
    return rows


def format_rows(rows: Sequence[Dict]) -> str:
    lines = [
        f"{'metric':<14} {'base med':>11} {'base IQR':>10} {'change med':>11} "
        f"{'delta':>8} {'wins':>6}  verdict (bound)"
    ]
    for row in rows:
        lines.append(
            f"{row['metric']:<14} {row['base_median']:>11.5g} "
            f"{row['base_iqr']:>10.3g} {row['change_median']:>11.5g} "
            f"{row['delta']:>+8.1%} {row['wins']:>3}/{row['pairs']:<2}  "
            f"{row['verdict']} ({row['bound']:.0%}) {row['unit']}"
        )
    return "\n".join(lines)


def _run(checkout: Path, workload: str, seed: int) -> str:
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout
    line = out.strip().splitlines()[-1]
    parse_run(line)  # refuse an incorrect run at once
    return line


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", default="HEAD", help="git ref")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)

    end_to_end = json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]
    base_lines: List[str] = []
    change_lines: List[str] = []
    try:
        with worktree(args.base) as base:
            for pair in range(1, args.pairs + 1):
                order = [(base, base_lines), (ROOT, change_lines)]
                if pair % 2 == 0:
                    order.reverse()
                for checkout, lines in order:
                    lines.append(_run(checkout, args.workload, args.seed))
                print(f"pair {pair}/{args.pairs} done", file=sys.stderr)
    except (ValueError, subprocess.CalledProcessError) as err:
        print(f"ab_pairs: {err}", file=sys.stderr)
        return 1
    print(f"{args.workload} seed {args.seed}: {args.base} vs working tree, "
          f"{args.pairs} alternating pairs")
    print(format_rows(summarise(base_lines, change_lines, end_to_end)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
