"""Benchmark harness helpers.

Every benchmark regenerates one of the paper's figures (scenarios — the
paper has no measured tables) and prints the rows/series via the
``report`` fixture, so `pytest benchmarks/ --benchmark-only -s` shows the
reproduced shape next to the timing numbers.  EXPERIMENTS.md records the
outcome of each.
"""

from __future__ import annotations

import json
import os

import pytest


class Reporter:
    """Collects experiment rows and prints them at teardown."""

    def __init__(self, title: str):
        self.title = title
        self.rows: list = []

    def row(self, label: str, **values) -> None:
        self.rows.append((label, values))

    def render(self) -> str:
        lines = [f"\n=== {self.title} ==="]
        for label, values in self.rows:
            rendered = "  ".join(f"{k}={v}" for k, v in values.items())
            lines.append(f"  {label:<40} {rendered}")
        return "\n".join(lines)


@pytest.fixture
def report(request, capsys):
    reporter = Reporter(request.node.name)
    yield reporter
    if reporter.rows:
        with capsys.disabled():
            print(reporter.render())


@pytest.fixture
def write_summary():
    """Persist a bench's ``BENCH_*.json`` summary, only when asked.

    The summaries are tracked files, so a plain test run must not
    rewrite them: they are written when ``BENCH_WRITE=1`` (the Makefile
    ``bench*`` targets set it).  Returns whether the file was written.
    """

    def write(path, results) -> bool:
        if os.environ.get("BENCH_WRITE") != "1":
            return False
        path.write_text(json.dumps(results, indent=2) + "\n")
        return True

    return write


@pytest.fixture(scope="module")
def strict_gate(request):
    """Whether this module's wall-clock ratio asserts gate.

    ``BENCH_STRICT=0`` demotes them to report-only and ``=1`` forces
    them.  Unset means *auto*: strict when this module is the only one
    in the session (as under ``make bench-*``), report-only when it
    shares one — the long-lived heaps earlier modules leave behind shift
    GC cadence and cache state enough to swamp a ratio bound.  The
    functional asserts (counts, identity, verification) always gate.
    """
    env = os.environ.get("BENCH_STRICT")
    if env is not None:
        return env != "0"
    here = request.path
    return all(item.path == here for item in request.session.items)
