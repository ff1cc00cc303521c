"""S-DC — decision-plane scale: the enforcing flow check.

The decision plane rests on labels as interned bitsets (subset = one
integer op), evaluated directly at every enforcement point.  This bench
times the repeated-pair flow check through ``DecisionPlane.evaluate`` —
the path that enforces — against the seed's frozenset procedure
(``tests/reference/frozenset_flow.py``) and against bare
``flow_decision``; it writes a machine-readable summary to
``BENCH_decision_plane.json``.  The wall-clock ratio asserts gate per
``strict_gate`` in ``benchmarks/conftest.py``.
"""

import time
from pathlib import Path

import pytest

from repro.ifc import DecisionPlane, SecurityContext, flow_decision
from tests.reference.frozenset_flow import frozenset_flow_decision

_SUMMARY = Path(__file__).resolve().parent.parent / "BENCH_decision_plane.json"
_results = {}


def _contexts(n_tags):
    tags = [f"dc{i}" for i in range(n_tags)]
    a = SecurityContext.of(tags, tags[: n_tags // 2])
    b = SecurityContext.of(tags + ["extra"], tags[: n_tags // 4])
    return a, b


def _rate(fn, rounds):
    start = time.perf_counter()
    for __ in range(rounds):
        fn()
    return rounds / (time.perf_counter() - start)


@pytest.mark.parametrize("n_tags", [16, 128])
def test_sdc_repeated_pair_flowcheck(report, strict_gate, n_tags):
    """Repeated-pair flow check: seed frozenset path vs the decision plane."""
    a, b = _contexts(n_tags)
    src_s, src_i = a.secrecy.tags, a.integrity.tags
    dst_s, dst_i = b.secrecy.tags, b.integrity.tags
    plane = DecisionPlane()

    rounds = 100_000
    seed_rate = _rate(
        lambda: frozenset_flow_decision(src_s, src_i, dst_s, dst_i), rounds
    )
    bitset_rate = _rate(lambda: flow_decision(a, b), rounds)
    plane_rate = _rate(lambda: plane.evaluate(a, b), rounds)
    speedup = plane_rate / seed_rate

    assert plane.evaluate(a, b).allowed
    _results[f"flowcheck_{n_tags}_tags"] = {
        "seed_frozenset_ops_per_s": round(seed_rate),
        "bitset_flow_decision_ops_per_s": round(bitset_rate),
        "plane_evaluate_ops_per_s": round(plane_rate),
        "speedup_vs_seed": round(speedup, 2),
    }
    report.row(
        f"{n_tags} tags/label",
        seed=f"{seed_rate/1e6:.2f}M/s",
        bitset=f"{bitset_rate/1e6:.2f}M/s",
        plane=f"{plane_rate/1e6:.2f}M/s",
        speedup=f"{speedup:.2f}x",
    )
    # ≥2x is the acceptance bar at realistic label sizes; the hard assert
    # stays below it so CI jitter can't flake the suite.
    assert not strict_gate or speedup > 1.3


def test_sdc_write_summary(report, write_summary):
    """Runs last in this module: persist the summary JSON."""
    assert _results, "ratio benchmarks must run before the summary"
    written = write_summary(_SUMMARY, _results)
    report.row("summary", path=_SUMMARY.name, written=written,
               entries=len(_results))
