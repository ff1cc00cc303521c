"""S-DC — decision-plane scale: the enforcing flow check and batched publish.

The decision plane rests on labels as interned bitsets (subset = one
integer op), evaluated directly at every enforcement point.  This bench
times the repeated-pair flow check through ``DecisionPlane.evaluate`` —
the path that enforces — against the seed's frozenset procedure
(``tests/reference/frozenset_flow.py``) and against bare
``flow_decision``, plus batched vs. single publish; it writes a
machine-readable summary to ``BENCH_decision_plane.json``.
"""

import time
from pathlib import Path

import pytest

from repro.audit.log import AuditLog
from repro.ifc import DecisionPlane, SecurityContext, flow_decision
from repro.middleware.bus import MessageBus
from repro.middleware.component import Component, EndpointKind
from repro.middleware.message import MessageType
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
def test_sdc_repeated_pair_flowcheck(report, n_tags):
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
    assert speedup > 1.3


def _fanout_bus(n_sinks, buffer_size):
    audit = AuditLog(buffer_size=buffer_size)
    bus = MessageBus(audit=audit)
    reading = MessageType.simple("reading", value=float)
    ctx = SecurityContext.of(["medical"], [])
    sensor = Component("sensor", ctx, owner="ann")
    sensor.add_endpoint("out", EndpointKind.SOURCE, reading)
    bus.register(sensor)
    for i in range(n_sinks):
        sink = Component(f"sink{i}", ctx, owner="ann")
        sink.add_endpoint("in", EndpointKind.SINK, reading)
        bus.register(sink)
        bus.connect("ann", sensor, "out", sink, "in")
    return bus, sensor, audit


def test_sdc_batched_vs_single_publish(report):
    """Fan-out publish: publish() per message vs one publish_batch().

    ``publish_batch`` is a loop over ``publish`` with one audit flush at
    the end, so the two sides differ only in when the chain is hashed
    (per append vs one buffered chunk).  Best-of-3 on each side; the
    hard assert is only a "batching must not be materially slower"
    tripwire — wall-clock ratios of two short runs are too jittery to
    gate CI on strictly-faster.
    """
    n_sinks, n_msgs = 8, 250
    batch = [{"value": float(i)} for i in range(n_msgs)]

    single_s = batch_s = float("inf")
    for __ in range(3):
        bus_single, sensor_single, audit_single = _fanout_bus(n_sinks, buffer_size=0)
        start = time.perf_counter()
        for values in batch:
            bus_single.publish(sensor_single, "out", **values)
        single_s = min(single_s, time.perf_counter() - start)

        bus_batch, sensor_batch, audit_batch = _fanout_bus(n_sinks, buffer_size=1024)
        start = time.perf_counter()
        rep = bus_batch.publish_batch(sensor_batch, "out", batch)
        batch_s = min(batch_s, time.perf_counter() - start)

        assert rep.delivered == n_msgs * n_sinks
        assert rep.delivered == bus_single.stats.delivered
        assert audit_batch.verify() and audit_single.verify()
        assert len(audit_batch) == len(audit_single)

    ratio = single_s / batch_s
    _results["publish_fanout"] = {
        "sinks": n_sinks,
        "messages": n_msgs,
        "single_publish_s": round(single_s, 4),
        "publish_batch_s": round(batch_s, 4),
        "speedup": round(ratio, 2),
    }
    report.row(
        f"{n_msgs} msgs x {n_sinks} sinks",
        single=f"{single_s*1e3:.1f}ms",
        batched=f"{batch_s*1e3:.1f}ms",
        speedup=f"{ratio:.2f}x",
    )
    assert ratio > 0.8


def test_sdc_write_summary(report, write_summary):
    """Runs last in this module: persist the summary JSON."""
    assert _results, "ratio benchmarks must run before the summary"
    written = write_summary(_SUMMARY, _results)
    report.row("summary", path=_SUMMARY.name, written=written,
               entries=len(_results))
