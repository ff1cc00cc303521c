"""S-DC — decision-plane scale: memoized flow checks and batched publish.

The decision plane rests on two levers this PR introduced: labels as
interned bitsets (subset = one integer op) and a memo table keyed on
label values.  This bench measures the repeated-pair flow check against
a seed-faithful frozenset reference (the pre-refactor hot path), the
denial path (where the memo table also removes the per-call decision
allocation), and batched vs. single publish; it writes a
machine-readable summary to ``BENCH_decision_plane.json``.
"""

import time
from dataclasses import dataclass
from pathlib import Path
from typing import FrozenSet

import pytest

from repro.audit.log import AuditLog
from repro.ifc import DecisionPlane, Label, SecurityContext, flow_decision
from repro.middleware.bus import MessageBus
from repro.middleware.component import Component, EndpointKind
from repro.middleware.message import MessageType

_SUMMARY = Path(__file__).resolve().parent.parent / "BENCH_decision_plane.json"
_results = {}


# -- seed-faithful reference: the pre-refactor frozenset hot path -----------

@dataclass(frozen=True)
class _FrozensetDecision:
    allowed: bool
    secrecy_ok: bool
    integrity_ok: bool
    missing_secrecy: FrozenSet = frozenset()
    missing_integrity: FrozenSet = frozenset()


def _frozenset_flow_decision(src_s, src_i, dst_s, dst_i):
    """The seed's flow_decision over raw frozensets (its Label stored a
    frozenset field, so this is the same work per call)."""
    secrecy_ok = src_s <= dst_s
    integrity_ok = dst_i <= src_i
    if secrecy_ok and integrity_ok:
        return _FrozensetDecision(True, True, True)
    return _FrozensetDecision(
        False, secrecy_ok, integrity_ok,
        frozenset() if secrecy_ok else src_s - dst_s,
        frozenset() if integrity_ok else dst_i - src_i,
    )


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
    plane.evaluate(a, b)  # warm: everything after this is the hit path

    rounds = 100_000
    seed_rate = _rate(
        lambda: _frozenset_flow_decision(src_s, src_i, dst_s, dst_i), rounds
    )
    bitset_rate = _rate(lambda: flow_decision(a, b), rounds)
    cached_rate = _rate(lambda: plane.evaluate(a, b), rounds)
    speedup = cached_rate / seed_rate

    assert plane.hits >= rounds
    assert plane.evaluate(a, b).allowed
    _results[f"flowcheck_{n_tags}_tags"] = {
        "seed_frozenset_ops_per_s": round(seed_rate),
        "bitset_uncached_ops_per_s": round(bitset_rate),
        "plane_cached_ops_per_s": round(cached_rate),
        "speedup_vs_seed": round(speedup, 2),
        "cache_hits": plane.hits,
        "cache_misses": plane.misses,
    }
    report.row(
        f"{n_tags} tags/label",
        seed=f"{seed_rate/1e6:.2f}M/s",
        bitset=f"{bitset_rate/1e6:.2f}M/s",
        cached=f"{cached_rate/1e6:.2f}M/s",
        speedup=f"{speedup:.2f}x",
    )
    # ≥2x is the acceptance bar at realistic label sizes; the hard assert
    # stays below it so CI jitter can't flake the suite.
    assert speedup > 1.3


def test_sdc_repeated_pair_denial(report):
    """Denied flows: the memo table also elides the per-call decision +
    missing-label construction that explanation requires."""
    a, b = _contexts(32)
    plane = DecisionPlane()
    plane.evaluate(b, a)  # denied direction; warm
    rounds = 100_000
    uncached = _rate(lambda: flow_decision(b, a), rounds)
    cached = _rate(lambda: plane.evaluate(b, a), rounds)
    ratio = cached / uncached
    assert not plane.evaluate(b, a).allowed
    _results["denial_32_tags"] = {
        "uncached_ops_per_s": round(uncached),
        "cached_ops_per_s": round(cached),
        "speedup": round(ratio, 2),
    }
    report.row(
        "denied pair, 32 tags",
        uncached=f"{uncached/1e6:.2f}M/s",
        cached=f"{cached/1e6:.2f}M/s",
        speedup=f"{ratio:.2f}x",
    )
    assert ratio > 1.5


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

    Best-of-3 on each side; the hard assert is only a "batching must not
    be materially slower" tripwire — wall-clock ratios of two short runs
    are too jittery to gate CI on strictly-faster.
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
        "decision_hits": bus_batch.plane.hits,
        "decision_misses": bus_batch.plane.misses,
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
