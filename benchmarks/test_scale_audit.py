"""S3 — Challenge 6: audit-log throughput, pruning, federated offload —
plus SAP, the audit-plane benches (docs/audit_plane.md).

"What should be recorded, and when? ... When can logs safely be pruned?
Can logs be offloaded to others for distributed audit?"  Measured:
append throughput (hash chaining per record), verification, prune, and
multi-domain offload/merge cost; then the audit spine against the
synchronous hash-chain append it replaced on the delivery path, across
1/4/16 emitting sources.  A machine-readable summary goes to
``BENCH_audit_plane.json``.  Target: ≥3x on the audited publish/deliver
hot path versus synchronous chaining.  The wall-clock ratio asserts gate
per ``strict_gate`` in ``benchmarks/conftest.py``.
"""

import gc
import json
import os
import time
from pathlib import Path

import pytest

from repro.audit import AuditCollector, AuditLog, AuditSpine
from repro.ifc import SecurityContext
from repro.sim import Simulator

CTX = SecurityContext.of(["medical", "ann"], ["hosp-dev"])

_SUMMARY = Path(__file__).resolve().parent.parent / "BENCH_audit_plane.json"
_results = {}

#: Records per SAP emission round.  CI smoke runs set this lower
#: (AUDIT_BENCH_RECORDS=4000) so the bench stays a smoke test on shared
#: runners; the ratio asserts hold at both scales.
SAP_RECORDS = int(os.environ.get("AUDIT_BENCH_RECORDS", "20000"))


def filled_log(n: int) -> AuditLog:
    sim = Simulator()
    log = AuditLog(clock=sim.now)
    for i in range(n):
        log.flow_allowed(f"src{i % 20}", f"dst{i % 10}", CTX, CTX)
        sim.clock.advance(1.0)
    return log


@pytest.mark.parametrize("n", [100, 1000, 5000])
def test_s3_append_throughput(report, benchmark, n):
    def fill():
        return filled_log(n)

    log = benchmark.pedantic(fill, rounds=3, iterations=1)
    assert len(log) == n
    report.row(f"append {n} records", head=log.head_digest[:12])


@pytest.mark.parametrize("n", [1000, 5000])
def test_s3_verification(report, benchmark, n):
    log = filled_log(n)
    assert benchmark(log.verify)
    report.row(f"verify {n} records", ok=True)


def test_s3_prune_preserves_verifiability(report, benchmark):
    def prune_round():
        log = filled_log(2000)
        pruned = log.prune_before(1000.0)
        return log, pruned

    log, pruned = benchmark.pedantic(prune_round, rounds=3, iterations=1)
    assert pruned == 1000
    assert log.verify()
    report.row("prune 1000 of 2000", retained=len(log),
               still_verifies=log.verify())


@pytest.mark.parametrize("domains", [5, 20])
def test_s3_federated_offload(report, benchmark, domains):
    logs = {f"domain-{i}": filled_log(200) for i in range(domains)}

    def offload():
        collector = AuditCollector(key="regulator")
        for name, log in logs.items():
            collector.submit(name, log)
        return collector.merged()

    merged = benchmark(offload)
    assert len(merged) == domains * 200
    report.row(f"{domains} domains x 200 records", merged=len(merged))


def test_s3_gap_detection_cost(report, benchmark):
    collector = AuditCollector()
    for i in range(10):
        log = filled_log(200)
        # silent components appear as subjects only
        log.flow_allowed("sensor", f"mobile-{i}")
        collector.submit(f"domain-{i}", log)

    gaps = benchmark(collector.detect_gaps)
    mobile_gaps = [g for g in gaps if g.component.startswith("mobile-")]
    assert len(mobile_gaps) == 10
    report.row("gap scan over 10 domains", gaps=len(gaps),
               mobile_things=len(mobile_gaps))


# -- SAP: the audit spine vs synchronous chaining ---------------------------


def _sync_fill(n_records, n_sources):
    log = AuditLog()
    sources = [f"src{i}" for i in range(n_sources)]
    start = time.perf_counter()
    for i in range(n_records):
        log.flow_allowed(sources[i % n_sources], "dst", CTX, CTX)
    return log, time.perf_counter() - start


def _spine_fill(n_records, n_sources):
    # Unbounded ring: the bench isolates the staged-emission hot path;
    # drain cost is measured separately (it runs off the delivery path).
    spine = AuditSpine(ring_capacity=1 << 30)
    emitters = [spine.emitter(f"src{i}") for i in range(n_sources)]
    start = time.perf_counter()
    for i in range(n_records):
        emitters[i % n_sources].flow_allowed("actor", "dst", CTX, CTX)
    emit_s = time.perf_counter() - start
    start = time.perf_counter()
    spine.drain()
    drain_s = time.perf_counter() - start
    return spine, emit_s, drain_s


@pytest.mark.parametrize("n_sources", [1, 4, 16])
def test_sap_emission_off_the_delivery_path(report, strict_gate, n_sources):
    """The audited hot path: staged spine emission vs the synchronous
    hash-chain append every enforcement site used to run per record."""
    n = SAP_RECORDS
    sync_s = emit_s = drain_s = float("inf")
    for __ in range(4):
        gc.collect()  # keep collector pauses out of the timed sections
        log, s = _sync_fill(n, n_sources)
        sync_s = min(sync_s, s)
        gc.collect()
        spine, e, d = _spine_fill(n, n_sources)
        emit_s = min(emit_s, e)
        drain_s = min(drain_s, d)
    assert len(log) == len(spine) == n
    assert spine.verify() and log.verify()
    speedup = sync_s / emit_s
    _results[f"emission_{n_sources}_sources"] = {
        "records": n,
        "sync_append_s": round(sync_s, 4),
        "spine_emit_s": round(emit_s, 4),
        "spine_drain_s": round(drain_s, 4),
        "hot_path_speedup": round(speedup, 2),
    }
    report.row(
        f"{n_sources} sources x {n} records",
        sync=f"{sync_s*1e3:.0f}ms",
        emit=f"{emit_s*1e3:.0f}ms",
        drain_offline=f"{drain_s*1e3:.0f}ms",
        speedup=f"{speedup:.1f}x",
        gate=">=3.0x" if strict_gate else "report-only",
    )
    # The acceptance bar: >=3x with emission staged off the delivery
    # path (measured ~6-7x; the margin absorbs jitter).
    assert not strict_gate or speedup >= 3.0


def _fanout_bus(audit, n_sinks):
    from repro.middleware.bus import MessageBus
    from repro.middleware.component import Component, EndpointKind
    from repro.middleware.message import AttributeSpec, MessageType

    bus = MessageBus(audit=audit)
    mt = MessageType("reading", [AttributeSpec("v", int)])
    sensor = Component("sensor", owner="o", context=CTX)
    sensor.add_endpoint("out", EndpointKind.SOURCE, mt)
    bus.register(sensor)
    for i in range(n_sinks):
        sink = Component(f"sink{i}", owner="o", context=CTX)
        sink.add_endpoint("in", EndpointKind.SINK, mt)
        bus.register(sink)
        bus.connect("o", sensor, "out", sink, "in")
    return bus, sensor


def test_sap_publish_deliver_end_to_end(report, strict_gate):
    """Whole-bus fan-out with per-delivery audit: spine-backed vs a
    synchronous log.  End-to-end includes routing/quench/cache work the
    spine cannot touch, so the ratio sits below the pure-emission one."""
    n_msgs, n_sinks = 2_000, 8
    sync_s = spine_s = drain_s = float("inf")
    for __ in range(3):
        bus, sensor = _fanout_bus(AuditLog(), n_sinks)
        start = time.perf_counter()
        for i in range(n_msgs):
            bus.publish(sensor, "out", v=i)
        sync_s = min(sync_s, time.perf_counter() - start)

        spine = AuditSpine(ring_capacity=1 << 30)
        bus2, sensor2 = _fanout_bus(spine, n_sinks)
        start = time.perf_counter()
        for i in range(n_msgs):
            bus2.publish(sensor2, "out", v=i)
        spine_s = min(spine_s, time.perf_counter() - start)
        start = time.perf_counter()
        spine.drain()
        drain_s = min(drain_s, time.perf_counter() - start)

    assert bus2.stats.delivered == bus.stats.delivered == n_msgs * n_sinks
    assert spine.verify()
    speedup = sync_s / spine_s
    _results["publish_deliver_e2e"] = {
        "messages": n_msgs,
        "sinks": n_sinks,
        "sync_publish_s": round(sync_s, 4),
        "spine_publish_s": round(spine_s, 4),
        "spine_drain_s": round(drain_s, 4),
        "speedup": round(speedup, 2),
    }
    report.row(
        f"{n_msgs} msgs x {n_sinks} sinks",
        sync=f"{sync_s*1e3:.0f}ms",
        spine=f"{spine_s*1e3:.0f}ms",
        speedup=f"{speedup:.2f}x",
        gate=">1.5x" if strict_gate else "report-only",
    )
    assert not strict_gate or speedup > 1.5


def test_sap_guarantees_survive_drain_checkpoint_prune(report):
    """End-to-end tamper-evidence: emit across sources with time
    advancing, drain on ticks, checkpoint, prune — verify stays clean
    and offload receipts still bind the segment heads."""
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, name="audit@bench", checkpoint_every=2)
    spine.attach_clock(sim.clock)
    emitters = [spine.emitter(f"src{i}") for i in range(4)]
    for i in range(2_000):
        emitters[i % 4].flow_allowed(f"actor{i % 50}", "dst", CTX, CTX)
        if i % 100 == 99:
            sim.clock.advance(1.0)  # ticks drain in the background

    start = time.perf_counter()
    assert spine.verify()
    verify_s = time.perf_counter() - start
    spine.checkpoint()
    pruned = spine.prune_before(10.0)
    assert pruned > 0
    assert spine.verify()

    collector = AuditCollector(key="regulator")
    receipt = collector.submit("bench", spine)
    assert receipt is not None and receipt.verify("regulator")
    assert len(receipt.segment_heads) == 4

    _results["guarantees"] = {
        "records": 2_000,
        "pruned": pruned,
        "checkpoints": spine.stats_checkpoints,
        "verify_s": round(verify_s, 4),
        "verified_after_drain_checkpoint_prune": True,
        "offload_receipt_over_segment_heads": True,
    }
    report.row(
        "drain+checkpoint+prune+offload",
        pruned=pruned,
        checkpoints=spine.stats_checkpoints,
        verify=f"{verify_s*1e3:.1f}ms",
    )


def test_sap_write_summary(report, write_summary):
    """Runs last among the SAP benches: persist BENCH_audit_plane.json."""
    if not _results:
        pytest.skip("no SAP benches ran in this session (deselected)")
    written = write_summary(_SUMMARY, _results)
    report.row("summary", path=_SUMMARY.name, written=written,
               entries=len(_results))
