"""The audit spine: staged emission, segment chains, checkpoints,
pruning, and the enforcement-column wiring (see docs/audit_plane.md)."""

import pytest

from repro.audit import (
    AuditCollector,
    AuditLog,
    AuditSpine,
    RecordKind,
    SpineEmitter,
    bind_source,
)
from repro.errors import IntegrityViolation
from repro.ifc import SecurityContext
from repro.sim import Simulator

CTX = SecurityContext.of(["medical", "ann"], ["hosp-dev"])


def make_spine(**kw):
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, name="audit@test", **kw)
    return sim, spine


class TestStagedEmission:
    def test_emit_is_staged_not_chained(self):
        __, spine = make_spine()
        spine.emit("bus", RecordKind.FLOW_ALLOWED, "a", "b")
        assert spine.pending == 1
        assert len(spine) == 1  # staged records are already visible
        assert spine.drain() == 1
        assert spine.pending == 0

    def test_records_keep_emission_order_across_sources(self):
        sim, spine = make_spine()
        bus = spine.emitter("bus")
        kernel = spine.emitter("kernel")
        for i in range(6):
            (bus if i % 2 == 0 else kernel).flow_allowed(f"actor{i}", "dst")
            sim.clock.advance(1.0)
        spine.drain()
        assert [r.actor for r in spine] == [f"actor{i}" for i in range(6)]
        assert [r.seq for r in spine] == list(range(6))

    def test_ring_capacity_forces_inline_drain(self):
        __, spine = make_spine(ring_capacity=4)
        bus = spine.emitter("bus")
        for i in range(4):
            bus.flow_allowed(f"a{i}", "b")
        assert spine.pending == 0  # capacity reached -> drained
        assert spine.stats_ring_overflows == 1
        assert len(spine.segment("bus").records) == 4
        assert spine.verify()

    def test_clock_tick_drains_in_background(self):
        sim = Simulator()
        spine = AuditSpine(clock=sim.now)
        spine.attach_clock(sim.clock)
        spine.emitter("bus").flow_allowed("a", "b")
        assert spine.pending == 1
        sim.clock.advance(1.0)
        assert spine.pending == 0
        assert spine.verify()

    def test_detach_clock_stops_background_drains(self):
        sim = Simulator()
        spine = AuditSpine(clock=sim.now)
        spine.attach_clock(sim.clock)
        assert spine.detach_clock(sim.clock)
        assert not spine.detach_clock(sim.clock)  # already detached
        spine.emitter("bus").flow_allowed("a", "b")
        sim.clock.advance(1.0)
        assert spine.pending == 1  # no longer tick-drained

    def test_emitters_are_shared_per_source(self):
        __, spine = make_spine()
        assert spine.emitter("bus") is spine.emitter("bus")

    def test_direct_append_uses_default_source(self):
        __, spine = make_spine()
        spine.append(RecordKind.CUSTOM, "a")
        spine.drain()
        assert spine.sources() == ["main"]


class TestSegmentsAndVerify:
    def test_segments_shard_by_source(self):
        sim, spine = make_spine()
        for source in ("bus", "kernel", "substrate"):
            for i in range(3):
                spine.emit(source, RecordKind.FLOW_ALLOWED, f"{source}{i}", "x")
        spine.drain()
        assert spine.sources() == ["bus", "kernel", "substrate"]
        heads = spine.segment_heads()
        assert all(count == 3 for count, __ in heads.values())
        # Distinct sources chain from distinct genesis digests.
        assert len({digest for __, digest in heads.values()}) == 3

    def test_verify_detects_post_drain_mutation(self):
        __, spine = make_spine()
        record = spine.emitter("bus").flow_allowed("a", "b", CTX, CTX)
        spine.drain()
        assert spine.verify()
        object.__setattr__(record, "actor", "mallory")
        assert not spine.verify()
        with pytest.raises(IntegrityViolation):
            spine.verify_strict()

    def test_checkpoint_pins_segment_against_truncation(self):
        __, spine = make_spine()
        bus = spine.emitter("bus")
        for i in range(5):
            bus.flow_allowed(f"a{i}", "b")
        spine.checkpoint()
        # Truncate the segment behind the spine's back (not via prune).
        seg = spine.segment("bus")
        seg.records.pop()
        seg.digests.pop()
        assert not spine.verify()

    def test_checkpoint_chain_itself_is_tamper_evident(self):
        __, spine = make_spine()
        spine.emitter("bus").flow_allowed("a", "b")
        record = spine.checkpoint()
        assert record is not None and record.kind == RecordKind.CHECKPOINT
        object.__setattr__(record, "actor", "mallory")
        assert not spine.verify()

    def test_checkpoint_noop_when_nothing_new(self):
        __, spine = make_spine()
        spine.emitter("bus").flow_allowed("a", "b")
        assert spine.checkpoint() is not None
        assert spine.checkpoint() is None
        assert spine.stats_checkpoints == 1

    def test_checkpoint_cadence_follows_drains(self):
        __, spine = make_spine(checkpoint_every=2)
        bus = spine.emitter("bus")
        for __ in range(2):
            bus.flow_allowed("a", "b")
            spine.drain()
        assert spine.stats_checkpoints == 1

    def test_head_digest_checkpoints_on_demand(self):
        __, spine = make_spine()
        spine.emitter("bus").flow_allowed("a", "b")
        head = spine.head_digest
        assert spine.stats_checkpoints == 1
        assert spine.head_digest == head  # stable until new records

    def test_checkpoints_never_appear_in_record_stream(self):
        __, spine = make_spine()
        spine.emitter("bus").flow_allowed("a", "b")
        spine.checkpoint()
        assert all(r.kind != RecordKind.CHECKPOINT for r in spine.records())
        assert len(spine) == 1
        assert len(spine.checkpoints()) == 1


class TestPruning:
    def _filled(self, n=10):
        sim, spine = make_spine(checkpoint_every=1)
        bus = spine.emitter("bus")
        kernel = spine.emitter("kernel")
        for i in range(n):
            bus.flow_allowed(f"a{i}", "b")
            kernel.flow_denied(f"k{i}", "obj", "no", CTX, CTX)
            sim.clock.advance(1.0)
        spine.drain()
        return sim, spine

    def test_prune_before_keeps_suffix_verifiable(self):
        __, spine = self._filled(10)
        spine.checkpoint()
        pruned = spine.prune_before(5.0)
        assert pruned == 10  # 5 from each segment
        assert len(spine) == 10
        assert spine.verify()
        assert all(r.timestamp >= 5.0 for r in spine)

    def test_prune_then_append_then_verify(self):
        sim, spine = self._filled(6)
        spine.prune_before(3.0)
        spine.emitter("bus").flow_allowed("late", "b")
        assert spine.verify()
        assert "late" in [r.actor for r in spine]

    def test_prune_segment_survives_verification(self):
        __, spine = self._filled(4)
        spine.checkpoint()
        pruned = spine.prune_segment("kernel")
        assert pruned == 4
        assert spine.verify()
        assert len(spine.records(kind=RecordKind.FLOW_DENIED)) == 0
        # the segment's history (position, actors) is retained
        assert spine.segment_heads()["kernel"][0] == 4
        assert "k0" in spine.known_actors()

    def test_prune_prunes_old_checkpoints_too(self):
        sim, spine = make_spine(checkpoint_every=1)
        bus = spine.emitter("bus")
        for i in range(10):
            bus.flow_allowed(f"a{i}", "b")
            spine.drain()  # checkpoint_every=1: one checkpoint per drain
            sim.clock.advance(1.0)
        assert len(spine.checkpoints()) > 1
        spine.prune_before(9.0)
        assert all(c.timestamp >= 9.0 for c in spine.checkpoints())
        assert spine.verify()

    def test_export_carries_segment_attribution(self):
        __, spine = self._filled(2)
        exported = spine.export()
        assert len(exported) == 4
        assert {e["segment"] for e in exported} == {"bus", "kernel"}
        assert all(e["digest"] for e in exported)
        assert spine.export_checkpoints()


class TestBindSource:
    def test_none_stays_none(self):
        assert bind_source(None, "bus") is None

    def test_spine_binds_emitter(self):
        __, spine = make_spine()
        emitter = bind_source(spine, "bus")
        assert isinstance(emitter, SpineEmitter)
        assert emitter.source == "bus"

    def test_emitter_rebinds_to_new_source(self):
        __, spine = make_spine()
        bus = bind_source(spine, "bus")
        channel = bind_source(bus, "channel")
        assert channel.source == "channel"
        assert channel.spine is spine

    def test_plain_log_passes_through(self):
        log = AuditLog()
        assert bind_source(log, "bus") is log

    def test_emitter_is_submittable_as_a_segmented_log(self):
        """An enforcement site's emitter hands the collector the full
        segmented view — receipts over segment heads, pruned reporters
        vouched for — exactly as submitting the spine itself would."""
        __, spine = make_spine()
        bus = spine.emitter("bus")
        spine.emitter("kernel").flow_allowed("mobile-thing", "store")
        bus.flow_allowed("sensor", "mobile-thing")
        spine.prune_segment("kernel")
        collector = AuditCollector(key="k")
        receipt = collector.submit("home", bus)  # the emitter, not the spine
        assert dict(receipt.segment_heads).keys() == {"bus", "kernel"}
        assert all(g.component != "mobile-thing" for g in collector.detect_gaps())
        assert bus.sources() == ["bus", "kernel"]
        assert "mobile-thing" in bus.known_actors()
        assert bus.checkpoint() is None  # submit already checkpointed

    def test_empty_spine_head_digest_is_genesis(self):
        from repro.audit import GENESIS_DIGEST

        __, spine = make_spine()
        assert spine.head_digest == GENESIS_DIGEST
        assert spine.stats_checkpoints == 0  # reading mints no checkpoint
        assert spine.verify()

    def test_emitter_reads_see_whole_spine(self):
        __, spine = make_spine()
        bus = spine.emitter("bus")
        kernel = spine.emitter("kernel")
        bus.flow_allowed("a", "b")
        kernel.flow_denied("x", "y", "no")
        assert len(bus) == 2
        assert len(bus.denials()) == 1
        assert bus.verify()
        assert bus.records(kind=RecordKind.FLOW_ALLOWED)[0].actor == "a"
        assert bus.flush() == 0  # verify() drained already
        assert bus.head_digest == spine.head_digest


class TestSpineEquivalence:
    """A spine and a plain unbuffered log fed the same events tell the
    same story (the hypothesis test in test_spine_properties.py
    generalises this)."""

    def test_record_streams_match(self):
        sim = Simulator()
        spine = AuditSpine(clock=sim.now)
        log = AuditLog(clock=sim.now)
        sources = ["bus", "kernel", "pep:gate"]
        for i in range(12):
            source = sources[i % 3]
            spine.emit(source, RecordKind.FLOW_ALLOWED, f"a{i}", "b", None, CTX, CTX)
            log.flow_allowed(f"a{i}", "b", CTX, CTX)
            sim.clock.advance(1.0)
        spine.drain()
        spine_view = [(r.seq, r.timestamp, r.kind, r.actor) for r in spine]
        log_view = [(r.seq, r.timestamp, r.kind, r.actor) for r in log]
        assert spine_view == log_view
        assert spine.verify() and log.verify()


class TestEnforcementColumnWiring:
    """The sites named in the audit-spine refactor stage through
    per-source segments — no synchronous chaining on the delivery path."""

    def test_decommissioned_machine_detaches_from_the_clock(self):
        from repro.cloud.machine import Machine

        sim = Simulator()
        machine = Machine("churned", clock=sim.clock)
        machine.audit.emitter("kernel").flow_allowed("a", "b")
        machine.decommission()
        machine.decommission()  # idempotent
        assert machine.audit.pending == 0  # final checkpoint drained
        assert machine.audit.verify()
        assert sim.clock.off_advance(machine.audit._on_tick) is False

    def test_machine_kernel_audits_into_kernel_segment(self):
        from repro.cloud.kernel import ObjectKind
        from repro.cloud.machine import Machine

        sim = Simulator()
        machine = Machine("host", clock=sim.clock)
        proc = machine.launch("app", CTX)
        machine.kernel.create_object(proc.pid, ObjectKind.FILE, "f")
        assert isinstance(machine.audit, AuditSpine)
        assert machine.audit.pending > 0  # staged, not chained
        sim.clock.advance(1.0)  # background drain
        assert machine.audit.pending == 0
        assert "kernel" in machine.audit.sources()
        assert machine.audit.verify()

    def test_bus_and_channel_share_the_spine_in_segments(self):
        from repro.middleware.bus import MessageBus
        from repro.middleware.component import Component, EndpointKind
        from repro.middleware.message import AttributeSpec, MessageType

        sim, spine = make_spine()
        bus = MessageBus(audit=spine, clock=sim.now)
        mt = MessageType("reading", [AttributeSpec("v", int)])
        sensor = Component("sensor", owner="ann", context=CTX)
        sensor.add_endpoint("out", EndpointKind.SOURCE, mt)
        sink = Component("sink", owner="ann", context=CTX)
        sink.add_endpoint("in", EndpointKind.SINK, mt)
        bus.register(sensor)
        bus.register(sink)
        channel = bus.connect("ann", sensor, "out", sink, "in")
        bus.publish(sensor, "out", v=1)
        bus.disconnect(channel)
        spine.drain()
        assert "bus" in spine.sources()
        assert "channel" in spine.sources()
        assert spine.verify()
        kinds = [r.kind for r in spine]
        assert RecordKind.CHANNEL_ESTABLISHED in kinds
        assert RecordKind.FLOW_ALLOWED in kinds
        assert RecordKind.CHANNEL_TORN_DOWN in kinds

    def test_substrate_and_kernel_share_machine_spine(self):
        from repro.cloud.machine import Machine
        from repro.middleware.substrate import MessagingSubstrate
        from repro.net.network import Network

        sim = Simulator()
        network = Network(sim)
        machine = Machine("host", clock=sim.clock)
        substrate = MessagingSubstrate(machine, network)
        assert substrate.audit.spine is machine.audit
        assert machine.kernel.security.audit.spine is machine.audit
        assert substrate.audit.source == "substrate"

    def test_datastore_and_pep_claim_their_segments(self):
        from repro.accesscontrol.pep import EnforcementPoint
        from repro.cloud.datastore import LabelledStore

        sim, spine = make_spine()
        store = LabelledStore("patients", audit=spine, clock=sim.now)
        store.insert("app", {"hr": 72}, CTX)
        pep = EnforcementPoint("gate", audit=spine)
        pep.check(None, "read", "patients", CTX, CTX)
        spine.drain()
        assert "datastore:patients" in spine.sources()
        assert "pep:gate" in spine.sources()
        assert spine.verify()


class TestSpineOffload:
    def test_collector_accepts_spine_with_segment_receipt(self):
        sim, spine = make_spine()
        spine.emitter("bus").flow_allowed("a", "b", CTX, CTX)
        spine.emitter("kernel").flow_allowed("k", "obj", CTX, CTX)
        collector = AuditCollector(key="regulator")
        receipt = collector.submit("home", spine)
        assert receipt is not None
        assert receipt.record_count == 2
        assert dict(receipt.segment_heads).keys() == {"bus", "kernel"}
        assert receipt.verify("regulator")
        assert not receipt.verify("imposter")
        # The receipt head is the checkpoint-chain head binding the
        # segment heads it lists.
        assert receipt.head_digest == spine.head_digest

    def test_collector_rejects_tampered_spine(self):
        __, spine = make_spine()
        record = spine.emitter("bus").flow_allowed("a", "b")
        spine.drain()
        object.__setattr__(record, "subject", "mallory")
        collector = AuditCollector()
        assert collector.submit("evil", spine) is None
        assert "evil" in collector.rejected_domains

    def test_pruned_segment_is_not_a_false_gap(self):
        sim, spine = make_spine()
        # mobile-thing reports through the kernel segment...
        spine.emitter("kernel").flow_allowed("mobile-thing", "store", CTX, CTX)
        # ...and is referenced as a subject in the bus segment.
        spine.emitter("bus").flow_allowed("sensor", "mobile-thing", CTX, CTX)
        spine.prune_segment("kernel")
        assert spine.verify()
        collector = AuditCollector()
        collector.submit("home", spine)
        gaps = collector.detect_gaps()
        assert all(g.component != "mobile-thing" for g in gaps)

    def test_never_reporting_component_is_still_a_gap(self):
        sim, spine = make_spine()
        spine.emitter("bus").flow_allowed("sensor", "ghost")
        collector = AuditCollector()
        collector.submit("home", spine)
        assert [g.component for g in collector.detect_gaps()] == ["ghost"]
