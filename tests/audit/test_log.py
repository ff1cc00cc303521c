"""Tamper-evident audit log (§8.3, Challenge 6)."""

import json

import pytest

from repro.audit import AuditLog, RecordKind
from repro.errors import IntegrityViolation
from repro.ifc import SecurityContext


class TestAppendVerify:
    def test_empty_log_verifies(self, audit):
        assert audit.verify()
        assert len(audit) == 0

    def test_records_get_sequential_seq(self, audit):
        r1 = audit.flow_allowed("a", "b")
        r2 = audit.flow_denied("a", "c", "nope")
        assert (r1.seq, r2.seq) == (0, 1)

    def test_chain_verifies_after_appends(self, audit, ann_device):
        for i in range(50):
            audit.flow_allowed(f"src{i}", "dst", ann_device, ann_device)
        assert audit.verify()

    def test_tampering_with_record_detected(self, audit):
        audit.flow_allowed("a", "b")
        audit.flow_allowed("c", "d")
        record = audit.records()[0]
        object.__setattr__(record, "actor", "mallory")
        assert not audit.verify()
        with pytest.raises(IntegrityViolation):
            audit.verify_strict()

    def test_tampering_with_detail_detected(self, audit):
        record = audit.flow_denied("a", "b", "secret reason")
        record.detail["reason"] = "innocuous reason"
        assert not audit.verify()

    def test_clock_stamps_records(self, sim):
        log = AuditLog(clock=sim.now)
        sim.clock.advance(42.0)
        record = log.flow_allowed("a", "b")
        assert record.timestamp == 42.0


class TestRecordClassification:
    def test_context_change_classifies_declassification(self, audit):
        old = SecurityContext.of(["s"], [])
        new = SecurityContext.public()
        record = audit.context_change("e", old, new)
        assert record.kind == RecordKind.DECLASSIFICATION

    def test_context_change_classifies_endorsement(self, audit):
        old = SecurityContext.public()
        new = SecurityContext.of([], ["i"])
        record = audit.context_change("e", old, new)
        assert record.kind == RecordKind.ENDORSEMENT

    def test_plain_context_change(self, audit):
        old = SecurityContext.public()
        new = SecurityContext.of(["s"], [])
        record = audit.context_change("e", old, new)
        assert record.kind == RecordKind.CONTEXT_CHANGE

    def test_denial_flag(self, audit):
        assert audit.flow_denied("a", "b", "r").is_denial
        assert not audit.flow_allowed("a", "b").is_denial


class TestQueries:
    def _populate(self, audit):
        audit.flow_allowed("sensor", "analyser")
        audit.flow_denied("sensor", "portal", "secrecy")
        audit.reconfiguration("engine", "sensor", "map")
        audit.flow_allowed("analyser", "archive")

    def test_filter_by_kind(self, audit):
        self._populate(audit)
        assert len(audit.records(kind=RecordKind.FLOW_ALLOWED)) == 2

    def test_filter_by_actor_and_subject(self, audit):
        self._populate(audit)
        assert len(audit.records(actor="sensor")) == 2
        assert len(audit.records(subject="archive")) == 1

    def test_filter_by_time_window(self, sim):
        log = AuditLog(clock=sim.now)
        log.flow_allowed("a", "b")
        sim.clock.advance(10.0)
        log.flow_allowed("c", "d")
        assert len(log.records(since=5.0)) == 1
        assert len(log.records(until=5.0)) == 1

    def test_denials_listing(self, audit):
        self._populate(audit)
        denials = audit.denials()
        assert len(denials) == 1
        assert denials[0].subject == "portal"


class TestPruneAndExport:
    def test_prune_keeps_chain_verifiable(self, sim):
        log = AuditLog(clock=sim.now)
        for i in range(10):
            log.flow_allowed(f"a{i}", "b")
            sim.clock.advance(1.0)
        pruned = log.prune_before(5.0)
        assert pruned == 5
        assert len(log) == 5
        assert log.verify()

    def test_prune_nothing(self, audit):
        audit.flow_allowed("a", "b")
        assert audit.prune_before(0.0) == 0

    def test_sequence_numbers_survive_prune(self, sim):
        log = AuditLog(clock=sim.now)
        for i in range(4):
            log.flow_allowed(f"a{i}", "b")
            sim.clock.advance(1.0)
        log.prune_before(2.0)
        assert log.records()[0].seq == 2
        # appends continue the numbering
        record = log.flow_allowed("new", "b")
        assert record.seq == 4

    def test_export_pairs_records_with_digests(self, audit):
        audit.flow_allowed("a", "b")
        audit.flow_allowed("c", "d")
        exported = audit.export()
        assert len(exported) == 2
        assert exported[1]["digest"] == audit.head_digest


def _context_reference(ctx):
    if ctx is None:
        return None
    return {
        "secrecy": sorted(t.qualified for t in ctx.secrecy),
        "integrity": sorted(t.qualified for t in ctx.integrity),
    }


def _reference(record):
    """The reference encoding: one sorted-keys ``json.dumps`` of the
    eight-key body, with contexts walked tag by tag."""
    body = {
        "seq": record.seq,
        "timestamp": record.timestamp,
        "kind": record.kind.value,
        "actor": record.actor,
        "subject": record.subject,
        "detail": record.detail,
        "source_context": _context_reference(record.source_context),
        "target_context": _context_reference(record.target_context),
    }
    return json.dumps(body, sort_keys=True, separators=(",", ":"))


class TestCanonicalEncoding:
    """canonical() assembles from memoised fragments; it must stay
    byte-identical to the reference sorted-keys json.dumps form, since
    chain digests and cold spill files store exactly those bytes."""

    def test_canonical_matches_reference_encoding(self, audit):
        ctx = SecurityContext.of(["medical", "home:tv"], ["vendor"])
        records = [
            audit.flow_allowed("a", "b", ctx, ctx),
            audit.flow_denied("ünïcode", "d", "no — denied", ctx, None),
            audit.append(
                RecordKind.CUSTOM,
                "actor",
                detail={"z": [1, 2.5], "a": {"nested": None, "ok": True}},
            ),
        ]
        for record in records:
            assert record.canonical() == _reference(record)

    def test_canonical_round_trips(self, audit):
        from repro.audit.records import AuditRecord

        ctx = SecurityContext.of(["s1", "s2"], ["i1"])
        record = audit.flow_allowed("a", "b", ctx, ctx)
        rebuilt = AuditRecord.from_canonical(record.canonical())
        assert rebuilt.canonical() == record.canonical()
