"""The audit-query plane: AuditQuery over tiered spines and flat logs,
index-probe accounting, and the tiered ≡ flat equivalence property
(see docs/audit_storage.md)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import (
    AuditLog,
    AuditQuery,
    AuditSpine,
    ComplianceAuditor,
    RecordKind,
    denial_rate_below,
    no_flows_to,
    record_matches,
)
from repro.ifc import SecurityContext
from repro.sim import Simulator

CTX = SecurityContext.of(["medical", "ann"], ["hosp-dev"])
STATS_CTX = SecurityContext.of(["stats"], [])


def make_spine(tmp_path=None, **kw):
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, name="audit@test", **kw)
    if tmp_path is not None:
        spine.configure_spill(tmp_path, hot_segments=1, seal_every=8)
    return sim, spine


def seed_events(sim, spine, n=40):
    for i in range(n):
        kind = (
            RecordKind.FLOW_DENIED if i % 5 == 0 else RecordKind.FLOW_ALLOWED
        )
        ctx = CTX if i % 3 == 0 else STATS_CTX
        spine.emit(
            "bus", kind, f"actor{i % 4}", f"dev{i % 7}", {"i": i}, ctx, ctx
        )
        sim.clock.advance(1.0)
    spine.drain()


class TestAuditQueryOverTiers:
    def test_results_equal_flat_filter(self, tmp_path):
        sim, spine = make_spine(tmp_path)
        seed_events(sim, spine)
        q = AuditQuery(spine)
        flat = list(spine)
        for filters in (
            dict(actor="actor1"),
            dict(entity="dev3"),
            dict(kind=RecordKind.FLOW_DENIED),
            dict(tag="local:ann"),
            dict(since=10.0, until=25.0),
            dict(actor="actor2", tag="local:stats", since=5.0),
        ):
            expect = [r for r in flat if record_matches(r, **filters)]
            assert q.query(**filters) == expect

    def test_index_probes_skip_segments(self, tmp_path):
        sim, spine = make_spine(tmp_path)
        seed_events(sim, spine)
        q = AuditQuery(spine)
        q.time_range(since=0.0, until=5.0)  # lives in the first segment
        stats = q.last_stats
        assert stats.segments_total >= 4
        assert stats.segments_scanned < stats.segments_total
        assert stats.segments_skipped > 0

    def test_cold_loads_counted(self, tmp_path):
        sim, spine = make_spine(tmp_path)
        seed_events(sim, spine)
        assert spine.tier_stats()["cold_segments"] > 0
        q = AuditQuery(spine)
        q.query(tag="local:medical")  # present in every segment
        assert q.last_stats.cold_loads > 0
        assert spine.tier_stats()["cold_loads"] > 0

    def test_impossible_filter_scans_no_segments(self, tmp_path):
        sim, spine = make_spine(tmp_path)
        seed_events(sim, spine)
        q = AuditQuery(spine)
        assert q.by_actor("mallory") == []
        assert q.last_stats.segments_scanned == 0

    def test_query_sees_staged_records(self, tmp_path):
        sim, spine = make_spine(tmp_path)
        spine.emit("bus", RecordKind.FLOW_ALLOWED, "late", "dev", {}, CTX)
        q = AuditQuery(spine)
        assert [r.actor for r in q.by_actor("late")] == ["late"]

    def test_flat_log_fallback(self):
        sim = Simulator()
        log = AuditLog(clock=sim.now)
        log.flow_allowed("a", "b", CTX, CTX)
        log.flow_denied("a", "c", "no", CTX, CTX)
        q = AuditQuery(log)
        assert len(q.by_kind(RecordKind.FLOW_DENIED)) == 1
        assert q.last_stats.records_scanned == 2
        assert q.by_entity("b")[0].subject == "b"

    def test_by_tag_accepts_tag_objects(self, tmp_path):
        sim, spine = make_spine(tmp_path)
        seed_events(sim, spine, n=6)
        tag = next(iter(CTX.secrecy))
        q = AuditQuery(spine)
        assert q.by_tag(tag) == q.by_tag(tag.qualified)


def _old_records_filter(records, kind=None, actor=None, subject=None,
                        since=None, until=None):
    """The merged-scan filter ``AuditSpine.records`` used to hand-roll."""
    result = []
    for r in records:
        if kind is not None and r.kind != kind:
            continue
        if actor is not None and r.actor != actor:
            continue
        if subject is not None and r.subject != subject:
            continue
        if since is not None and r.timestamp < since:
            continue
        if until is not None and r.timestamp > until:
            continue
        result.append(r)
    return result


class TestRecordsIsQuery:
    def test_records_equals_the_merged_scan_filter(self, tmp_path):
        sim = Simulator()
        spine = AuditSpine(clock=sim.now, name="audit@test")
        spine.configure_spill(tmp_path, hot_segments=1, seal_every=8)
        seed_events(sim, spine, n=43)  # 5 sealed, 3 in the tail
        spine.emit("kernel", RecordKind.FLOW_ALLOWED, "actor1", "", {}, CTX)
        spine.drain()
        store = spine._store
        sealed = store.sealed["bus"]
        assert any(c.is_cold for c in sealed)
        assert any(not c.is_cold for c in sealed)
        assert store.tails["bus"].count
        for filters in (
            dict(),
            dict(kind=RecordKind.FLOW_DENIED),
            dict(actor="actor1"),
            dict(actor="late"),
            dict(subject="dev3"),
            dict(subject=""),
            dict(actor="actor2", subject="dev6", since=3.0),
            dict(kind=RecordKind.FLOW_ALLOWED, subject="dev2", until=30.0),
            dict(since=12.0, until=35.0),
            dict(actor="mallory"),
        ):
            # Staged, not yet drained: records() must still see these.
            spine.emit(
                "bus", RecordKind.FLOW_DENIED, "actor1", "dev3", {}, CTX
            )
            spine.emit("kernel", RecordKind.FLOW_ALLOWED, "late", "", {}, CTX)
            assert spine.pending == 2
            # list(spine) is the merged stream and does not drain.
            expect = _old_records_filter(list(spine), **filters)
            assert spine.records(**filters) == expect, filters
        assert spine.verify()


class TestCompliancePortability:
    def _violating(self, sink):
        sink.flow_allowed("eu-sensor", "us-store", CTX, CTX)
        for __ in range(3):
            sink.flow_allowed("eu-sensor", "eu-store", CTX, CTX)

    def test_checkers_agree_across_sink_kinds(self, tmp_path):
        sim = Simulator()
        log = AuditLog(clock=sim.now)
        spine = AuditSpine(clock=sim.now, name="audit@test")
        spine.configure_spill(tmp_path, hot_segments=0, seal_every=2)
        self._violating(log)
        self._violating(spine.emitter("bus"))
        spine.drain()
        assert spine.tier_stats()["cold_segments"] > 0
        auditor = ComplianceAuditor()
        auditor.register(no_flows_to({"us-store"}, {"eu-sensor"}, "residency"))
        auditor.register(denial_rate_below(0.5, "healthy"))
        flat, tiered = auditor.run(log), auditor.run(spine)
        assert [f.satisfied for f in flat.findings] == \
            [f.satisfied for f in tiered.findings]
        assert not tiered.compliant  # the cold-tier flow is still seen


SOURCES = ["bus", "kernel"]
ACTORS = ["alice", "bob", "carol"]
# "" is a subject like any other: its posting list must be found too.
SUBJECTS = ["hr-monitor", "dashboard", ""]
KINDS = [RecordKind.FLOW_ALLOWED, RecordKind.FLOW_DENIED]
CTXS = [None, CTX, STATS_CTX]

queries = st.one_of(
    st.tuples(st.just("actor"), st.sampled_from(ACTORS)),
    st.tuples(st.just("subject"), st.sampled_from(SUBJECTS)),
    st.tuples(st.just("entity"), st.sampled_from(ACTORS + SUBJECTS)),
    st.tuples(st.just("kind"), st.sampled_from(KINDS)),
    st.tuples(st.just("tag"), st.sampled_from(
        ["local:medical", "local:stats", "local:nowhere"]
    )),
    st.tuples(st.just("range"), st.integers(0, 40), st.integers(0, 40)),
    # The dashboard filter: one kind, one subject, the last stretch.
    st.tuples(
        st.just("dashboard"), st.sampled_from(KINDS),
        st.sampled_from(SUBJECTS), st.integers(0, 40),
    ),
)

appends = st.tuples(
    st.just("append"),
    st.integers(0, len(SOURCES) - 1),
    st.integers(0, len(KINDS) - 1),
    st.integers(0, len(ACTORS) - 1),
    st.integers(0, len(SUBJECTS) - 1),
    st.integers(0, len(CTXS) - 1),
)
# Queries between writes extend the tail postings from their cursor;
# the seals and prunes that follow must reset them.  Appends and
# queries are drawn twice as often as the rest so scripts often run
# query → append past a seal → query.
ops = st.one_of(
    appends,
    appends,
    st.tuples(st.just("query"), queries),
    st.tuples(st.just("query"), queries),
    st.tuples(st.just("drain")),
    st.tuples(st.just("advance"), st.integers(1, 5)),
    st.tuples(st.just("prune"), st.integers(0, 30)),
    st.tuples(st.just("demote"), st.integers(0, 30)),
)


def _filters(probe):
    if probe[0] == "actor":
        return dict(actor=probe[1])
    if probe[0] == "subject":
        return dict(subject=probe[1])
    if probe[0] == "entity":
        return dict(entity=probe[1])
    if probe[0] == "kind":
        return dict(kind=probe[1])
    if probe[0] == "tag":
        return dict(tag=probe[1])
    if probe[0] == "dashboard":
        return dict(kind=probe[1], subject=probe[2], since=float(probe[3]))
    lo, hi = sorted((float(probe[1]), float(probe[2])))
    return dict(since=lo, until=hi)


def _assert_query_equals_flat(spine, q, probe):
    filters = _filters(probe)
    flat = list(spine)  # the reference semantics: the merged stream
    expect = [r for r in flat if record_matches(r, **filters)]
    assert q.query(**filters) == expect


@settings(max_examples=50, deadline=None)
@given(
    st.lists(ops, min_size=10, max_size=60),
    st.lists(queries, min_size=1, max_size=4),
)
def test_tiered_query_equals_flat_filter(tmp_path_factory, script, probes):
    """The tiering property: whatever interleaving of append / drain /
    seal / spill / prune / query the spine went through, AuditQuery
    answers exactly like filtering the flat record stream."""
    spill = tmp_path_factory.mktemp("spill")
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, name="audit@prop")
    spine.configure_spill(spill, hot_segments=1, seal_every=4)
    q = AuditQuery(spine)
    for op in script:
        if op[0] == "append":
            __, s, k, a, sub, c = op
            spine.emit(
                SOURCES[s], KINDS[k], ACTORS[a], SUBJECTS[sub],
                {"t": sim.now()}, CTXS[c], CTXS[c],
            )
        elif op[0] == "drain":
            spine.drain()
        elif op[0] == "advance":
            sim.clock.advance(float(op[1]))
        elif op[0] == "prune":
            spine.prune_before(float(op[1]))
        elif op[0] == "demote":
            spine.demote_before(float(op[1]))
        elif op[0] == "query":
            _assert_query_equals_flat(spine, q, op[1])
    for probe in probes:
        _assert_query_equals_flat(spine, q, probe)
    assert spine.verify()
