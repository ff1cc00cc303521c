"""The audit record codec, pinned by properties.

``AuditRecord.canonical()`` is the digest material of every hash chain,
spill file and checkpoint, so it must stay byte-identical to the
reference sorted-keys ``json.dumps`` of the record body, each context
named by the sha256 of its own JSON, for every record, not just the
ones the workloads happen to write.  Its memos (context references
keyed by interned masks, cold contexts keyed by reference) must not
change a byte either, and verification must keep re-serialising the
live record, which is what catches an in-memory tamper of a slotted
record.

A record's fixed fields come from its shape's *frame*, held in a
bounded process-wide memo: records drawn from a small pool of shapes
reuse frames, and must still chain to the reference strings and to a
plain-``hashlib`` chain, whatever the memo holds; a frame must never be
shared by records that differ in a field it renders.
"""

import hashlib
import json
import tempfile
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import AuditLog, AuditSpine, RecordKind
from repro.audit import records as records_module
from repro.audit.records import AuditRecord, frame_of
from repro.audit.storage import AuditSegment
from repro.ifc import SecurityContext
from repro.sim import Simulator
from tests.audit.test_log import _reference

TAG_NAMES = ["medical", "ann", "bob", "hosp-dev", "consent", "ward.7"]
TAGS = st.sampled_from(TAG_NAMES + [f"home:{n}" for n in TAG_NAMES])
TAG_SETS = st.lists(TAGS, max_size=5, unique=True)

TIMESTAMPS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(
        [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e22, 1e16, 0.1,
         float("nan"), float("inf"), float("-inf")]
    ),
    st.integers(min_value=-(2**70), max_value=2**70),
)

JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**64), max_value=2**64),
    st.floats(allow_nan=False, allow_infinity=False),
    st.text(max_size=8),
)
DETAILS = st.dictionaries(
    st.text(max_size=6),
    st.recursive(
        JSON_LEAVES,
        lambda inner: st.one_of(
            st.lists(inner, max_size=3),
            st.dictionaries(st.text(max_size=4), inner, max_size=3),
        ),
        max_leaves=8,
    ),
    max_size=4,
)

#: None, the public context, or a context built afresh from its tags on
#: every draw — equal masks, distinct objects.
CONTEXTS = st.one_of(
    st.none(),
    st.just(SecurityContext.public()),
    st.builds(SecurityContext.of, TAG_SETS, TAG_SETS),
)

RECORDS = st.builds(
    AuditRecord,
    seq=st.integers(min_value=0, max_value=2**40),
    timestamp=TIMESTAMPS,
    kind=st.sampled_from(list(RecordKind)),
    actor=st.text(max_size=10),
    subject=st.text(max_size=10),
    detail=DETAILS,
    source_context=CONTEXTS,
    target_context=CONTEXTS,
)


@settings(max_examples=400, deadline=None)
@given(RECORDS)
def test_canonical_matches_reference_json(record):
    assert record.canonical() == _reference(record)


@settings(max_examples=200, deadline=None)
@given(RECORDS)
def test_canonical_round_trips(record):
    canonical = record.canonical()
    rebuilt = AuditRecord.from_canonical(canonical)
    assert rebuilt.canonical() == canonical
    for ctx, got in (
        (record.source_context, rebuilt.source_context),
        (record.target_context, rebuilt.target_context),
    ):
        if ctx is None:
            assert got is None
        else:
            fresh = SecurityContext.of(
                [t.qualified for t in ctx.secrecy],
                [t.qualified for t in ctx.integrity],
            )
            assert got == fresh and got == ctx


@settings(max_examples=100, deadline=None)
@given(TAG_SETS, TAG_SETS, TIMESTAMPS)
def test_equal_contexts_from_separate_builds_encode_alike(
    secrecy, integrity, timestamp
):
    first = SecurityContext.of(secrecy, integrity)
    second = SecurityContext.of(list(reversed(secrecy)), integrity)
    assert first is not second and first == second
    records = [
        AuditRecord(7, timestamp, RecordKind.FLOW_ALLOWED, "a", "b", {},
                    ctx, ctx)
        for ctx in (first, second)
    ]
    assert records[0].canonical() == records[1].canonical()
    assert records[0].canonical() == _reference(records[1])


def _record(detail):
    return AuditRecord(1, 2.5, RecordKind.CUSTOM, "a", "b", detail)


def test_circular_detail_raises_and_the_next_encode_is_clean():
    inner = {"k": 1}
    outer = {"inner": inner}
    inner["back"] = outer
    with pytest.raises(ValueError, match="Circular reference"):
        _record(outer).canonical()
    # The same objects, the cycle broken: nothing of the failed encode
    # may linger and read as circular now.
    del inner["back"]
    record = _record(outer)
    assert record.canonical() == _reference(record)


def test_unserialisable_detail_raises_and_the_next_encode_is_clean():
    inner = {"when": object()}
    outer = {"inner": inner, "n": 3}
    with pytest.raises(TypeError, match="not JSON serializable"):
        _record(outer).canonical()
    inner["when"] = 4.0
    record = _record(outer)
    assert record.canonical() == _reference(record)


CTX = SecurityContext.of(["medical", "ann"], ["hosp-dev"])


def _log_record(tmp_path):
    log = AuditLog()
    appended = [log.flow_allowed(f"a{i}", "b", CTX, CTX) for i in range(6)]
    # Editing what append returned changes no stored record.
    object.__setattr__(appended[3], "actor", "mallory")
    assert log.verify() and log.records()[3].actor == "a3"
    return log, log.records()[3]


def _spine(tmp_path):
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, name="audit@codec")
    spine.configure_spill(tmp_path, hot_segments=8, seal_every=8)
    for i in range(20):
        spine.emit("bus", RecordKind.FLOW_ALLOWED, f"a{i}", "b",
                   {"i": i}, CTX, CTX)
        sim.clock.advance(1.0)
    spine.drain()
    return spine


def _tail_record(tmp_path):
    spine = _spine(tmp_path)
    return spine, spine.segment("bus").records()[-1]


def _sealed_record(tmp_path):
    spine = _spine(tmp_path)
    chunk = spine._store.sealed["bus"][0]
    assert not chunk.is_cold
    return spine, chunk.records_at([3])[0]


@pytest.mark.parametrize("mode", ["incremental", "deep"])
@pytest.mark.parametrize(
    "build", [_log_record, _tail_record, _sealed_record],
    ids=["audit-log", "spine-tail", "hot-sealed-segment"],
)
def test_slotted_record_tamper_is_caught(tmp_path, build, mode):
    sink, record = build(tmp_path)
    assert not hasattr(record, "__dict__")
    assert sink.verify(mode=mode)
    object.__setattr__(record, "actor", "mallory")
    assert not sink.verify(mode=mode)


# -- frames -----------------------------------------------------------------

#: Small pools, so that drawn records share shapes and reuse frames.
POOL_KINDS = st.sampled_from(
    [RecordKind.FLOW_ALLOWED, RecordKind.FLOW_DENIED, RecordKind.CUSTOM]
)
POOL_ACTORS = st.sampled_from(["sensor", "analyser", 'q"uote', "ünï"])
POOL_SUBJECTS = st.sampled_from(["", "doctor", "sensor"])
POOL_TAGS = [
    ([], []), (["medical"], []), (["medical", "ann"], []),
    (["medical"], ["hosp-dev"]), ([], ["hosp-dev"]),
]
#: None, or one of a few contexts built afresh on every draw; several
#: differ from another in one label by one tag.
POOL_CONTEXTS = st.one_of(
    st.none(),
    st.sampled_from(POOL_TAGS).map(lambda tags: SecurityContext.of(*tags)),
)
POOL_ROWS = st.lists(
    st.tuples(
        POOL_KINDS, POOL_ACTORS, POOL_SUBJECTS,
        st.sampled_from([{}, {"attr": "hr"}, {"n": 1.5, "why": ["x"]}]),
        POOL_CONTEXTS, POOL_CONTEXTS,
    ),
    min_size=1, max_size=60,
)


def _plain_chain(genesis, canonicals):
    """The hex digest after each record, by plain hashlib."""
    digest, digests = genesis, []
    for canonical in canonicals:
        digest = hashlib.sha256((digest + canonical).encode()).hexdigest()
        digests.append(digest)
    return digests


def _tick():
    now = [0.0]

    def clock():
        now[0] += 0.25
        return now[0]

    return clock


@settings(max_examples=150, deadline=None)
@given(POOL_ROWS)
def test_a_log_chains_pooled_records_to_the_reference(rows):
    log = AuditLog(clock=_tick())
    appended = [log.append(*row) for row in rows]
    exported = log.export()
    assert [e["record"] for e in exported] == [_reference(r) for r in appended]
    genesis = hashlib.sha256(b"repro-audit-genesis").hexdigest()
    assert [e["digest"] for e in exported] == _plain_chain(
        genesis, [e["record"] for e in exported]
    )


@settings(max_examples=60, deadline=None)
@given(POOL_ROWS, st.integers(min_value=2, max_value=16))
def test_a_spine_drain_chains_pooled_records_to_the_reference(
    rows, seal_every
):
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, name="audit@frames")
    with tempfile.TemporaryDirectory() as spill:
        spine.configure_spill(spill, hot_segments=1, seal_every=seal_every)
        emitted = {}
        for i, row in enumerate(rows):
            record = spine.emit(("bus", "wire")[i % 2], *row)
            emitted[record.seq] = record
            sim.clock.advance(0.5)
        spine.drain()
        exported = spine.export()
        assert [e["record"] for e in exported] == [
            _reference(emitted[json.loads(e["record"])["seq"]])
            for e in exported
        ]
        for source in ("bus", "wire"):
            mine = [e for e in exported if e["segment"] == source]
            genesis = hashlib.sha256(
                f"repro-audit-segment|audit@frames|{source}".encode()
            ).hexdigest()
            assert [e["digest"] for e in mine] == _plain_chain(
                genesis, [e["record"] for e in mine]
            )
        # Sealed indexes are built from the frame-keyed shape columns.
        for kind in {row[0] for row in rows}:
            assert spine.query(kind=kind) == [
                r for r in spine.records() if r.kind == kind
            ]
        assert spine.verify(mode="deep")


@settings(max_examples=100, deadline=None)
@given(POOL_ROWS, st.integers(min_value=1, max_value=4))
def test_a_cleared_or_overfull_frame_memo_renders_alike(rows, limit):
    records = [
        AuditRecord(i, i * 0.5, *row) for i, row in enumerate(rows)
    ]
    first = [r.canonical() for r in records]
    assert first == [_reference(r) for r in records]
    records_module._FRAMES.clear()
    assert [r.canonical() for r in records] == first
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(records_module, "_FRAME_LIMIT", limit)
        records_module._FRAMES.clear()
        for record, canonical in zip(records, first):
            assert record.canonical() == canonical
            assert len(records_module._FRAMES) <= limit


#: One mask of one context, as (field, label index: secrecy 0,
#: integrity 1); None changes the subject instead.
VARIANTS = [
    ("source_context", 0), ("source_context", 1),
    ("target_context", 0), ("target_context", 1), None,
]


@settings(max_examples=200, deadline=None)
@given(POOL_ROWS, st.sampled_from(VARIANTS))
def test_records_one_mask_or_the_subject_apart_never_share_a_frame(
    rows, variant
):
    record = AuditRecord(3, 1.5, *rows[0])
    if variant is None:
        other = replace(record, subject=record.subject + "-other")
    else:
        field_name, label = variant
        ctx = getattr(record, field_name) or SecurityContext.public()
        tags = [
            [t.qualified for t in ctx.secrecy],
            [t.qualified for t in ctx.integrity],
        ]
        tags[label].append("frames:only-here")
        other = replace(record, **{field_name: SecurityContext.of(*tags)})
    assert frame_of(record) != frame_of(other)
    assert record.canonical() == _reference(record)
    assert other.canonical() == _reference(other)
    assert record.canonical() != other.canonical()


def test_ten_thousand_records_of_three_shapes_build_three_frames():
    # Seq, timestamp and detail vary on every record and each context is
    # built afresh: a frame key that drags in any of them, or keys by
    # the context object, would build a frame per record.
    shapes = [
        (RecordKind.FLOW_ALLOWED, "sensor", "analyser",
         ["medical", "ann"], ["hosp-dev"]),
        (RecordKind.FLOW_DENIED, "sensor", "tv", ["medical"], []),
        (RecordKind.CUSTOM, "analyser", "", [], ["hosp-dev"]),
    ]
    built = []
    build = records_module._build_frame
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(
            records_module, "_build_frame",
            lambda key: built.append(key) or build(key),
        )
        records_module._FRAMES.clear()
        segment = AuditSegment("frames", "0" * 64)
        for i in range(10_000):
            kind, actor, subject, secrecy, integrity = shapes[i % 3]
            ctx = SecurityContext.of(secrecy, integrity)
            segment.chain(AuditRecord(
                i, i * 0.125, kind, actor, subject, {"i": i}, ctx, ctx,
            ))
    assert len(built) == 3
    assert segment.verify()
