"""The audit record codec, pinned by properties.

``AuditRecord.canonical()`` is the digest material of every hash chain,
spill file and checkpoint, so it must stay byte-identical to the
reference sorted-keys ``json.dumps`` of the record body for every
record, not just the ones the workloads happen to write.  Its memos
(context JSON keyed by interned masks, cold contexts keyed by tag
tuples) must not change a byte either, and verification must keep
re-serialising the live record, which is what catches an in-memory
tamper of a slotted record.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import AuditLog, AuditSpine, RecordKind
from repro.audit.records import AuditRecord
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
    records = [log.flow_allowed(f"a{i}", "b", CTX, CTX) for i in range(6)]
    return log, records[3]


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
    return spine, spine.segment("bus").records[-1]


def _sealed_record(tmp_path):
    spine = _spine(tmp_path)
    chunk = spine._store.sealed["bus"][0]
    assert not chunk.is_cold
    return spine, chunk._records[3]


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
