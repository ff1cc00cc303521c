"""Fuzzing the format-2 decoders: spill images and canonical records.

Both take bytes from disk, from memory or from another party.  Whatever
the bytes, a decode ends in exactly one of two ways: the original
records, or :class:`~repro.errors.IntegrityViolation`.  It never
raises anything else, and it never yields a record with a different
context — a reference resolves only through a table entry that hashes
to it.
"""

import hashlib
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.audit import (
    AuditRecord,
    AuditSpine,
    RecordKind,
    decode_export,
    load_spill,
)
from repro.audit.records import _CONTEXTS
from repro.audit.storage import SpillImage
from repro.errors import IntegrityViolation
from repro.ifc import SecurityContext
from repro.sim import Simulator

CTX = SecurityContext.of(["medical", "ann"], ["hosp-dev"])
OTHER = SecurityContext.of(["medical", "bob", "location"], ["consent"])
CONTEXTS = [CTX, OTHER, None]


def _segment(tmp: str, tier: str = "cold"):
    """A spine whose first four records sit in one sealed RAUDSEG2
    image, naming two contexts and none: held in memory (``hot``) or
    in a spill file (``cold``)."""
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, name="audit@fuzz")
    spine.configure_spill(
        tmp, hot_segments=int(tier == "hot"), seal_every=4
    )
    for i in range(4):
        spine.emit("bus", RecordKind.FLOW_ALLOWED, f"a{i}", "b", {"i": i},
                   CONTEXTS[i % 3], CONTEXTS[(i + 1) % 3])
        sim.clock.advance(1.0)
    spine.drain()
    chunk = spine._store.sealed["bus"][0]
    assert chunk.is_cold == (tier == "cold")
    return chunk


with tempfile.TemporaryDirectory() as _tmp:
    _chunk = _segment(_tmp)
    RECORDS = _chunk.records()
    IMAGE = _chunk.path.read_bytes()

_HEADER_LEN = int.from_bytes(IMAGE[8:12], "little")
#: Byte ranges a mutation lands in: the header's context table, the
#: record slots, or anywhere.
REGIONS = {
    "table": (IMAGE.index(b'"contexts":'), IMAGE.index(b',"count":')),
    "slots": ((12 + _HEADER_LEN + 15) & ~15, len(IMAGE)),
    "anywhere": (0, len(IMAGE)),
}


@st.composite
def doctored_images(draw):
    lo, hi = REGIONS[draw(st.sampled_from(sorted(REGIONS)))]
    at = draw(st.integers(min_value=lo, max_value=hi - 1))
    how = draw(st.sampled_from(["flip", "truncate", "insert"]))
    if how == "flip":
        mask = draw(st.integers(min_value=1, max_value=255))
        return IMAGE[:at] + bytes([IMAGE[at] ^ mask]) + IMAGE[at + 1:]
    if how == "truncate":
        return IMAGE[:at]
    extra = draw(st.binary(min_size=1, max_size=8))
    return IMAGE[:at] + extra + IMAGE[at:]


def _outcome(decode):
    """The records a decode yields, or None when it refused."""
    try:
        return decode()
    except IntegrityViolation:
        return None


@settings(max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.sampled_from(["hot", "cold"]), doctored_images())
def test_a_doctored_spill_image_decodes_exactly_or_not_at_all(tier, image):
    with tempfile.TemporaryDirectory() as tmp:
        # A store that sealed the image and holds its anchors, the
        # doctored bytes installed where it keeps the image ...
        chunk = _segment(tmp, tier)
        if tier == "cold":
            assert chunk.path.read_bytes() == IMAGE
            chunk.path.write_bytes(image)
        else:
            assert chunk._image.buf == IMAGE

        def verify_then_read():
            if tier == "hot":
                # Parsing the bytes may already refuse them.
                chunk._image = SpillImage(image, "a doctored image")
            chunk.verify()
            return chunk.records()

        got = _outcome(verify_then_read)
        assert got is None or got == RECORDS
        # ... and a party holding only the file.
        path = Path(tmp) / "alone.seg"
        path.write_bytes(image)
        alone = _outcome(lambda: load_spill(path))
        assert alone is None or alone == RECORDS


REFERENCES = st.one_of(
    st.text(max_size=70),
    st.binary(min_size=32, max_size=32).map(bytes.hex),
    st.integers(),
    st.floats(),
    st.booleans(),
    st.lists(st.text(max_size=4), max_size=3),
    # Format 1's inline context.
    st.fixed_dictionaries({
        "secrecy": st.lists(st.sampled_from(["local:ann", "local:medical"])),
        "integrity": st.lists(st.just("local:hosp-dev")),
    }),
)


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(RECORDS),
    st.sampled_from(["source_context", "target_context"]),
    REFERENCES,
)
def test_a_foreign_reference_never_decodes(record, field, reference):
    body = json.loads(record.canonical())
    body[field] = reference
    canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
    try:
        AuditRecord.from_canonical(canonical)
    except IntegrityViolation:
        return
    raise AssertionError(f"decoded with {field}={reference!r}")


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from(RECORDS),
    st.data(),
)
def test_a_doctored_canonical_keeps_its_contexts_or_is_refused(record, data):
    canonical = record.canonical()
    at = data.draw(st.integers(min_value=0, max_value=len(canonical) - 1))
    char = data.draw(st.characters())
    doctored = canonical[:at] + char + canonical[at + 1:]
    try:
        got = AuditRecord.from_canonical(doctored)
    except IntegrityViolation:
        return
    assert got.source_context == record.source_context
    assert got.target_context == record.target_context


@settings(max_examples=300, deadline=None)
@given(st.text(max_size=200))
def test_any_text_is_a_record_or_refused(text):
    try:
        got = AuditRecord.from_canonical(text)
    except IntegrityViolation:
        return
    assert isinstance(got, AuditRecord)


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(RECORDS),
    st.one_of(
        st.text(max_size=40),
        st.builds(
            json.dumps,
            st.fixed_dictionaries({
                "secrecy": st.lists(st.one_of(st.text(max_size=8), st.integers())),
                "integrity": st.lists(st.text(max_size=8), max_size=2),
            }),
        ),
    ),
)
def test_a_hash_valid_entry_that_is_no_context_is_refused(record, text):
    # Anyone can make an entry that hashes to its key; what it names
    # must still be a security context, or the decode refuses and the
    # process's context table does not grow.
    ref = hashlib.sha256(text.encode("utf-8", "surrogatepass")).hexdigest()
    body = json.loads(record.canonical())
    body["target_context"] = ref
    entry = {
        "record": json.dumps(body, sort_keys=True, separators=(",", ":")),
        "digest": "0" * 64,
        "contexts": {ref: text},
    }
    held = dict(_CONTEXTS)
    try:
        (got,) = decode_export([entry])
    except IntegrityViolation:
        # Refused, a lone surrogate (which cannot be hashed as UTF-8)
        # included: the table is as it was.
        assert _CONTEXTS == held
        return
    assert isinstance(got.target_context, SecurityContext)
