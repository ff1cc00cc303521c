"""The seal-round codec, pinned against the retired reference.

A seal builds a segment's :class:`SegmentIndex` and its spill image,
and a demote writes that image to a file.  Both must stay exactly what
the multi-pass index builder and the slot-by-slot ``bytearray`` writer
in ``tests/reference/spill_codec.py`` produce: the image bytes are what
deep verification re-hashes and what every later reader parses, hot or
cold, and the index header is inside the header digest committed at
seal.
"""

import hashlib
import tempfile
from itertools import cycle
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import RecordKind
from repro.audit.records import _CONTEXTS, AuditRecord, named_contexts
from repro.audit.storage import (
    AuditSegment,
    SegmentIndex,
    read_spill,
    read_spill_header,
    write_spill,
)
from repro.ifc import SecurityContext
from tests.reference.spill_codec import context_entries, index_over, spill_image

DIGESTS = st.binary(min_size=32, max_size=32).map(bytes.hex)

#: Canonicals may be any text: the stride follows the longest slot's
#: UTF-8 length, not its character count.
ENTRY = st.tuples(st.text(max_size=40), DIGESTS)


def _with_one_long_slot(draw_args):
    entries, long_text, at = draw_args
    entries.insert(at % (len(entries) + 1), long_text)
    return entries


ENTRIES = st.one_of(
    st.lists(ENTRY, min_size=1, max_size=12),
    # One entry alone.
    st.lists(ENTRY, min_size=1, max_size=1),
    # Every slot the same length: no slot has padding to spare.
    st.integers(min_value=0, max_value=48).flatmap(
        lambda n: st.lists(
            st.tuples(
                st.text(alphabet="abc{}\":,", min_size=n, max_size=n),
                DIGESTS,
            ),
            min_size=1, max_size=8,
        )
    ),
    # One slot far longer than the rest sets the stride for all.
    st.tuples(
        st.lists(ENTRY, max_size=8),
        st.tuples(st.text(min_size=200, max_size=400), DIGESTS),
        st.integers(min_value=0),
    ).map(_with_one_long_slot),
)

#: A small pool of context objects shared across records, next to
#: contexts built afresh on each draw (equal labels, distinct objects)
#: and records without contexts.
SHARED = [
    SecurityContext.of(["medical", "ann"], ["hosp-dev"]),
    SecurityContext.of(["medical", "bob", "location"], ["consent"]),
    SecurityContext.public(),
]
TAG_NAMES = ["medical", "ann", "bob", "location", "hosp-dev", "consent"]
CONTEXTS = st.one_of(
    st.none(),
    st.sampled_from(SHARED),
    st.builds(
        SecurityContext.of,
        st.lists(st.sampled_from(TAG_NAMES), max_size=3, unique=True),
        st.lists(st.sampled_from(TAG_NAMES), max_size=3, unique=True),
    ),
)
NAMES = st.sets(st.text(max_size=6), max_size=4)
INDEXES = st.builds(
    SegmentIndex,
    time_min=st.floats(allow_nan=False, allow_infinity=False),
    time_max=st.floats(allow_nan=False, allow_infinity=False),
    seq_min=st.integers(min_value=0, max_value=2**40),
    seq_max=st.integers(min_value=0, max_value=2**40),
    actors=NAMES,
    subjects=NAMES,
    kinds=st.sets(st.sampled_from([k.value for k in RecordKind]), max_size=3),
    tags=NAMES,
)


@settings(max_examples=200, deadline=None)
@given(
    source=st.text(max_size=12),
    base_digest=DIGESTS,
    base_count=st.integers(min_value=0, max_value=2**40),
    head=DIGESTS,
    entries=ENTRIES,
    index=INDEXES,
    contexts=st.lists(CONTEXTS.filter(lambda c: c is not None), max_size=4),
)
def test_write_spill_bytes_equal_the_reference(
    source, base_digest, base_count, head, entries, index, contexts
):
    want = spill_image(
        source, base_digest, base_count, head, entries, index,
        context_entries(contexts),
    )
    # The table the stores write: the entries records with these
    # contexts name.
    table = {
        ref: _CONTEXTS[ref] for ref in named_contexts(
            AuditRecord(0, 0.0, RecordKind.CUSTOM, "a", "", {}, ctx, None)
            .canonical() for ctx in contexts
        )
    }
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "segment.seg"
        size, header_digest = write_spill(
            path, source, base_digest, base_count, head, entries, index,
            table,
        )
        assert path.read_bytes() == want
        assert [p.name for p in Path(tmp).iterdir()] == ["segment.seg"]
        __, read_back = read_spill(path)
        assert read_spill_header(path)["contexts"] == table
    assert size == len(want)
    header_len = int.from_bytes(want[8:12], "little")
    assert header_digest == hashlib.sha256(want[12:12 + header_len]).hexdigest()
    assert read_back == entries

    # A seal of real records, one per drawn text, lays out the very
    # bytes the reference writes for them, and demote writes that image.
    records = [
        AuditRecord(i, float(i), RecordKind.CUSTOM, "a", "", {"text": text},
                    ctx, None)
        for i, ((text, __), ctx) in enumerate(
            zip(entries, cycle(contexts or [None]))
        )
    ]
    tail = AuditSegment(source, base_digest)
    tail.base_count = base_count
    for record in records:
        tail.chain(record)
    chained = tail.entries()
    chunk = tail.seal(len(records))
    sealed = spill_image(
        source, base_digest, base_count, chained[-1][1], chained,
        index_over(records),
        context_entries(r.source_context for r in records
                        if r.source_context is not None),
    )
    assert chunk._image.buf == sealed
    with tempfile.TemporaryDirectory() as tmp:
        chunk.demote(Path(tmp))
        assert chunk.path.read_bytes() == sealed


#: Neither timestamps nor seqs need be monotonic; ints next to floats
#: and NaN check that the bounds resolve ties and unordered values as
#: builtin min() and max() do.
TIMESTAMPS = st.one_of(
    st.floats(allow_infinity=True),
    st.integers(min_value=-5, max_value=5),
    st.sampled_from([0.0, -0.0, 1.0, float("nan")]),
)
RECORDS = st.lists(
    st.builds(
        AuditRecord,
        seq=st.integers(min_value=0, max_value=50),
        timestamp=TIMESTAMPS,
        kind=st.sampled_from(list(RecordKind)),
        actor=st.sampled_from(["", "alice", "bob", "mallory"]),
        subject=st.one_of(st.just(""), st.sampled_from(["x", "y"]), st.text(max_size=3)),
        detail=st.just({}),
        source_context=CONTEXTS,
        target_context=CONTEXTS,
    ),
    min_size=1,
    max_size=30,
)


@settings(max_examples=300, deadline=None)
@given(RECORDS)
def test_index_over_equals_the_reference(records):
    got = SegmentIndex.over(records)
    want = index_over(records)
    # repr tells 1 from 1.0 and 0.0 from -0.0 and equates NaN with NaN:
    # the spill header writes whichever value the bound kept.
    for bound in ("time_min", "time_max", "seq_min", "seq_max"):
        assert repr(getattr(got, bound)) == repr(getattr(want, bound)), bound
    assert list(got.actors) == list(want.actors)
    assert list(got.subjects) == list(want.subjects)
    assert got.kinds == want.kinds
    assert got.tags == want.tags
    # Postings are stored as compact arrays of offsets.
    assert {k: v.tolist() for k, v in got.by_actor.items()} == want.by_actor
    assert {k: v.tolist() for k, v in got.by_subject.items()} == want.by_subject
    assert got.to_dict() == want.to_dict()
