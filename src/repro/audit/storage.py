"""Tiered segment storage for the audit plane (``docs/audit_storage.md``).

This module is the storage layer behind the spine, following the
hot/cold tiering pattern of patient-monitoring stacks (a hot store for
"the last hour of vitals", a cold store for long-term analytics):

* **Hot tail** — each source chains into an open, in-memory
  :class:`AuditSegment`.  A chunk is the bytes it hashed: the tail
  keeps each record's canonical string and chain digest, not the
  record, and gathers the seal-time index material (postings, kinds,
  contexts, time and seq bounds) as records chain.
* **Seal** — when the tail reaches ``seal_every`` records it is sealed
  into an immutable :class:`SealedSegment`: a compact
  :class:`SegmentIndex` (time bounds, actors, subjects, kinds, tags) is
  built from the tail's columns, the strings and digests are laid out
  once as the segment's spill image (the format below), and the source
  continues in a fresh tail whose chain base is the sealed head — the
  chain is continuous across seals.
* **Demote** — sealed segments beyond the ``hot_segments`` newest write
  the image they hold to disk and drop it.  Hot and cold are two places
  for one set of bytes: only the segment's base/head digests, counts,
  index and the header digest committed at seal stay resident, so
  ``verify()`` holds the file to the digests the live process committed
  to, exactly as it holds a hot image.

Reads decode the stored strings (``AuditRecord.from_canonical``); a hot
segment's memo keeps each record decoded at most once, and ``verify()``
replays the image and re-serialises every memoised record against its
string.  Everything that *observes* the chain — ``verify()``,
``export()``, checkpoint receipts, federation pinboard verdicts — reads
identically whether a segment is hot or spilled; :class:`~repro.audit.
query.AuditQuery` answers entity/tag/time queries from the per-segment
indexes plus a bounded number of segment scans.

On-disk record format, version 2 (one file per sealed segment)::

    magic   8 bytes   b"RAUDSEG2"
    u32     4 bytes   header length H
    header  H bytes   JSON: version (2), source, base_digest, base_count,
                      count, head, stride, index, contexts
    slots   count x stride, 16-aligned, starting at offset
            align16(12 + H); slot i at data_start + i*stride:
        u32      canonical length L
        64 bytes chain digest (hex, verbatim)
        L bytes  canonical record JSON (verbatim digest material)
        padding  zeros to stride

A canonical record names each security context by reference (the
sha256 hex of the context's JSON); the header's ``contexts`` maps
exactly the references the file's records name to that JSON, so the
file decodes and verifies alone.  Readers check each entry against its
key, admit only entries the image's slots name, and refuse any other
magic or version (a ``RAUDSEG1`` file included) with
:class:`~repro.errors.IntegrityViolation`.

Fixed stride means record ``i`` is one pointer computation away in the
image, hot or cold — no scan to seek, which is what lets queries decode
only the slots a segment index proved relevant.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
import struct
import time
from array import array
from bisect import bisect_left
from operator import itemgetter
from pathlib import Path
from typing import (
    AbstractSet, Callable, Dict, Iterable, List, Optional, Sequence,
    Set, Tuple,
)

from repro.audit.records import (
    _CONTEXTS,
    AuditRecord,
    Frame,
    _context_ref,
    _context_tags,
    frame_of,
    named_contexts,
    record_matches,
    register_contexts,
    ship_contexts,
)
from repro.audit.verify import VerifyStats
from repro.errors import IntegrityViolation
from repro.ifc.labels import SecurityContext

SPILL_MAGIC = b"RAUDSEG2"
SPILL_VERSION = 2

_UNSAFE = re.compile(r"[^a-zA-Z0-9_.\-]")

#: A verified-watermark is only recorded when the spill file's mtime is
#: at least this much older than the moment verification completed.
#: Filesystem timestamps are coarse (a scheduler tick on most kernels),
#: so a file modified in the same tick as the verification could later
#: be rewritten without its mtime changing — the git "racily clean"
#: problem.  Refusing to watermark inside the margin means any write
#: that lands *after* a successful verify always perturbs the stat the
#: watermark recorded, so incremental mode re-verifies it.
_STAT_MARGIN_NS = 50_000_000


GENESIS_DIGEST = hashlib.sha256(b"repro-audit-genesis").hexdigest()
#: A chain digest as written out (exports, spill slots): sha256 hex.
_DIGEST_BYTES = 64
#: A chain digest as a chunk holds it: the raw sha256 value, packed
#: one after another in one buffer per chunk.
_RAW_BYTES = 32
#: Links a replay compares at once: one memory compare per block,
#: and the replay's own buffer stays at 128 KB however long the chain.
_REPLAY_BLOCK = 4096


#: What a replay found: ``(bytes hashed, first mismatching link or
#: None, last digest, first memoised record that no longer serialises
#: to its string or None)``.
Replay = Tuple[int, Optional[int], str, Optional[int]]


def chain_digest(previous: str, canonical: str) -> bytes:
    """Extend a hash chain by one record: the raw sha256 of the previous
    hex digest followed by the record's canonical serialisation (the
    next link chains from its ``.hex()``)."""
    return hashlib.sha256((previous + canonical).encode()).digest()


def replay_chain(
    base: str,
    canonicals: Sequence[str],
    packed: bytes,
    memo: Dict[int, AuditRecord],
) -> Replay:
    """The verify loop over an open chain's strings (a sealed image
    replays its slots in :meth:`SpillImage.replay`): re-hash
    ``canonicals`` from ``base`` and hold the links to the stored
    digests in ``packed`` (raw digests, one per record), compared a
    block of :data:`_REPLAY_BLOCK` links at a time, then hold every
    record in ``memo`` (those a read handed out) to its string.

    Returns a :data:`Replay`, counting each record's canonical plus its
    digest as written out.  A digest column longer or shorter than the
    strings mismatches at the first record one of them lacks.
    """
    hashed = sum(map(len, canonicals)) + _DIGEST_BYTES * len(canonicals)
    digest = base
    for start in range(0, len(canonicals), _REPLAY_BLOCK):
        replayed = bytearray()
        for canonical in canonicals[start:start + _REPLAY_BLOCK]:
            raw = chain_digest(digest, canonical)
            replayed += raw
            digest = raw.hex()
        at = start * _RAW_BYTES
        stored = packed[at:at + len(replayed)]
        if replayed != stored:
            for i in range(0, len(replayed), _RAW_BYTES):
                if replayed[i:i + _RAW_BYTES] != stored[i:i + _RAW_BYTES]:
                    return hashed, start + i // _RAW_BYTES, digest, None
    if len(packed) != _RAW_BYTES * len(canonicals):
        return hashed, len(canonicals), digest, None
    altered = (
        i for i, record in memo.items() if record.canonical() != canonicals[i]
    )
    return hashed, None, digest, next(altered, None)


def _hex_at(packed: bytes, offset: int) -> str:
    """The hex digest of record ``offset`` in a packed digest column."""
    return packed[offset * _RAW_BYTES:(offset + 1) * _RAW_BYTES].hex()


def _hexes(packed: bytes) -> List[str]:
    """Every hex digest of a packed digest column, in order."""
    return [
        packed[at:at + _RAW_BYTES].hex()
        for at in range(0, len(packed), _RAW_BYTES)
    ]


def _segment_genesis(spine_name: str, source: str) -> str:
    """Domain-separated genesis digest for one segment's chain."""
    return hashlib.sha256(
        f"repro-audit-segment|{spine_name}|{source}".encode()
    ).hexdigest()


class _Columns:
    """A chunk's index material, gathered as its records chain:
    per-actor and per-subject posting lists (ascending offsets in
    ``array("I")``), and columns of timestamps, seqs and *shapes* (a
    record's frame, :func:`~repro.audit.records.frame_of`, numbered as
    first chained).  :meth:`index` builds a :class:`SegmentIndex` and
    context table from them and :meth:`split` cuts them at a seal or
    prune, so neither decodes a record."""

    __slots__ = ("by_actor", "by_subject", "times", "seqs", "shapes",
                 "_shape_ids", "_shape_list")

    def __init__(self) -> None:
        self.by_actor: Dict[str, array] = {}
        self.by_subject: Dict[str, array] = {}
        # A bound is the very value builtin min() or max() keeps, so a
        # timestamp that is no float (or is NaN), or a seq that is no
        # int64, turns its column into a list that keeps the value.
        self.times = array("d")
        self.seqs = array("q")
        self.shapes = array("I")
        self._shape_ids: Dict[Tuple, int] = {}
        self._shape_list: List[Tuple] = []

    @classmethod
    def over(cls, records: Iterable[AuditRecord]) -> "_Columns":
        columns = cls()
        for record in records:
            columns.add(record, frame_of(record))
        return columns

    def add(self, record: AuditRecord, frame: Frame) -> None:
        shapes = self.shapes
        offset = len(shapes)
        posting = self.by_actor.get(record.actor)
        if posting is None:
            self.by_actor[record.actor] = array("I", (offset,))
        else:
            posting.append(offset)
        posting = self.by_subject.get(record.subject)
        if posting is None:
            self.by_subject[record.subject] = array("I", (offset,))
        else:
            posting.append(offset)
        ts = record.timestamp
        if ts.__class__ is not float or ts != ts:
            if self.times.__class__ is array:
                self.times = list(self.times)
        self.times.append(ts)
        try:
            self.seqs.append(record.seq)
        except (OverflowError, TypeError):
            self.seqs = list(self.seqs)
            self.seqs.append(record.seq)
        # A new shape is rare: a plain subscript, first use in the handler.
        try:
            shapes.append(self._shape_ids[frame])
        except KeyError:
            shape = self._shape_ids[frame] = len(self._shape_list)
            self._shape_list.append(
                (record.kind._value_, record.source_context,
                 record.target_context)
            )
            shapes.append(shape)

    def split(self, k: int) -> "_Columns":
        """Cut off the first ``k`` records' material and return it; the
        rest stays here, its offsets rebased to 0."""
        head = _Columns.__new__(_Columns)
        head.by_actor, self.by_actor = _split_postings(self.by_actor, k)
        head.by_subject, self.by_subject = _split_postings(self.by_subject, k)
        head.times, self.times = self.times[:k], self.times[k:]
        head.seqs, self.seqs = self.seqs[:k], self.seqs[k:]
        head.shapes, self.shapes = self.shapes[:k], self.shapes[k:]
        head._shape_ids = self._shape_ids
        head._shape_list = self._shape_list
        return head

    def index(self) -> Tuple["SegmentIndex", Dict[str, str]]:
        """The index over every record gathered here, and the
        context-table entries those records name."""
        kinds: Set[str] = set()
        contexts: Dict[Tuple[int, int], SecurityContext] = {}
        for shape in set(self.shapes):
            kind, src, tgt = self._shape_list[shape]
            kinds.add(kind)
            for ctx in (src, tgt):
                if ctx is not None:
                    contexts[ctx.secrecy.mask, ctx.integrity.mask] = ctx
        tags: Set[str] = set()
        table: Dict[str, str] = {}
        for (secrecy, integrity), ctx in contexts.items():
            tags |= _context_tags(ctx)
            ref = _context_ref(secrecy, integrity)[1:-1]
            table[ref] = _CONTEXTS[ref]
        index = SegmentIndex(
            time_min=min(self.times),
            time_max=max(self.times),
            seq_min=min(self.seqs),
            seq_max=max(self.seqs),
            actors=self.by_actor.keys(),
            # The empty subject is a posting like any other (a
            # ``subject=""`` query must find it); the header leaves it out.
            subjects=self.by_subject.keys(),
            kinds=kinds,
            tags=tags,
            by_actor=self.by_actor,
            by_subject=self.by_subject,
        )
        return index, table


def _split_postings(
    postings: Dict[str, array], k: int
) -> Tuple[Dict[str, array], Dict[str, array]]:
    """Posting lists cut at offset ``k``: those below, and those from
    ``k`` on, rebased to 0."""
    head: Dict[str, array] = {}
    rest: Dict[str, array] = {}
    for name, offsets in postings.items():
        cut = bisect_left(offsets, k)
        if cut:
            head[name] = offsets if cut == len(offsets) else offsets[:cut]
        if cut < len(offsets):
            rest[name] = array("I", [i - k for i in offsets[cut:]])
    return head, rest


def _split_memo(
    memo: Dict[int, AuditRecord], k: int
) -> Tuple[Dict[int, AuditRecord], Dict[int, AuditRecord]]:
    """A decode memo cut at offset ``k``, the rest rebased to 0."""
    return (
        {i: record for i, record in memo.items() if i < k},
        {i - k: record for i, record in memo.items() if i >= k},
    )


def _decoded(
    canonical_at: Callable[[int], str],
    memo: Dict[int, AuditRecord],
    offsets: Iterable[int],
) -> List[AuditRecord]:
    """The records at ``offsets``, each decoded at most once per memo:
    a hot chunk's memo keeps what it decoded until the chunk is
    demoted."""
    result = []
    for i in offsets:
        record = memo.get(i)
        if record is None:
            record = memo[i] = AuditRecord.from_canonical(canonical_at(i))
        result.append(record)
    return result


def _check_replay(
    what: str, base_count: int, replayed: Replay, head: str
) -> int:
    """Raise unless a chunk's replay found every link intact, ended on
    ``head``, and found every record a read was handed still
    serialising to the string it came from.  Returns the bytes
    hashed."""
    hashed, bad, last, altered = replayed
    if bad is not None:
        raise IntegrityViolation(
            f"{what} chain broken at record {base_count + bad}"
        )
    if last != head:
        raise IntegrityViolation(f"{what} head mismatch after replay")
    if altered is not None:
        raise IntegrityViolation(
            f"{what}: record {base_count + altered} was altered after a "
            f"read returned it"
        )
    return hashed


class AuditSegment:
    """One open hash chain: an :class:`~repro.audit.log.AuditLog`, a
    spine source's tail, or a spine's checkpoint chain.

    Each record's digest is ``sha256(previous hex digest + canonical)``
    from a genesis digest; a spine domain-separates its segments'
    genesis by spine and source name so segments from different sources
    can never be spliced into one another.  ``base_count`` is the
    absolute position of the first retained record — pruning (or
    sealing) a prefix promotes the last covered digest to
    ``base_digest``, keeping the retained suffix verifiable.

    The segment keeps the canonical strings it hashed, not the records,
    and their digests packed raw in one ``bytearray`` (32 bytes a
    record; hex only at :meth:`digest_at`, :attr:`head` and
    :meth:`entries`).  Reads decode the strings through a per-chunk
    memo, and its :class:`_Columns` hold the query postings and what a
    seal needs.
    """

    __slots__ = (
        "source", "canonicals", "digests", "head", "base_digest",
        "base_count", "columns", "_memo",
    )

    is_cold = False

    def __init__(self, source: str, genesis: str):
        self.source = source
        self.canonicals: List[str] = []
        self.digests = bytearray()
        #: Hex digest of the last chained record (the base digest when
        #: none is retained): what the next record chains from.
        self.head = genesis
        self.base_digest = genesis
        self.base_count = 0
        self.columns = _Columns()
        self._memo: Dict[int, AuditRecord] = {}

    @property
    def count(self) -> int:
        """Retained records."""
        return len(self.canonicals)

    @property
    def total(self) -> int:
        """Absolute chain position of the head (pruned + retained)."""
        return self.base_count + len(self.canonicals)

    def chain(self, record: AuditRecord) -> None:
        """Fold one record into this segment's chain."""
        frame = frame_of(record)
        canonical = record.canonical(frame)
        raw = chain_digest(self.head, canonical)
        self.head = raw.hex()
        self.digests += raw
        self.columns.add(record, frame)
        self.canonicals.append(canonical)

    def digest_at(self, position: int) -> Optional[str]:
        """Chain digest at absolute ``position``, or None if pruned away.

        Position ``k`` is the head digest after ``k`` records; position
        ``base_count`` is the (real, computed) base digest itself.
        """
        if position < self.base_count:
            return None
        if position == self.base_count:
            return self.base_digest
        if position > self.total:
            return None
        return _hex_at(self.digests, position - self.base_count - 1)

    def entries(self) -> List[Tuple[str, str]]:
        """(canonical, hex digest) pairs, the strings verbatim."""
        return list(zip(self.canonicals, _hexes(self.digests)))

    def records(self) -> List[AuditRecord]:
        """Every retained record, oldest first."""
        return self.records_at(range(self.count))

    def records_at(self, offsets: Iterable[int]) -> List[AuditRecord]:
        """The records at ``offsets`` (e.g. from :meth:`candidates`)."""
        return _decoded(self.canonicals.__getitem__, self._memo, offsets)

    def verify(self) -> int:
        """Recompute the whole retained chain, raising on mismatch.

        Returns the number of digest-material bytes re-hashed (the
        verification plane's accounting currency).
        """
        return _check_replay(
            f"segment {self.source!r}", self.base_count,
            replay_chain(
                self.base_digest, self.canonicals, self.digests, self._memo
            ),
            self.head,
        )

    def age_prefix(self, timestamp: float) -> int:
        """Length of the leading run of records older than ``timestamp``."""
        times = self.columns.times
        k = 0
        while k < len(times) and times[k] < timestamp:
            k += 1
        return k

    def prune_prefix(self, keep_from: int) -> int:
        """Drop the first ``keep_from`` retained records, rebasing the
        chain on the last pruned digest.  Returns the number pruned."""
        if keep_from <= 0:
            return 0
        self.columns.split(keep_from)
        self._rebase(keep_from)
        return keep_from

    def seal(self, k: int) -> "SealedSegment":
        """Move the first ``k`` records into a hot sealed segment: their
        strings and digests laid out once as its image, their memo
        entries unchanged, their index built from the columns.  The
        tail rebases onto the sealed head."""
        index, contexts = self.columns.split(k).index()
        memo, __ = _split_memo(self._memo, k)
        digests = _hexes(self.digests[:k * _RAW_BYTES])
        image = build_spill(
            self.source, self.base_digest, self.base_count, digests[-1],
            zip(self.canonicals, digests), index, contexts,
        )
        chunk = SealedSegment(
            self.source, self.base_digest, self.base_count, image, index,
            memo,
        )
        self._rebase(k)
        return chunk

    def _rebase(self, k: int) -> None:
        self.base_digest = _hex_at(self.digests, k - 1)
        self.base_count += k
        del self.canonicals[:k]
        del self.digests[:k * _RAW_BYTES]
        __, self._memo = _split_memo(self._memo, k)

    def candidates(
        self,
        actor: Optional[str] = None,
        subject: Optional[str] = None,
        entity: Optional[str] = None,
    ) -> Optional[List[int]]:
        """Offsets of the only records that can match, or None (read
        them all) when the filter names no actor, subject or entity."""
        return _candidates(
            self.columns.by_actor, self.columns.by_subject,
            actor, subject, entity,
        )


def matching(
    chunk,
    kind=None,
    actor: Optional[str] = None,
    subject: Optional[str] = None,
    entity: Optional[str] = None,
    tag: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
    stats=None,
) -> List[AuditRecord]:
    """A chunk's records that satisfy
    :func:`~repro.audit.records.record_matches`, oldest first.

    Only the records on the filter's shortest posting list are read
    (every record when it names no actor, subject or entity); ``stats``
    (a :class:`~repro.audit.query.QueryStats`) counts the records read.
    """
    offsets = chunk.candidates(actor, subject, entity)
    records = chunk.records() if offsets is None else chunk.records_at(offsets)
    if stats is not None:
        stats.records_scanned += len(records)
    return [
        record for record in records
        if record_matches(
            record, kind, actor, subject, entity, tag, since, until
        )
    ]


def _candidates(
    by_actor: Dict[str, array],
    by_subject: Dict[str, array],
    actor: Optional[str],
    subject: Optional[str],
    entity: Optional[str],
) -> Optional[List[int]]:
    """The shortest posting list the filter names, ascending; None when
    it names no actor, subject or entity.

    Every filter must hold of a match, so any one of the lists covers
    every match; ``entity`` is actor *or* subject, so its list is the
    union of both.
    """
    empty = array("I")
    best = None
    if actor is not None:
        best = by_actor.get(actor, empty)
    if subject is not None:
        posting = by_subject.get(subject, empty)
        if best is None or len(posting) < len(best):
            best = posting
    if entity is not None:
        as_actor = by_actor.get(entity, empty)
        as_subject = by_subject.get(entity, empty)
        if best is None or len(as_actor) + len(as_subject) < len(best):
            best = sorted(set(as_actor).union(as_subject))
    return None if best is None else list(best)


class SegmentIndex:
    """The compact per-segment index built at seal time.

    Holds everything :class:`~repro.audit.query.AuditQuery` needs to
    decide *whether a segment can possibly match* without touching its
    records: the time window, the actor and subject sets, the record
    kinds, and every qualified tag carried by any record's contexts.
    Indexes stay resident even when the segment's records are cold —
    they are the hot map over the cold tier.

    Built at seal time, the index also holds per-actor and per-subject
    *posting lists* (``by_actor`` / ``by_subject``: name → ascending
    record offsets); ``actors`` and ``subjects`` are those
    dicts' keys, and :meth:`candidates` names the only slots a query
    must read.  Postings are memory-only — :meth:`to_dict` (the spill
    header) writes the name sets alone, so an index read back with
    :meth:`from_dict` has none and its segment is scanned whole.
    """

    __slots__ = ("time_min", "time_max", "seq_min", "seq_max",
                 "actors", "subjects", "kinds", "tags",
                 "by_actor", "by_subject")

    def __init__(
        self,
        time_min: float,
        time_max: float,
        seq_min: int,
        seq_max: int,
        actors: AbstractSet[str],
        subjects: AbstractSet[str],
        kinds: Set[str],
        tags: Set[str],
        by_actor: Optional[Dict[str, array]] = None,
        by_subject: Optional[Dict[str, array]] = None,
    ):
        self.time_min = time_min
        self.time_max = time_max
        self.seq_min = seq_min
        self.seq_max = seq_max
        self.actors = actors
        self.subjects = subjects
        self.kinds = kinds
        self.tags = tags
        self.by_actor = by_actor
        self.by_subject = by_subject

    @classmethod
    def over(cls, records: Iterable[AuditRecord]) -> "SegmentIndex":
        """The index over a segment's records."""
        return _Columns.over(records).index()[0]

    def candidates(
        self,
        actor: Optional[str] = None,
        subject: Optional[str] = None,
        entity: Optional[str] = None,
    ) -> Optional[List[int]]:
        """Ascending offsets of the only records that can match, or
        None when the filter names no actor, subject or entity (or the
        index carries no postings) — then every record must be read."""
        if self.by_actor is None:
            return None
        return _candidates(
            self.by_actor, self.by_subject, actor, subject, entity
        )

    def may_match(
        self,
        kind_value: Optional[str] = None,
        actor: Optional[str] = None,
        subject: Optional[str] = None,
        entity: Optional[str] = None,
        tag: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> bool:
        """Whether any record in the segment *could* satisfy the filter.

        False is definitive (the scan is skipped); True only means the
        segment must be scanned.
        """
        if kind_value is not None and kind_value not in self.kinds:
            return False
        if actor is not None and actor not in self.actors:
            return False
        if subject is not None and subject not in self.subjects:
            return False
        if entity is not None and (
            entity not in self.actors and entity not in self.subjects
        ):
            return False
        if tag is not None and tag not in self.tags:
            return False
        if since is not None and self.time_max < since:
            return False
        if until is not None and self.time_min > until:
            return False
        return True

    def to_dict(self) -> Dict:
        return {
            "time_min": self.time_min,
            "time_max": self.time_max,
            "seq_min": self.seq_min,
            "seq_max": self.seq_max,
            "actors": sorted(self.actors),
            "subjects": sorted(s for s in self.subjects if s),
            "kinds": sorted(self.kinds),
            "tags": sorted(self.tags),
        }

    @classmethod
    def from_dict(cls, body: Dict) -> "SegmentIndex":
        return cls(
            time_min=body["time_min"],
            time_max=body["time_max"],
            seq_min=body["seq_min"],
            seq_max=body["seq_max"],
            actors=set(body["actors"]),
            subjects=set(body["subjects"]),
            kinds=set(body["kinds"]),
            tags=set(body["tags"]),
        )


# -- the fixed-stride spill codec -------------------------------------------

_LEN = struct.Struct("<I")
#: A slot's bytes before its canonical: the length, then the digest.
_SLOT_LEAD = _LEN.size + _DIGEST_BYTES


def _align16(n: int) -> int:
    return (n + 15) & ~15


def _corrupt(where, detail) -> IntegrityViolation:
    return IntegrityViolation(f"{where}: corrupt spill segment ({detail})")


class SpillImage:
    """One ``RAUDSEG2`` image, parsed over its bytes: what a hot sealed
    segment holds, or a spill file's contents.  The format's one reader.

    Parsing checks the magic, the header (version 2 only; an integer
    stride and count whose slots fit the buffer; string anchors) and
    the header's context table, entry by entry against its keys,
    admitting the entries the slots name; a slot read checks the slot's
    length against the stride.  Anything malformed raises
    :class:`IntegrityViolation`, never another exception.  ``where``
    names the image in messages (a path, or a hot segment).
    """

    __slots__ = ("buf", "where", "header", "header_digest", "header_len",
                 "data_start", "stride", "count")

    def __init__(self, buf: bytes, where) -> None:
        self.buf = buf
        self.where = where
        magic = buf[:len(SPILL_MAGIC)]
        if magic != SPILL_MAGIC:
            raise IntegrityViolation(
                f"{where}: not a {SPILL_MAGIC.decode()} spill segment file "
                f"(magic {bytes(magic)!r})"
            )
        lead = len(SPILL_MAGIC) + _LEN.size
        try:
            (length,) = _LEN.unpack_from(buf, len(SPILL_MAGIC))
            raw = buf[lead:lead + length]
            header = json.loads(raw)
            version = header["version"]
        except (struct.error, ValueError, KeyError, TypeError) as exc:
            raise IntegrityViolation(
                f"{where}: corrupt spill segment header ({exc})"
            ) from exc
        if version != SPILL_VERSION:
            raise IntegrityViolation(
                f"{where}: spill segment version {version!r}, this reader "
                f"reads version {SPILL_VERSION} only"
            )
        self.header = header
        self.header_digest = hashlib.sha256(raw).hexdigest()
        self.header_len = len(raw)
        self.data_start = _align16(lead + length)
        self.stride = stride = header.get("stride")
        self.count = count = header.get("count")
        if not (
            stride.__class__ is int and count.__class__ is int
            and stride >= _SLOT_LEAD and count >= 0
            and self.data_start + count * stride <= len(buf)
            and header.get("base_digest").__class__ is str
            and header.get("head").__class__ is str
        ):
            raise _corrupt(where, "the header's layout or anchors")
        # The slots are read for the references they name only when the
        # table offers an entry the process does not hold.
        table = header.get("contexts")
        if table.__class__ is not dict or any(
            _CONTEXTS.get(ref) != text for ref, text in table.items()
        ):
            register_contexts(
                table, named_contexts(map(self.canonical, range(count)))
            )

    def slot(self, i: int) -> Tuple[bytes, bytes]:
        """Slot ``i``'s canonical bytes and stored hex digest."""
        at = self.data_start + i * self.stride
        (length,) = _LEN.unpack_from(self.buf, at)
        if length > self.stride - _SLOT_LEAD:
            raise _corrupt(
                self.where, f"slot {i} length {length} exceeds the stride"
            )
        body = at + _SLOT_LEAD
        return self.buf[body:body + length], self.buf[at + _LEN.size:body]

    def _text(self, raw: bytes) -> str:
        try:
            return raw.decode()
        except UnicodeDecodeError as exc:
            raise _corrupt(self.where, exc) from exc

    def canonical(self, i: int) -> str:
        """Slot ``i``'s canonical record string."""
        return self._text(self.slot(i)[0])

    def entries(self) -> List[Tuple[str, str]]:
        """Every (canonical, hex digest) pair, verbatim."""
        return [
            (self._text(canonical), self._text(digest))
            for canonical, digest in map(self.slot, range(self.count))
        ]

    def digests(self) -> bytes:
        """Every slot's chain digest, packed.  Only lowercase sha256 hex
        packs: anything else in a digest slot is an integrity
        violation."""
        hexes = b"".join(d for __, d in map(self.slot, range(self.count)))
        try:
            packed = bytes.fromhex(hexes.decode())
        except (UnicodeDecodeError, ValueError):
            packed = b""
        if packed.hex().encode() != hexes:
            raise _corrupt(self.where, "a digest is not sha256 hex")
        return packed

    def replay(self, base: str, memo: Dict[int, AuditRecord]) -> Replay:
        """Re-hash the slots from ``base``, holding each link to the
        digest its slot stores and every record in ``memo`` to its
        slot's bytes, in one pass (see :data:`Replay`).  A link hashes
        the slot's bytes as stored, ``sha256(previous hex +
        canonical)``, so no slot is decoded to replay it.  Each slot is
        parsed here as :meth:`slot` parses it, without a call per
        record."""
        digest = base.encode()
        hashed = 0
        altered = None
        sha256 = hashlib.sha256
        unpack = _LEN.unpack_from
        buf, stride = self.buf, self.stride
        room = stride - _SLOT_LEAD
        at = self.data_start
        for i in range(self.count):
            (length,) = unpack(buf, at)
            if length > room:
                raise _corrupt(
                    self.where, f"slot {i} length {length} exceeds the stride"
                )
            body = at + _SLOT_LEAD
            canonical = buf[body:body + length]
            digest = sha256(digest + canonical).hexdigest().encode()
            hashed += length + _DIGEST_BYTES
            if digest != buf[at + _LEN.size:body]:
                return hashed, i, digest.decode(), None
            at += stride
            record = memo.get(i)
            if record is not None and altered is None and (
                record.canonical().encode() != canonical
            ):
                altered = i
        return hashed, None, digest.decode(), altered


def build_spill(
    source: str,
    base_digest: str,
    base_count: int,
    head: str,
    entries: Iterable[Tuple[str, str]],
    index: SegmentIndex,
    contexts: Dict[str, str],
) -> SpillImage:
    """One sealed segment's image (the format in the module docstring).

    ``entries`` are ``(canonical, hex digest)`` pairs — the digest
    material and chain digests verbatim, never re-serialised;
    ``contexts`` are the context-table entries they name (a seal
    gathers them as its records chain).
    """
    entries = list(entries)
    encoded = [c.encode() for c, __ in entries]
    stride = _align16(_SLOT_LEAD + max(map(len, encoded)))
    header = json.dumps(
        {
            "version": SPILL_VERSION,
            "source": source,
            "base_digest": base_digest,
            "base_count": base_count,
            "count": len(entries),
            "head": head,
            "stride": stride,
            "index": index.to_dict(),
            "contexts": contexts,
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    lead = len(SPILL_MAGIC) + _LEN.size + len(header)
    # The image is one join of per-slot parts; every slot is padded
    # to the stride from one run of zeros.
    zeros = bytes(stride - _SLOT_LEAD)
    parts = [
        SPILL_MAGIC, _LEN.pack(len(header)), header,
        bytes(_align16(lead) - lead),
    ]
    append = parts.append
    for (__, digest), canonical in zip(entries, encoded):
        append(_LEN.pack(len(canonical)))
        append(digest.encode())
        append(canonical)
        append(zeros[len(canonical):])
    return SpillImage(b"".join(parts), f"image of segment {source!r}")


def _write_atomic(path: Path, image: bytes) -> None:
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(image)
    os.replace(tmp, path)


def write_spill(
    path: Path,
    source: str,
    base_digest: str,
    base_count: int,
    head: str,
    entries: List[Tuple[str, str]],
    index: SegmentIndex,
    contexts: Dict[str, str],
) -> Tuple[int, str]:
    """Write one sealed segment's image (:func:`build_spill`) to
    ``path``.

    Returns ``(bytes written, header digest)`` — a store keeps the
    header digest *in memory* so that tampering with the on-disk header
    (including the query index and the context table) is detected by
    :meth:`SealedSegment.verify`, not just tampering with record slots.
    """
    image = build_spill(
        source, base_digest, base_count, head, entries, index, contexts
    )
    _write_atomic(path, image.buf)
    return len(image.buf), image.header_digest


def read_spill_header(path: Path) -> Dict:
    """The parsed header of a spill file."""
    return SpillImage(Path(path).read_bytes(), path).header


def read_spill(path: Path) -> Tuple[Dict, List[Tuple[str, str]]]:
    """Read a spill file back as (header, [(canonical, digest), ...]),
    the table entries the slots name admitted."""
    image = SpillImage(Path(path).read_bytes(), path)
    return image.header, image.entries()


def load_spill(path: Path) -> List[AuditRecord]:
    """Decode and verify one spill file on its own, with no process
    state: the chain is replayed from the header's base digest to its
    head, the header's context table must be the one its records name,
    and contexts resolve through it.  Raises
    :class:`IntegrityViolation` on any mismatch.

    Without the digests a live store committed to, this proves the
    file self-consistent, not that it is the file that store wrote.
    """
    image = SpillImage(Path(path).read_bytes(), path)
    entries = image.entries()
    header = image.header
    __, bad, last, __ = image.replay(header["base_digest"], {})
    if bad is not None or last != header["head"]:
        raise IntegrityViolation(f"{path}: spill segment chain broken")
    if set(header["contexts"]) != named_contexts(c for c, __ in entries):
        raise IntegrityViolation(
            f"{path}: the header's context table is not the table its "
            f"records name"
        )
    return [AuditRecord.from_canonical(c) for c, __ in entries]


class SealedSegment:
    """An immutable, index-carrying chunk of one source's chain.

    Sealed segments are the unit of tiering, and a sealed segment is
    its spill image (:class:`SpillImage`), built once at seal.  A *hot*
    one holds the image in memory, with a decode memo like the tail's;
    a *cold* one holds the path of the file :meth:`demote` wrote the
    same bytes to.  Either way the segment keeps its chain anchors (base
    and head digest, absolute positions), the :class:`SegmentIndex`,
    the header digest committed at seal and, once a probe asked, the
    packed chain digests.  Only :meth:`_open` knows the tier: every read
    parses the image it returns.  The anchors held in memory are what
    the live process committed to — an image that disagrees with them
    fails :meth:`verify`, hot or cold.
    """

    __slots__ = (
        "source", "base_digest", "base_count", "count", "head", "index",
        "header_digest", "path", "_image", "_digests", "_memo",
        "_verified_key",
    )

    def __init__(
        self,
        source: str,
        base_digest: str,
        base_count: int,
        image: SpillImage,
        index: SegmentIndex,
        memo: Dict[int, AuditRecord],
    ):
        self.source = source
        self.base_digest = base_digest
        self.base_count = base_count
        self.count = image.count
        self.head = image.header["head"]
        self.index = index
        #: sha256 of the image's header bytes, committed at seal, so
        #: tampering with the header (index, context table) is
        #: detectable in either tier.
        self.header_digest = image.header_digest
        self.path: Optional[Path] = None
        #: The image while hot; None once cold.
        self._image: Optional[SpillImage] = image
        #: The packed chain digests, read from the image by the first
        #: :meth:`digest_at`.
        self._digests: Optional[bytes] = None
        self._memo = memo
        #: The verified watermark: set after a successful deep check of
        #: a cold segment, keyed on the immutable anchors plus the spill
        #: file's stat fingerprint.  ``None`` means "never verified (or
        #: invalidated) — re-verify in every mode".
        self._verified_key: Optional[Tuple] = None

    def __repr__(self) -> str:
        tier = "cold" if self.is_cold else "hot"
        return (
            f"<SealedSegment {self.source!r} [{self.base_count}"
            f"+{self.count}] {tier}>"
        )

    @property
    def is_cold(self) -> bool:
        return self._image is None

    @property
    def total(self) -> int:
        return self.base_count + self.count

    # -- content -----------------------------------------------------------

    def _open(self) -> Tuple[SpillImage, Dict[int, AuditRecord]]:
        """The segment's image, held to the header digest and anchors
        committed at seal, and the memo reads decode through.

        The one place that knows the tier: hot, the image held in
        memory and the segment's memo; cold, the spill file read whole
        and a fresh memo, so cold reads decode afresh and keep nothing.
        """
        image, memo = self._image, self._memo
        if image is None:
            try:
                buf = self.path.read_bytes()
            except OSError as exc:
                raise IntegrityViolation(
                    f"spill file {self.path} unreadable for segment "
                    f"{self.source!r}: {exc}"
                ) from exc
            image, memo = SpillImage(buf, self.path), {}
        if image.header_digest != self.header_digest:
            raise IntegrityViolation(
                f"{image.where}: header (metadata/index) does not match "
                f"the digest committed at seal for segment {self.source!r}"
            )
        header = image.header
        if (
            header["count"] != self.count
            or header["base_digest"] != self.base_digest
            or header["base_count"] != self.base_count
            or header["head"] != self.head
        ):
            raise IntegrityViolation(
                f"{image.where}: header does not match the anchors "
                f"committed for segment {self.source!r}"
            )
        return image, memo

    def entries(self) -> List[Tuple[str, str]]:
        """(canonical, digest) pairs, verbatim from the image."""
        return self._open()[0].entries()

    def records(self) -> List[AuditRecord]:
        """The segment's records, decoded from their stored strings."""
        return self.records_at(range(self.count))

    def candidates(
        self,
        actor: Optional[str] = None,
        subject: Optional[str] = None,
        entity: Optional[str] = None,
    ) -> Optional[List[int]]:
        """The index's posting-list offsets for the filter, or None
        (read the whole segment); see :meth:`SegmentIndex.candidates`."""
        return self.index.candidates(actor, subject, entity)

    def records_at(self, offsets: Iterable[int]) -> List[AuditRecord]:
        """The records at ``offsets`` (segment-relative, e.g. from
        :meth:`candidates`): only the named fixed-stride slots are
        decoded, through the memo.  A slot with a bad length or bad
        bytes raises :class:`IntegrityViolation`."""
        image, memo = self._open()
        return _decoded(image.canonical, memo, offsets)

    def age_prefix(self, timestamp: float) -> int:
        """Length of the leading run of records older than ``timestamp``,
        decoding only that run and the record that ends it."""
        image = self._open()[0]
        for k in range(self.count):
            record = AuditRecord.from_canonical(image.canonical(k))
            if not record.timestamp < timestamp:
                return k
        return self.count

    def digest_at(self, position: int) -> Optional[str]:
        """Chain digest at absolute ``position``: the first probe packs
        the image's digest column, and later probes, cold ones included,
        answer from memory."""
        if position < self.base_count or position > self.total:
            return None
        if position == self.base_count:
            return self.base_digest
        if self._digests is None:
            self._digests = self._open()[0].digests()
        return _hex_at(self._digests, position - self.base_count - 1)

    # -- the verified watermark --------------------------------------------

    def _anchor_key(self) -> Optional[Tuple]:
        """The watermark key: immutable anchors + file fingerprint.

        ``None`` when the segment cannot be watermarked right now — it
        is hot (reads hand out records from its memo, and a record a
        read returned can be mutated, so incremental mode must hold the
        memo to its strings on every pass), its file is unreadable, or
        the file was modified too close to *now* for coarse filesystem
        timestamps to distinguish a later rewrite (see
        ``_STAT_MARGIN_NS``).
        """
        if self._image is not None or self.path is None:
            return None
        try:
            st = os.stat(self.path)
        except OSError:
            return None
        if st.st_mtime_ns + _STAT_MARGIN_NS >= time.time_ns():
            return None
        return (
            self.base_digest, self.base_count, self.count, self.head,
            self.header_digest, str(self.path), st.st_ino, st.st_size,
            st.st_mtime_ns,
        )

    @property
    def watermarked(self) -> bool:
        return self._verified_key is not None

    def watermark_valid(self) -> bool:
        """Whether the last successful deep check still covers this
        segment: anchors unchanged *and* the spill file's stat
        fingerprint (inode, size, mtime) untouched."""
        if self._verified_key is None:
            return False
        return self._anchor_key() == self._verified_key

    def note_verified(self) -> None:
        """Record the watermark after a successful full verification
        (no-op when the segment is not watermarkable right now)."""
        self._verified_key = self._anchor_key()

    def clear_watermark(self) -> bool:
        """Drop the watermark (any mutation path calls this).  Returns
        whether one was held — the invalidation accounting signal."""
        held = self._verified_key is not None
        self._verified_key = None
        return held

    # -- tier transitions --------------------------------------------------

    def demote(self, spill_dir: Path) -> int:
        """Write the image to disk and drop it; returns the file size.
        Idempotent for an already-cold segment."""
        image = self._image
        if image is None:
            return 0
        safe = _UNSAFE.sub("_", self.source)
        self.path = spill_dir / f"{safe}-{self.base_count:012d}.seg"
        _write_atomic(self.path, image.buf)
        self._image = None
        self._memo = {}
        # Fresh on-disk identity: no watermark — the file has never been
        # deep-checked in its cold form.
        self._verified_key = None
        return len(image.buf)

    # -- integrity ---------------------------------------------------------

    def verify(self) -> int:
        """Replay the image's slots from the base digest held in memory
        to the head held in memory, raising on the first mismatch, so a
        rewritten image cannot satisfy both ends.  The image is held to
        the header digest committed at seal (the context table
        included), and every record a read handed out to its string.
        Returns the number of digest-material bytes covered: the slots
        re-hashed plus the header held to its digest."""
        image, memo = self._open()
        return image.header_len + _check_replay(
            f"sealed segment {self.source!r}", self.base_count,
            image.replay(self.base_digest, memo), self.head,
        )

    # -- maintenance -------------------------------------------------------

    def prune_prefix(self, keep_from: int) -> int:
        """Drop the first ``keep_from`` records, rebasing the chain.

        The retained strings and digests are kept verbatim in a new
        image, and the index is rebuilt over the remainder; a hot
        segment holds the new image, a cold one rewrites its file in
        place.
        """
        if keep_from <= 0:
            return 0
        if keep_from >= self.count:
            raise ValueError("use drop() to discard a whole segment")
        image, memo = self._open()
        entries = image.entries()
        # Any rebase invalidates the verified watermark: anchors move,
        # and a cold file is rewritten.
        self._verified_key = None
        retained = entries[keep_from:]
        self.base_digest = entries[keep_from - 1][1]
        self.base_count += keep_from
        self.count = len(retained)
        self.index, contexts = _Columns.over(
            AuditRecord.from_canonical(c) for c, __ in retained
        ).index()
        __, self._memo = _split_memo(memo, keep_from)
        self._digests = None
        image = build_spill(
            self.source, self.base_digest, self.base_count, self.head,
            retained, self.index, contexts,
        )
        self.header_digest = image.header_digest
        if self._image is None:
            _write_atomic(self.path, image.buf)
        else:
            self._image = image
        return keep_from

    def drop(self) -> int:
        """Discard the whole segment (deleting its spill file).  Returns
        the record count dropped."""
        if self.path is not None:
            try:
                self.path.unlink()
            except FileNotFoundError:
                pass
        return self.count


class SegmentStore:
    """The spine's storage layer: per-source sealed segments + open tail.

    With no ``seal_every`` configured the store is behaviourally the old
    single-segment-per-source layout: one open tail each, nothing
    sealed, nothing spilled.  :meth:`configure_spill` turns on the tier
    lifecycle — seal at ``seal_every`` records, keep the ``hot_segments``
    newest sealed segments in memory, demote the rest to ``spill_dir``.
    """

    def __init__(
        self,
        genesis: Callable[[str], str],
        seal_every: Optional[int] = None,
        hot_segments: int = 2,
        spill_dir: Optional[Path] = None,
    ):
        self._genesis = genesis
        self.seal_every = seal_every
        self.hot_segments = max(0, hot_segments)
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.tails: Dict[str, AuditSegment] = {}
        self.sealed: Dict[str, List[SealedSegment]] = {}
        self.stats_seals = 0
        self.stats_demotions = 0
        self.stats_cold_loads = 0
        self.stats_watermark_invalidations = 0
        self.spill_bytes = 0

    def __repr__(self) -> str:
        return (
            f"<SegmentStore sources={len(self.tails)} "
            f"sealed={sum(len(v) for v in self.sealed.values())} "
            f"cold={self.cold_segments()}>"
        )

    def configure_spill(
        self,
        path,
        hot_segments: int = 2,
        seal_every: int = 1024,
    ) -> None:
        """Enable the tier lifecycle (idempotent reconfiguration).

        ``path`` is created if missing.  Sealed segments beyond the new
        ``hot_segments`` are demoted now; a new ``seal_every`` takes
        effect from the next seal check — an oversized existing tail
        seals on the next drain.
        """
        if seal_every < 1:
            raise ValueError(f"seal_every must be >= 1, got {seal_every}")
        self.spill_dir = Path(path)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.hot_segments = max(0, hot_segments)
        self.seal_every = seal_every
        for source in self.sealed:
            self._demote_excess(source)

    # -- structure ---------------------------------------------------------

    def tail(self, source: str) -> AuditSegment:
        """The open tail for ``source`` (created on first use)."""
        seg = self.tails.get(source)
        if seg is None:
            seg = self.tails[source] = AuditSegment(
                source, self._genesis(source)
            )
            self.sealed.setdefault(source, [])
        return seg

    def sources(self) -> List[str]:
        return sorted(self.tails)

    def _chunks(self, source: str) -> List:
        """Sealed chunks (oldest first) then the open tail."""
        return [*self.sealed.get(source, ()), self.tails[source]]

    # -- seal / demote lifecycle -------------------------------------------

    def maybe_seal(self, source: str) -> None:
        """Seal full tail chunks and demote beyond the hot retention.

        Only a seal adds a hot segment, so a drain that seals nothing
        skips the demote pass (:meth:`configure_spill` runs it for a
        lowered retention).
        """
        if self.seal_every is None:
            return
        tail = self.tails[source]
        if tail.count < self.seal_every:
            return
        while tail.count >= self.seal_every:
            self.seal_prefix(source, self.seal_every)
        self._demote_excess(source)

    def seal_prefix(self, source: str, k: int) -> Optional[SealedSegment]:
        """Seal the first ``k`` tail records into an indexed chunk.

        The tail rebases onto the sealed head, so the source's chain is
        unbroken: seal → index now, demote later.
        """
        tail = self.tails.get(source)
        if tail is None:
            return None
        k = min(k, tail.count)
        if k <= 0:
            return None
        chunk = tail.seal(k)
        self.sealed.setdefault(source, []).append(chunk)
        self.stats_seals += 1
        return chunk

    def _demote_excess(self, source: str) -> None:
        if self.spill_dir is None:
            return
        chunks = self.sealed.get(source, [])
        hot = [c for c in chunks if not c.is_cold]
        for chunk in hot[: max(0, len(hot) - self.hot_segments)]:
            self.spill_bytes += chunk.demote(self.spill_dir)
            self.stats_demotions += 1

    def demote_before(self, timestamp: float) -> int:
        """Move records older than ``timestamp`` to the cold tier.

        The non-destructive retention action: seals the tail prefix
        older than the cutoff, then demotes every sealed segment whose
        whole time range is older.  Chains, digests and checkpoint
        bindings are untouched — only the records' tier changes.
        Returns the number of records demoted; 0 when no spill
        directory is configured (there is no cold tier to demote into).
        """
        if self.spill_dir is None:
            return 0
        demoted = 0
        for source in list(self.tails):
            self.seal_prefix(source, self.tails[source].age_prefix(timestamp))
            for chunk in self.sealed.get(source, []):
                if not chunk.is_cold and chunk.index.time_max < timestamp:
                    self.spill_bytes += chunk.demote(self.spill_dir)
                    self.stats_demotions += 1
                    demoted += chunk.count
        return demoted

    # -- chain surface (what the spine reads) ------------------------------

    def head(self, source: str) -> str:
        return self.tails[source].head

    def total(self, source: str) -> int:
        """Absolute chain position of the source's head."""
        return self.tails[source].total

    def digest_at(self, source: str, position: int) -> Optional[str]:
        """Chain digest at absolute ``position`` across every tier.

        Chunks are contiguous and ascending, so the one to ask is the
        first whose head position reaches ``position`` (found by
        bisection); it answers None for a pruned position.
        """
        sealed = self.sealed.get(source, ())
        i = bisect_left(sealed, position, key=chunk_total)
        chunk = sealed[i] if i < len(sealed) else self.tails[source]
        return chunk.digest_at(position)

    def retained(self, source: str) -> int:
        """Retained (un-pruned) record count for one source."""
        return sum(c.count for c in self._chunks(source))

    def total_retained(self) -> int:
        return sum(self.retained(source) for source in list(self.tails))

    def records_of(self, source: str) -> List[AuditRecord]:
        """Every retained record of one source, oldest first (cold
        segments are loaded — and counted — on demand)."""
        result: List[AuditRecord] = []
        for chunk in self._chunks(source):
            if chunk.is_cold:
                self.stats_cold_loads += 1
            result.extend(chunk.records())
        return result

    def export_entries(self) -> List[Dict]:
        """Serialised records with digests and segment attribution —
        byte-identical whether a segment is hot or spilled, because
        cold entries come back verbatim from the spill file."""
        rows: List[Tuple[int, str, str, str]] = []
        for source in self.sources():
            for chunk in self._chunks(source):
                if chunk.is_cold:
                    self.stats_cold_loads += 1
                rows.extend(
                    (json.loads(canonical)["seq"], canonical, digest, source)
                    for canonical, digest in chunk.entries()
                )
        rows.sort(key=itemgetter(0))
        return ship_contexts([
            {"record": canonical, "digest": digest, "segment": source}
            for __, canonical, digest, source in rows
        ])

    # -- integrity ---------------------------------------------------------

    def verify(
        self,
        deep: bool = True,
        stats: Optional[VerifyStats] = None,
    ) -> None:
        """Verify every source's chain across the tier boundary.

        Each chunk verifies internally, and consecutive chunks must
        join exactly: the next base digest is the previous head, the
        next base count the previous total.  A chunk boundary is where
        a splice would hide, so the joins are checked explicitly — in
        *every* mode, for every chunk, from the in-memory anchors.

        ``deep=True`` (the default) recomputes every chunk and
        re-watermarks the cold ones.  ``deep=False`` is the incremental
        mode: hot chunks are always recomputed, but a cold chunk whose
        verified watermark is still valid (anchors and spill-file stat
        fingerprint unchanged since its last successful full check) is
        skipped.  Raises on the first violation, in chunk order.
        """
        todo: List = []
        skipped = 0
        invalidated = 0
        total_chunks = 0
        for source in list(self.tails):
            prev: Optional[SealedSegment] = None
            for chunk in self._chunks(source):
                total_chunks += 1
                if prev is not None and (
                    chunk.base_digest != prev.head
                    or chunk.base_count != chunk_total(prev)
                ):
                    raise IntegrityViolation(
                        f"segment {source!r} chain discontinuity at "
                        f"position {chunk.base_count}"
                    )
                prev = chunk
                if not deep and chunk.is_cold and chunk.watermarked:
                    if chunk.watermark_valid():
                        skipped += 1
                        continue
                    invalidated += 1
                    self.stats_watermark_invalidations += 1
                todo.append(chunk)

        hashed = [chunk.verify() for chunk in todo]

        for chunk in todo:
            if chunk.is_cold:
                chunk.note_verified()
        if stats is not None:
            stats.segments_total += total_chunks
            stats.segments_verified += len(todo)
            stats.segments_skipped += skipped
            stats.watermark_hits += skipped
            stats.watermark_invalidations += invalidated
            stats.bytes_hashed += sum(hashed)
            stats.cold_verified += sum(1 for c in todo if c.is_cold)
            stats.records_verified += sum(c.count for c in todo)

    # -- pruning -----------------------------------------------------------

    def prune_before(self, timestamp: float) -> int:
        """Destructively discard records older than ``timestamp``.

        Whole sealed segments older than the cutoff are dropped (their
        spill files deleted); the first straddling chunk is prefix-
        pruned and rebased.  Returns the number of records pruned.
        """
        return sum(
            self.prune_source(source, timestamp) for source in list(self.tails)
        )

    def prune_source(self, source: str, before: Optional[float]) -> int:
        """Prune one source (wholly, or records before ``before``)."""
        if source not in self.tails:
            return 0
        if before is None:
            # Whole-source prune: drop every sealed chunk (the tail's
            # base is already the last sealed head, so the chain stays
            # anchored) and empty the tail with the usual rebase.
            chunks = self.sealed.get(source, [])
            pruned = sum(chunk.drop() for chunk in chunks)
            chunks.clear()
            tail = self.tails[source]
            return pruned + tail.prune_prefix(tail.count)
        pruned = 0
        chunks = self.sealed.get(source, [])
        while chunks and chunks[0].index.time_max < before:
            pruned += chunks.pop(0).drop()
        if chunks:
            first = chunks[0]
            if first.index.time_min < before:
                self.stats_watermark_invalidations += (
                    first.clear_watermark()
                )
                pruned += first.prune_prefix(first.age_prefix(before))
            return pruned  # later chunks and the tail are all newer
        tail = self.tails[source]
        pruned += tail.prune_prefix(tail.age_prefix(before))
        return pruned

    # -- observability -----------------------------------------------------

    def cold_segments(self) -> int:
        return sum(
            1 for chunks in self.sealed.values()
            for c in chunks if c.is_cold
        )

    def sealed_segments(self) -> int:
        return sum(len(chunks) for chunks in self.sealed.values())

    def tier_stats(self) -> Dict:
        """The tier rollup ``Deployment.stats()`` reports."""
        sealed = [c for chunks in self.sealed.values() for c in chunks]
        hot = [c for c in sealed if not c.is_cold]
        # The hot window: each hot chunk's (oldest, newest) timestamps.
        spans = [(c.index.time_min, c.index.time_max) for c in hot] + [
            (t.columns.times[0], t.columns.times[-1])
            for t in self.tails.values() if t.count
        ]
        return {
            "hot_records": sum(c.count for c in hot)
            + sum(t.count for t in self.tails.values()),
            "cold_records": sum(c.count for c in sealed if c.is_cold),
            "sealed_segments": self.sealed_segments(),
            "cold_segments": self.cold_segments(),
            "spill_bytes": self.spill_bytes,
            "seals": self.stats_seals,
            "demotions": self.stats_demotions,
            "cold_loads": self.stats_cold_loads,
            "watermarked_segments": sum(
                1 for chunks in self.sealed.values()
                for c in chunks if c.watermarked
            ),
            "watermark_invalidations": self.stats_watermark_invalidations,
            "hot_time_min": min((lo for lo, __ in spans), default=None),
            "hot_time_max": max((hi for __, hi in spans), default=None),
            "spill_dir": str(self.spill_dir) if self.spill_dir else None,
        }


def chunk_total(chunk) -> int:
    """Absolute head position of a sealed chunk or open tail."""
    return chunk.total

