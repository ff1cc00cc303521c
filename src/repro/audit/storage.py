"""Tiered segment storage for the audit plane (``docs/audit_storage.md``).

The spine used to keep every drained record in one ever-growing Python
list per source; ``prune_before`` was the only relief, and legal
retention obligations fought auditability (pruning destroys the trail).
This module is the storage layer behind the spine now, following the
hot/cold tiering pattern of patient-monitoring stacks (a hot store for
"the last hour of vitals", a cold store for long-term analytics):

* **Hot tail** — each source chains into an open, in-memory
  :class:`AuditSegment` exactly as before.
* **Seal** — when the tail reaches ``seal_every`` records it is sealed
  into an immutable :class:`SealedSegment`; a compact
  :class:`SegmentIndex` (time bounds, actors, subjects, kinds, tags) is
  built at seal time, and the source continues in a fresh tail whose
  chain base is the sealed head — the chain is continuous across
  seals.
* **Demote** — sealed segments beyond the ``hot_segments`` newest are
  spilled to disk in a fixed-stride, mmap-able record format (header +
  chain digests preserved verbatim) and their in-memory records are
  dropped.  Only the segment's base/head digests, counts and index stay
  resident, so ``verify()`` still holds the file to the digests the
  live process committed to.

Everything that *observes* the chain — ``verify()``, ``export()``,
checkpoint receipts, federation pinboard verdicts — reads identically
whether a segment is hot or spilled; :class:`~repro.audit.query.
AuditQuery` uses the per-segment indexes to answer entity/tag/time
queries from index probes plus a bounded number of segment scans.

On-disk record format (one file per sealed segment)::

    magic   8 bytes   b"RAUDSEG1"
    u32     4 bytes   header length H
    header  H bytes   JSON: version, source, base_digest, base_count,
                      count, head, stride, index
    slots   count x stride, 16-aligned, starting at offset
            align16(12 + H); slot i at data_start + i*stride:
        u32      canonical length L
        64 bytes chain digest (hex, verbatim)
        L bytes  canonical record JSON (verbatim digest material)
        padding  zeros to stride

Fixed stride means record ``i`` is one pointer computation away under
``mmap`` — no scan to seek, which is what lets cold queries touch only
the slots a segment index proved relevant.
"""

from __future__ import annotations

import hashlib
import json
import mmap
import os
import re
import struct
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Callable, Dict, List, Optional, Set, Tuple

from repro.audit.log import _DIGEST_BYTES, chain_digest, replay_chain
from repro.audit.records import AuditRecord, _context_tags
from repro.audit.verify import VerifyStats
from repro.errors import IntegrityViolation

SPILL_MAGIC = b"RAUDSEG1"
SPILL_VERSION = 1

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


def _segment_genesis(spine_name: str, source: str) -> str:
    """Domain-separated genesis digest for one segment's chain."""
    return hashlib.sha256(
        f"repro-audit-segment|{spine_name}|{source}".encode()
    ).hexdigest()


class AuditSegment:
    """One source's open hash-chain tail inside a spine.

    Records are chained exactly as in :class:`~repro.audit.log.AuditLog`
    (``digest = sha256(prev + canonical)``), but the chain base is
    domain-separated by spine and source name so segments from different
    sources can never be spliced into one another.  ``base_count`` is
    the absolute position of the first retained record — pruning (or
    sealing) a prefix promotes the last covered digest to
    ``base_digest``, keeping the retained suffix verifiable, exactly
    like ``AuditLog.prune_before``.
    """

    __slots__ = (
        "source", "records", "digests", "base_digest", "base_count",
        "canonicals",
    )

    def __init__(self, source: str, genesis: str):
        self.source = source
        self.records: List[AuditRecord] = []
        self.digests: List[str] = []
        self.base_digest = genesis
        self.base_count = 0
        #: Canonical serialisations kept alongside the records, so seal
        #: and demote never re-serialise (the spill file wants exactly
        #: the bytes that were hashed).  Only populated on tiered tails
        #: (``SegmentStore.configure_spill``); plain in-memory spines
        #: skip the extra retention.
        self.canonicals: Optional[List[str]] = None

    @property
    def head(self) -> str:
        """Digest of the last chained record (base digest when empty)."""
        return self.digests[-1] if self.digests else self.base_digest

    @property
    def total(self) -> int:
        """Absolute chain position of the head (pruned + retained)."""
        return self.base_count + len(self.records)

    def chain(self, record: AuditRecord) -> str:
        """Fold one record into this segment's chain."""
        canonical = record.canonical()
        digest = chain_digest(self.head, canonical)
        self.records.append(record)
        self.digests.append(digest)
        if self.canonicals is not None:
            self.canonicals.append(canonical)
        return digest

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
        return self.digests[position - self.base_count - 1]

    def verify(self) -> int:
        """Recompute the whole retained chain, raising on mismatch.

        Returns the number of digest-material bytes re-hashed (the
        verification plane's accounting currency).
        """
        hashed, bad = replay_chain(
            self.base_digest,
            map(AuditRecord.canonical, self.records),
            self.digests,
        )
        if bad is not None:
            raise IntegrityViolation(
                f"segment {self.source!r} chain broken at seq "
                f"{self.records[bad].seq}"
            )
        return hashed

    def prune_prefix(self, keep_from: int) -> int:
        """Drop the first ``keep_from`` retained records, rebasing the
        chain on the last pruned digest.  Returns the number pruned."""
        if keep_from <= 0:
            return 0
        self.base_digest = self.digests[keep_from - 1]
        self.base_count += keep_from
        self.records = self.records[keep_from:]
        self.digests = self.digests[keep_from:]
        if self.canonicals is not None:
            self.canonicals = self.canonicals[keep_from:]
        return keep_from


class SegmentIndex:
    """The compact per-segment index built at seal time.

    Holds everything :class:`~repro.audit.query.AuditQuery` needs to
    decide *whether a segment can possibly match* without touching its
    records: the time window, the actor and subject sets, the record
    kinds, and every qualified tag carried by any record's contexts.
    Indexes stay resident even when the segment's records are cold —
    they are the hot map over the cold tier.
    """

    __slots__ = ("time_min", "time_max", "seq_min", "seq_max",
                 "actors", "subjects", "kinds", "tags")

    def __init__(
        self,
        time_min: float,
        time_max: float,
        seq_min: int,
        seq_max: int,
        actors: Set[str],
        subjects: Set[str],
        kinds: Set[str],
        tags: Set[str],
    ):
        self.time_min = time_min
        self.time_max = time_max
        self.seq_min = seq_min
        self.seq_max = seq_max
        self.actors = actors
        self.subjects = subjects
        self.kinds = kinds
        self.tags = tags

    @classmethod
    def over(cls, records: List[AuditRecord]) -> "SegmentIndex":
        """Build the index over a sealed segment's records.

        One comprehension pass per set (cheaper than a single
        interpreted loop doing every extraction — this runs at seal
        time for every record that ever goes cold).
        """
        # Enforcement reuses a handful of context objects across a whole
        # segment: dedupe by identity before walking tags (the walk
        # itself is memoised per context in record_tags' helper).
        contexts: Dict[int, object] = {
            id(r.source_context): r.source_context
            for r in records if r.source_context is not None
        }
        contexts.update(
            (id(r.target_context), r.target_context)
            for r in records if r.target_context is not None
        )
        tags: Set[str] = set()
        for ctx in contexts.values():
            tags |= _context_tags(ctx)
        return cls(
            time_min=min(r.timestamp for r in records),
            time_max=max(r.timestamp for r in records),
            seq_min=min(r.seq for r in records),
            seq_max=max(r.seq for r in records),
            actors={r.actor for r in records},
            subjects={r.subject for r in records if r.subject},
            kinds={r.kind.value for r in records},
            tags=tags,
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
            "subjects": sorted(self.subjects),
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


def _align16(n: int) -> int:
    return (n + 15) & ~15


def write_spill(
    path: Path,
    source: str,
    base_digest: str,
    base_count: int,
    head: str,
    entries: List[Tuple[str, str]],
    index: SegmentIndex,
) -> Tuple[int, str]:
    """Write one sealed segment to ``path``.

    Returns ``(bytes written, header digest)`` — the writer keeps the
    header digest *in memory* so that tampering with the on-disk header
    (including the query index) is detected by :meth:`SealedSegment.
    verify`, not just tampering with record slots.  ``entries`` are
    ``(canonical, digest)`` pairs — the digest material and chain
    digests verbatim, never re-serialised.
    """
    encoded = [c.encode() for c, __ in entries]
    stride = _align16(
        _LEN.size + _DIGEST_BYTES + max(len(e) for e in encoded)
    )
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
        },
        sort_keys=True,
        separators=(",", ":"),
    ).encode()
    data_start = _align16(len(SPILL_MAGIC) + _LEN.size + len(header))
    buf = bytearray(data_start + stride * len(entries))
    buf[: len(SPILL_MAGIC)] = SPILL_MAGIC
    pos = len(SPILL_MAGIC)
    buf[pos:pos + _LEN.size] = _LEN.pack(len(header))
    pos += _LEN.size
    buf[pos:pos + len(header)] = header
    for i, ((__, digest), canonical) in enumerate(zip(entries, encoded)):
        slot = data_start + i * stride
        buf[slot:slot + _LEN.size] = _LEN.pack(len(canonical))
        slot += _LEN.size
        buf[slot:slot + _DIGEST_BYTES] = digest.encode()
        slot += _DIGEST_BYTES
        buf[slot:slot + len(canonical)] = canonical
    tmp = path.with_suffix(path.suffix + ".tmp")
    tmp.write_bytes(bytes(buf))
    os.replace(tmp, path)
    return len(buf), hashlib.sha256(header).hexdigest()


def read_spill_header_bytes(path: Path) -> bytes:
    """The raw header bytes of a spill file (for digest checking)."""
    with open(path, "rb") as fh:
        magic = fh.read(len(SPILL_MAGIC))
        if magic != SPILL_MAGIC:
            raise IntegrityViolation(f"{path}: not a spill segment file")
        try:
            (header_len,) = _LEN.unpack(fh.read(_LEN.size))
        except struct.error as exc:
            raise IntegrityViolation(
                f"{path}: truncated spill segment header"
            ) from exc
        return fh.read(header_len)


def read_spill_header(path: Path) -> Dict:
    """Parse only the header of a spill file."""
    return json.loads(read_spill_header_bytes(path))


def read_spill(path: Path) -> Tuple[Dict, List[Tuple[str, str]]]:
    """Read a spill file back as (header, [(canonical, digest), ...]).

    Record slots are accessed through ``mmap`` at fixed stride — this is
    the same random-access path a partial reader would use.
    """
    with open(path, "rb") as fh:
        mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
        try:
            return _parse_spill(mm, path)
        finally:
            mm.close()


def read_spill_full(path: Path) -> Tuple[bytes, Dict, List[Tuple[str, str]]]:
    """One-open read of a whole spill file for verification:
    ``(raw header bytes, parsed header, entries)``.

    Deep verification needs the raw header bytes (for the committed
    header digest) *and* every record slot; reading the file once with a
    single ``read()`` — which releases the GIL for the duration of the
    I/O — instead of an open per concern is what lets a thread pool
    overlap independent segments' file work.
    """
    with open(path, "rb") as fh:
        blob = fh.read()
    header, entries = _parse_spill(blob, path)
    return _raw_header_of(blob, path), header, entries


def _raw_header_of(blob, path: Path) -> bytes:
    """The raw header bytes out of an in-memory spill image."""
    try:
        (header_len,) = _LEN.unpack(
            blob[len(SPILL_MAGIC):len(SPILL_MAGIC) + _LEN.size]
        )
    except struct.error as exc:
        raise IntegrityViolation(
            f"{path}: truncated spill segment header"
        ) from exc
    start = len(SPILL_MAGIC) + _LEN.size
    return bytes(blob[start:start + header_len])


def _parse_spill(blob, path: Path) -> Tuple[Dict, List[Tuple[str, str]]]:
    """Decode a spill image (bytes or mmap) into (header, entries)."""
    try:
        if blob[: len(SPILL_MAGIC)] != SPILL_MAGIC:
            raise IntegrityViolation(f"{path}: not a spill segment file")
        (header_len,) = _LEN.unpack(
            blob[len(SPILL_MAGIC):len(SPILL_MAGIC) + _LEN.size]
        )
        header_end = len(SPILL_MAGIC) + _LEN.size + header_len
        header = json.loads(blob[len(SPILL_MAGIC) + _LEN.size:header_end])
        stride = header["stride"]
        data_start = _align16(header_end)
        entries: List[Tuple[str, str]] = []
        for i in range(header["count"]):
            slot = data_start + i * stride
            (length,) = _LEN.unpack(blob[slot:slot + _LEN.size])
            digest = blob[
                slot + _LEN.size:slot + _LEN.size + _DIGEST_BYTES
            ].decode()
            body = slot + _LEN.size + _DIGEST_BYTES
            entries.append((blob[body:body + length].decode(), digest))
        return header, entries
    except (UnicodeDecodeError, ValueError, KeyError,
            struct.error) as exc:
        # A doctored file can corrupt lengths, the header JSON or
        # the canonical bytes themselves; every such failure is an
        # integrity violation, not a crash.
        raise IntegrityViolation(
            f"{path}: corrupt spill segment ({exc})"
        ) from exc


class SealedSegment:
    """An immutable, index-carrying chunk of one source's chain.

    Sealed segments are the unit of tiering: *hot* ones still hold
    their record objects; *cold* ones hold only chain anchors (base and
    head digest, absolute positions) plus the :class:`SegmentIndex`,
    with the records in a spill file.  The anchors held in memory are
    what the live process committed to — a cold file that disagrees
    with them fails :meth:`verify` exactly like an in-memory mutation.
    """

    __slots__ = (
        "source", "base_digest", "base_count", "count", "head",
        "index", "_records", "_digests", "_canonicals", "path",
        "header_digest", "_verified_key", "_digest_col", "_layout",
        "_probes",
    )

    def __init__(
        self,
        source: str,
        base_digest: str,
        base_count: int,
        records: List[AuditRecord],
        digests: List[str],
        canonicals: Optional[List[str]] = None,
    ):
        self.source = source
        self.base_digest = base_digest
        self.base_count = base_count
        self.count = len(records)
        self.head = digests[-1]
        self.index = SegmentIndex.over(records)
        self._records: Optional[List[AuditRecord]] = records
        self._digests: Optional[List[str]] = digests
        #: Serialisations carried over from the tail (when the store
        #: retains them) so demote writes the hashed bytes verbatim
        #: without re-serialising every record.
        self._canonicals: Optional[List[str]] = canonicals
        self.path: Optional[Path] = None
        #: sha256 of the spill file's header bytes, held in memory so
        #: tampering with the on-disk header/index is detectable.
        self.header_digest: Optional[str] = None
        #: The verified watermark: set after a successful deep check of
        #: a cold segment, keyed on the immutable anchors plus the spill
        #: file's stat fingerprint.  ``None`` means "never verified (or
        #: invalidated) — re-verify in every mode".
        self._verified_key: Optional[Tuple] = None
        #: Memoised digest column for repeated cold probes (the second
        #: ``digest_at`` on a cold segment loads it once; single probes
        #: seek straight to their fixed-stride slot).
        self._digest_col: Optional[List[str]] = None
        #: Cached (data_start, stride) of the spill file's slot region.
        self._layout: Optional[Tuple[int, int]] = None
        self._probes = 0

    def __repr__(self) -> str:
        tier = "cold" if self.is_cold else "hot"
        return (
            f"<SealedSegment {self.source!r} [{self.base_count}"
            f"+{self.count}] {tier}>"
        )

    @property
    def is_cold(self) -> bool:
        return self._records is None

    @property
    def total(self) -> int:
        return self.base_count + self.count

    # -- content -----------------------------------------------------------

    def entries(self) -> List[Tuple[str, str]]:
        """(canonical, digest) pairs; loaded from the spill file when
        cold, computed from the live records when hot."""
        if self._records is not None:
            if self._canonicals is not None:
                return list(zip(self._canonicals, self._digests))
            return [
                (r.canonical(), d)
                for r, d in zip(self._records, self._digests)
            ]
        __, entries = read_spill(self.path)
        if self._digest_col is None:
            # A full load already paid for the digest column — memoise
            # it so later probes are list lookups, not file reads.
            self._digest_col = [d for __, d in entries]
        return entries

    def records(self) -> List[AuditRecord]:
        """The segment's records — originals when hot, reconstructed
        from the spill file's verbatim canonicals when cold."""
        if self._records is not None:
            return list(self._records)
        return [
            AuditRecord.from_canonical(canonical)
            for canonical, __ in self.entries()
        ]

    def digest_at(self, position: int) -> Optional[str]:
        """Chain digest at absolute ``position``.

        Hot: a list lookup.  Cold: the first probe seeks straight to the
        16-aligned fixed-stride slot and reads only its 64-byte digest;
        repeated probes load the digest column once and answer from
        memory — never a whole-file decode either way.
        """
        if position < self.base_count or position > self.total:
            return None
        if position == self.base_count:
            return self.base_digest
        offset = position - self.base_count - 1
        if self._digests is not None:
            return self._digests[offset]
        if self._digest_col is not None:
            return self._digest_col[offset]
        self._probes += 1
        if self._probes > 1:
            return self._load_digest_column()[offset]
        return self._slot_digest(offset)

    def _spill_layout(self) -> Tuple[int, int]:
        """(data_start, stride) of the cold file's slot region, cached.

        Probes trust the on-disk stride the way hot probes trust the
        in-memory digest list — :meth:`verify` is what holds the file to
        the committed header digest; a doctored layout yields digests
        that fail their downstream comparison.
        """
        if self._layout is None:
            raw = read_spill_header_bytes(self.path)
            try:
                stride = json.loads(raw)["stride"]
            except (ValueError, KeyError) as exc:
                raise IntegrityViolation(
                    f"{self.path}: corrupt spill segment ({exc})"
                ) from exc
            data_start = _align16(len(SPILL_MAGIC) + _LEN.size + len(raw))
            self._layout = (data_start, stride)
        return self._layout

    def _slot_digest(self, offset: int) -> str:
        """Read one slot's chain digest via a direct seek."""
        data_start, stride = self._spill_layout()
        with open(self.path, "rb") as fh:
            fh.seek(data_start + offset * stride + _LEN.size)
            raw = fh.read(_DIGEST_BYTES)
        try:
            return raw.decode()
        except UnicodeDecodeError as exc:
            raise IntegrityViolation(
                f"{self.path}: corrupt spill segment ({exc})"
            ) from exc

    def _load_digest_column(self) -> List[str]:
        """Memoise every slot's digest (no canonical decode) via mmap."""
        data_start, stride = self._spill_layout()
        try:
            with open(self.path, "rb") as fh:
                mm = mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)
                try:
                    col = [
                        mm[
                            data_start + i * stride + _LEN.size:
                            data_start + i * stride + _LEN.size
                            + _DIGEST_BYTES
                        ].decode()
                        for i in range(self.count)
                    ]
                finally:
                    mm.close()
        except (UnicodeDecodeError, ValueError) as exc:
            raise IntegrityViolation(
                f"{self.path}: corrupt spill segment ({exc})"
            ) from exc
        self._digest_col = col
        return col

    # -- the verified watermark --------------------------------------------

    def _anchor_key(self) -> Optional[Tuple]:
        """The watermark key: immutable anchors + file fingerprint.

        ``None`` when the segment cannot be watermarked right now — it
        is hot (live record objects are mutable, so incremental mode
        must always re-verify them), its file is unreadable, or the file
        was modified too close to *now* for coarse filesystem timestamps
        to distinguish a later rewrite (see ``_STAT_MARGIN_NS``).
        """
        if self._records is not None or self.path is None:
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
        """Spill to disk and drop the in-memory records; returns the file
        size.  Idempotent for an already-cold segment."""
        if self.is_cold:
            return 0
        safe = _UNSAFE.sub("_", self.source)
        path = spill_dir / f"{safe}-{self.base_count:012d}.seg"
        size, self.header_digest = write_spill(
            path, self.source, self.base_digest, self.base_count,
            self.head, self.entries(), self.index,
        )
        self.path = path
        self._records = None
        self._digests = None
        self._canonicals = None
        # Fresh on-disk identity: no probe caches, no watermark — the
        # file has never been deep-checked in its cold form.
        self._digest_col = None
        self._layout = None
        self._probes = 0
        self._verified_key = None
        return size

    # -- integrity ---------------------------------------------------------

    def verify(self) -> int:
        """Recompute the chunk's chain, raising on the first mismatch.

        Hot: from the live records (post-drain mutation is detected, as
        for an open tail).  Cold: from the spill file's canonicals,
        anchored to the base/head digests held in memory — a rewritten
        file cannot satisfy both ends of the chain.  The cold path reads
        the file exactly once (``read_spill_full``).  Returns the number
        of digest-material bytes re-hashed.
        """
        if self._records is not None:
            hashed, bad = replay_chain(
                self.base_digest,
                map(AuditRecord.canonical, self._records),
                self._digests,
            )
            if bad is not None:
                raise IntegrityViolation(
                    f"sealed segment {self.source!r} chain broken "
                    f"at seq {self._records[bad].seq}"
                )
            return hashed
        try:
            raw_header, header, entries = read_spill_full(self.path)
        except OSError as exc:
            raise IntegrityViolation(
                f"spill file {self.path} unreadable for segment "
                f"{self.source!r}: {exc}"
            )
        if hashlib.sha256(raw_header).hexdigest() != self.header_digest:
            raise IntegrityViolation(
                f"spill file {self.path} header (metadata/index) does "
                f"not match the digest committed at demote time for "
                f"segment {self.source!r}"
            )
        if (
            header["count"] != self.count
            or header["base_digest"] != self.base_digest
            or header["base_count"] != self.base_count
            or header["head"] != self.head
        ):
            raise IntegrityViolation(
                f"spill file {self.path} header does not match the "
                f"anchors committed for segment {self.source!r}"
            )
        hashed, bad = replay_chain(
            self.base_digest, (c for c, __ in entries), (d for __, d in entries)
        )
        if bad is not None:
            raise IntegrityViolation(
                f"cold segment {self.source!r} chain broken at "
                f"record {self.base_count + bad}"
            )
        if (entries[-1][1] if entries else self.base_digest) != self.head:
            raise IntegrityViolation(
                f"cold segment {self.source!r} head mismatch after replay"
            )
        return len(raw_header) + hashed

    # -- maintenance -------------------------------------------------------

    def prune_prefix(self, keep_from: int) -> int:
        """Drop the first ``keep_from`` records, rebasing the chain.

        A cold segment is rewritten in place (retained canonicals and
        digests verbatim); the index is rebuilt over the remainder.
        """
        if keep_from <= 0:
            return 0
        if keep_from >= self.count:
            raise ValueError("use drop() to discard a whole segment")
        # Any rebase invalidates the verified watermark and the cold
        # probe caches: anchors move, and a cold file is rewritten.
        self._verified_key = None
        self._digest_col = None
        self._layout = None
        self._probes = 0
        if self._records is not None:
            self.base_digest = self._digests[keep_from - 1]
            self.base_count += keep_from
            self._records = self._records[keep_from:]
            self._digests = self._digests[keep_from:]
            if self._canonicals is not None:
                self._canonicals = self._canonicals[keep_from:]
            self.count = len(self._records)
            self.index = SegmentIndex.over(self._records)
            return keep_from
        __, entries = read_spill(self.path)
        retained = entries[keep_from:]
        self.base_digest = entries[keep_from - 1][1]
        self.base_count += keep_from
        self.count = len(retained)
        self.index = SegmentIndex.over(
            [AuditRecord.from_canonical(c) for c, __ in retained]
        )
        __, self.header_digest = write_spill(
            self.path, self.source, self.base_digest, self.base_count,
            self.head, retained, self.index,
        )
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

    All mutation happens under the owning spine's maintenance lock; the
    store itself adds no locking.
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

        ``path`` is created if missing.  Takes effect from the next
        seal check — an oversized existing tail seals on the next drain.
        """
        if seal_every < 1:
            raise ValueError(f"seal_every must be >= 1, got {seal_every}")
        self.spill_dir = Path(path)
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        self.hot_segments = max(0, hot_segments)
        self.seal_every = seal_every
        # Tiered tails retain canonicals so seal/demote never
        # re-serialise; records chained before this point keep lazy
        # serialisation (entries() recomputes for the straddling chunk).
        for tail in self.tails.values():
            if tail.canonicals is None:
                tail.canonicals = [r.canonical() for r in tail.records]

    # -- structure ---------------------------------------------------------

    def tail(self, source: str) -> AuditSegment:
        """The open tail for ``source`` (created on first use)."""
        seg = self.tails.get(source)
        if seg is None:
            seg = self.tails[source] = AuditSegment(
                source, self._genesis(source)
            )
            if self.seal_every is not None:
                seg.canonicals = []
            self.sealed.setdefault(source, [])
        return seg

    def sources(self) -> List[str]:
        return sorted(self.tails)

    def _chunks(self, source: str) -> List:
        """Sealed chunks (oldest first) then the open tail."""
        return [*self.sealed.get(source, ()), self.tails[source]]

    # -- seal / demote lifecycle -------------------------------------------

    def maybe_seal(self, source: str) -> None:
        """Seal full tail chunks and demote beyond the hot retention."""
        if self.seal_every is None:
            return
        tail = self.tails[source]
        while len(tail.records) >= self.seal_every:
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
        k = min(k, len(tail.records))
        if k <= 0:
            return None
        chunk = SealedSegment(
            source,
            tail.base_digest,
            tail.base_count,
            tail.records[:k],
            tail.digests[:k],
            tail.canonicals[:k] if tail.canonicals is not None else None,
        )
        tail.prune_prefix(k)  # rebase: base becomes the sealed head
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
            tail = self.tails[source]
            k = 0
            while (
                k < len(tail.records)
                and tail.records[k].timestamp < timestamp
            ):
                k += 1
            if k:
                self.seal_prefix(source, k)
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
        """Chain digest at absolute ``position`` across every tier."""
        for chunk in self._chunks(source):
            if position <= chunk_total(chunk):
                digest = chunk.digest_at(position)
                if digest is not None:
                    return digest
        return None

    def retained(self, source: str) -> int:
        """Retained (un-pruned) record count for one source."""
        return len(self.tails[source].records) + sum(
            c.count for c in self.sealed.get(source, ())
        )

    def total_retained(self) -> int:
        return sum(self.retained(source) for source in list(self.tails))

    def records_of(self, source: str) -> List[AuditRecord]:
        """Every retained record of one source, oldest first (cold
        segments are loaded — and counted — on demand)."""
        result: List[AuditRecord] = []
        for chunk in self.sealed.get(source, ()):
            if chunk.is_cold:
                self.stats_cold_loads += 1
            result.extend(chunk.records())
        result.extend(self.tails[source].records)
        return result

    def export_entries(self) -> List[Dict]:
        """Serialised records with digests and segment attribution —
        byte-identical whether a segment is hot or spilled, because
        cold entries come back verbatim from the spill file."""
        entries: List[Dict] = []
        for source in self.sources():
            for chunk in self.sealed.get(source, ()):
                if chunk.is_cold:
                    self.stats_cold_loads += 1
                for canonical, digest in chunk.entries():
                    entries.append(
                        {
                            "record": canonical,
                            "digest": digest,
                            "segment": source,
                            "seq": json.loads(canonical)["seq"],
                        }
                    )
            tail = self.tails[source]
            for record, digest in zip(tail.records, tail.digests):
                entries.append(
                    {
                        "record": record.canonical(),
                        "digest": digest,
                        "segment": source,
                        "seq": record.seq,
                    }
                )
        entries.sort(key=lambda e: e["seq"])
        for entry in entries:
            del entry["seq"]
        return entries

    # -- integrity ---------------------------------------------------------

    def verify(
        self,
        deep: bool = True,
        workers: Optional[int] = None,
        stats: Optional[VerifyStats] = None,
    ) -> None:
        """Verify every source's chain across the tier boundary.

        Each chunk verifies internally, and consecutive chunks must
        join exactly: the next base digest is the previous head, the
        next base count the previous total.  A chunk boundary is where
        a splice would hide, so the joins are checked explicitly — in
        *every* mode, for every chunk, from the in-memory anchors.

        ``deep=True`` (the default, and the historical behaviour)
        recomputes every chunk unconditionally and re-watermarks the
        cold ones.  ``deep=False`` is the incremental mode: hot chunks
        (open tails and in-memory sealed segments — mutable objects)
        are always recomputed, but a cold chunk whose verified
        watermark is still valid (anchors and spill-file stat
        fingerprint unchanged since its last successful full check) is
        skipped.  ``workers`` > 1 fans the independent chunk
        recomputations across a thread pool — cold verification is
        dominated by spill-file reads and ``hashlib`` work, both of
        which can overlap.  Raises on the first violation, in chunk
        order, regardless of which worker found it.
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
                if (
                    not deep
                    and isinstance(chunk, SealedSegment)
                    and chunk.is_cold
                    and chunk.watermarked
                ):
                    if chunk.watermark_valid():
                        skipped += 1
                        continue
                    invalidated += 1
                    self.stats_watermark_invalidations += 1
                todo.append(chunk)

        n_workers = max(1, workers or 1)
        if n_workers > 1 and len(todo) > 1:
            with ThreadPoolExecutor(
                max_workers=min(n_workers, len(todo))
            ) as pool:
                futures = [pool.submit(chunk.verify) for chunk in todo]
                # Results are collected in chunk order so the first
                # violation reported is deterministic even when a later
                # chunk failed first on the wall clock.
                hashed = [future.result() for future in futures]
        else:
            hashed = [chunk.verify() for chunk in todo]

        for chunk in todo:
            if isinstance(chunk, SealedSegment) and chunk.is_cold:
                chunk.note_verified()
        if stats is not None:
            stats.segments_total += total_chunks
            stats.segments_verified += len(todo)
            stats.segments_skipped += skipped
            stats.watermark_hits += skipped
            stats.watermark_invalidations += invalidated
            stats.bytes_hashed += sum(hashed)
            stats.cold_verified += sum(
                1 for c in todo
                if isinstance(c, SealedSegment) and c.is_cold
            )
            stats.records_verified += sum(
                c.count if isinstance(c, SealedSegment) else len(c.records)
                for c in todo
            )

    # -- pruning -----------------------------------------------------------

    def prune_before(self, timestamp: float) -> int:
        """Destructively discard records older than ``timestamp``.

        Whole sealed segments older than the cutoff are dropped (their
        spill files deleted); the first straddling chunk is prefix-
        pruned and rebased.  Returns the number of records pruned.
        """
        pruned = 0
        for source in list(self.tails):
            chunks = self.sealed.get(source, [])
            while chunks and chunks[0].index.time_max < timestamp:
                pruned += chunks.pop(0).drop()
            if chunks:
                first = chunks[0]
                if first.index.time_min < timestamp:
                    self.stats_watermark_invalidations += (
                        first.clear_watermark()
                    )
                    pruned += first.prune_prefix(
                        _age_prefix(first.records(), timestamp)
                    )
                continue  # later chunks/tail hold only newer records
            tail = self.tails[source]
            pruned += tail.prune_prefix(
                _age_prefix(tail.records, timestamp)
            )
        return pruned

    def prune_source(self, source: str, before: Optional[float]) -> int:
        """Prune one source (wholly, or records before ``before``)."""
        if source not in self.tails:
            return 0
        if before is None:
            # Whole-source prune: drop every sealed chunk (the tail's
            # base is already the last sealed head, so the chain stays
            # anchored) and empty the tail with the usual rebase.
            pruned = 0
            chunks = self.sealed.get(source, [])
            while chunks:
                pruned += chunks.pop(0).drop()
            tail = self.tails[source]
            pruned += tail.prune_prefix(len(tail.records))
            return pruned
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
                pruned += first.prune_prefix(
                    _age_prefix(first.records(), before)
                )
            return pruned
        tail = self.tails[source]
        pruned += tail.prune_prefix(_age_prefix(tail.records, before))
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
        hot_records = 0
        cold_records = 0
        hot_time_min: Optional[float] = None
        hot_time_max: Optional[float] = None

        def note_hot(ts_min: Optional[float], ts_max: Optional[float]):
            nonlocal hot_time_min, hot_time_max
            if ts_min is None:
                return
            hot_time_min = (
                ts_min if hot_time_min is None else min(hot_time_min, ts_min)
            )
            hot_time_max = (
                ts_max if hot_time_max is None else max(hot_time_max, ts_max)
            )

        for source, chunks in self.sealed.items():
            for chunk in chunks:
                if chunk.is_cold:
                    cold_records += chunk.count
                else:
                    hot_records += chunk.count
                    note_hot(chunk.index.time_min, chunk.index.time_max)
        for tail in self.tails.values():
            hot_records += len(tail.records)
            if tail.records:
                note_hot(
                    tail.records[0].timestamp, tail.records[-1].timestamp
                )
        return {
            "hot_records": hot_records,
            "cold_records": cold_records,
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
            "hot_time_min": hot_time_min,
            "hot_time_max": hot_time_max,
            "spill_dir": str(self.spill_dir) if self.spill_dir else None,
        }


def chunk_total(chunk) -> int:
    """Absolute head position of a sealed chunk or open tail."""
    return chunk.total


def _age_prefix(records: List[AuditRecord], timestamp: float) -> int:
    """Length of the leading run of records older than ``timestamp``."""
    k = 0
    while k < len(records) and records[k].timestamp < timestamp:
        k += 1
    return k
