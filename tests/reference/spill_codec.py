"""Reference spill codec: the retired segment-index builder and writer.

Before seal rounds were made cheap, :meth:`SegmentIndex.over
<repro.audit.storage.SegmentIndex.over>` walked a segment's records
once per field (contexts, postings, time and seq bounds, kinds), and
:func:`~repro.audit.storage.write_spill` sliced every slot into a
preallocated ``bytearray`` and copied it again with ``bytes()``.  Both
are kept here as the oracles the one-join writer and the single-loop
index are checked against.  The format-2 parts (magic, version and the
header's context table) are spelled out here with plain ``json.dumps``
and ``hashlib``, not taken from the module under test.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Set, Tuple

from repro.audit.storage import _DIGEST_BYTES
from repro.audit.records import AuditRecord, _context_tags
from repro.audit.storage import _LEN, SegmentIndex, _align16
from repro.ifc import SecurityContext

MAGIC = b"RAUDSEG2"
VERSION = 2


def context_entries(contexts: Iterable[SecurityContext]) -> Dict[str, str]:
    """The header's context table: sha256 hex of each context's
    sorted-keys JSON → that JSON."""
    table = {}
    for ctx in contexts:
        text = json.dumps(
            {
                "secrecy": sorted(t.qualified for t in ctx.secrecy),
                "integrity": sorted(t.qualified for t in ctx.integrity),
            },
            sort_keys=True,
            separators=(",", ":"),
        )
        table[hashlib.sha256(text.encode()).hexdigest()] = text
    return table


def index_over(records: List[AuditRecord]) -> SegmentIndex:
    """The segment index, one comprehension pass per field."""
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
    by_actor: Dict[str, List[int]] = {}
    by_subject: Dict[str, List[int]] = {}
    for i, r in enumerate(records):
        by_actor.setdefault(r.actor, []).append(i)
        by_subject.setdefault(r.subject, []).append(i)
    return SegmentIndex(
        time_min=min(r.timestamp for r in records),
        time_max=max(r.timestamp for r in records),
        seq_min=min(r.seq for r in records),
        seq_max=max(r.seq for r in records),
        actors=by_actor.keys(),
        subjects=by_subject.keys(),
        kinds={r.kind.value for r in records},
        tags=tags,
        by_actor=by_actor,
        by_subject=by_subject,
    )


def spill_image(
    source: str,
    base_digest: str,
    base_count: int,
    head: str,
    entries: List[Tuple[str, str]],
    index: SegmentIndex,
    contexts: Dict[str, str],
) -> bytes:
    """The bytes a spill file holds, built slot by slot in a buffer."""
    encoded = [c.encode() for c, __ in entries]
    stride = _align16(
        _LEN.size + _DIGEST_BYTES + max(len(e) for e in encoded)
    )
    header = json.dumps(
        {
            "version": VERSION,
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
    data_start = _align16(len(MAGIC) + _LEN.size + len(header))
    buf = bytearray(data_start + stride * len(entries))
    buf[: len(MAGIC)] = MAGIC
    pos = len(MAGIC)
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
    return bytes(buf)
