"""The audit-query plane: historical context query over both tiers.

Context-aware middleware surveys treat historical context query as a
first-class middleware service, not an afterthought — "every flow that
touched tag ``medical:ann`` this hour" is the question compliance,
forensics and policy-feedback tooling actually ask, and a million-record
chain cannot answer it by iterating the whole stream.

:class:`AuditQuery` wraps any :class:`~repro.audit.sink.AuditSink`:

* over a tiered :class:`~repro.audit.spine.AuditSpine` it rides the
  sink's own index-backed ``query()`` — per-segment
  :class:`~repro.audit.storage.SegmentIndex` probes decide which sealed
  segments to read, so cold spill files are opened only when their
  index says they can match; a filter naming an ``actor``, ``subject``
  or ``entity`` then reads only the records on that name's shortest
  posting list (cold ones slot by slot), and the open tail's postings
  catch up lazily on the same query;
* over a plain :class:`~repro.audit.log.AuditLog` (or any sink without
  a ``query`` method) it falls back to a flat scan with the same
  :func:`~repro.audit.records.record_matches` predicate — identical
  results, just without the index short-circuit.

Every call fills :attr:`AuditQuery.last_stats` with a
:class:`QueryStats` (segments probed / scanned / skipped, cold loads,
records read), which is how the benchmarks assert "segments scanned
≪ segments total" and "records read ≈ hits" rather than hoping.
Postings only decide what *not* to read: every record read still goes
through :func:`~repro.audit.records.record_matches`.

Example::

    q = AuditQuery(machine.audit)
    hour_flows = q.by_tag("medical:ann", since=now - 3600)
    denials = q.by_kind(RecordKind.FLOW_DENIED)
    alice = q.by_entity("alice")           # actor *or* subject
    assert q.last_stats.segments_scanned <= q.last_stats.segments_total
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.audit.records import AuditRecord, RecordKind, record_matches

__all__ = ["AuditQuery", "QueryStats"]


@dataclass
class QueryStats:
    """Per-query accounting of how much of the chain was touched.

    Attributes:
        segments_total: sealed segments the sink holds (index probes).
        segments_scanned: sealed segments whose records were examined.
        segments_skipped: sealed segments the index ruled out.
        cold_loads: spill files read to answer this query.
        records_scanned: records the filter predicate actually saw
            (the candidates read from sealed segments and open tails:
            a posting list's records, or every record of a chunk when
            the filter names no actor, subject or entity).
    """

    segments_total: int = 0
    segments_scanned: int = 0
    segments_skipped: int = 0
    cold_loads: int = 0
    records_scanned: int = 0

    def reset(self) -> None:
        self.segments_total = 0
        self.segments_scanned = 0
        self.segments_skipped = 0
        self.cold_loads = 0
        self.records_scanned = 0


class AuditQuery:
    """Query façade over any audit sink, tiered or flat.

    The filter vocabulary is :func:`~repro.audit.records.record_matches`:
    ``kind`` / ``actor`` / ``subject`` / ``entity`` (actor *or*
    subject) / ``tag`` (qualified ``"namespace:name"``) / ``since`` /
    ``until``.  Results are always seq-ordered and equal to filtering
    the sink's flat record stream — the index layer only decides what
    *not* to read.
    """

    def __init__(self, sink):
        self.sink = sink
        #: Accounting for the most recent query (reset per call).
        self.last_stats = QueryStats()

    def __repr__(self) -> str:
        return f"<AuditQuery over {getattr(self.sink, 'name', self.sink)!r}>"

    def query(
        self,
        kind: Optional[RecordKind] = None,
        actor: Optional[str] = None,
        subject: Optional[str] = None,
        entity: Optional[str] = None,
        tag: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[AuditRecord]:
        """Run one filtered query (see the class docstring)."""
        self.last_stats = stats = QueryStats()
        native = getattr(self.sink, "query", None)
        if callable(native):
            return native(
                kind=kind, actor=actor, subject=subject, entity=entity,
                tag=tag, since=since, until=until, stats=stats,
            )
        # Flat fallback: any sink is at least iterable.
        flush = getattr(self.sink, "flush", None)
        if callable(flush):
            flush()
        matched = []
        for record in self.sink:
            stats.records_scanned += 1
            if record_matches(
                record, kind, actor, subject, entity, tag, since, until
            ):
                matched.append(record)
        matched.sort(key=lambda r: r.seq)
        return matched

    # -- the convenience vocabulary ----------------------------------------

    def by_actor(self, actor: str, **filters) -> List[AuditRecord]:
        """Records performed by ``actor``."""
        return self.query(actor=actor, **filters)

    def by_entity(self, entity: str, **filters) -> List[AuditRecord]:
        """Records where ``entity`` is the actor *or* the subject."""
        return self.query(entity=entity, **filters)

    def by_tag(self, tag, **filters) -> List[AuditRecord]:
        """Records whose recorded contexts carry ``tag`` (a qualified
        ``"namespace:name"`` string or anything with ``.qualified``)."""
        qualified = getattr(tag, "qualified", tag)
        return self.query(tag=qualified, **filters)

    def by_kind(self, kind: RecordKind, **filters) -> List[AuditRecord]:
        """Records of one :class:`~repro.audit.records.RecordKind`."""
        return self.query(kind=kind, **filters)

    def time_range(
        self, since: Optional[float] = None, until: Optional[float] = None,
        **filters,
    ) -> List[AuditRecord]:
        """Records inside ``[since, until]`` (inclusive bounds)."""
        return self.query(since=since, until=until, **filters)
