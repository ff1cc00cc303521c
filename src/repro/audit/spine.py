"""The audit spine: audit emission off the delivery path (§8.3, Fig. 1).

The paper requires every flow decision, policy firing and
reconfiguration to be audited into a tamper-evident log, but a
synchronous hash-chain append (canonical JSON + SHA-256 per record)
inside every enforcement site puts that cost on the message delivery
path.  The :class:`AuditSpine` is the per-machine remedy:

* **Staging** — enforcement sites emit records through cheap per-source
  handles (:class:`SpineEmitter`); :meth:`AuditSpine.emit` only
  constructs the record and appends it to a staged ring.  No
  serialisation, no hashing, no chaining on the delivery path.
* **Deferred draining** — :meth:`AuditSpine.drain` folds staged records
  into per-source hash-chain *segments* (one shard per emitting site:
  ``bus``, ``kernel``, ``substrate``, ...).  Draining runs off the
  delivery path: when the staged ring reaches capacity, on simulated
  clock ticks (:meth:`attach_clock`), or on an explicit ``drain()`` —
  and implicitly before anything *observes* the chain.
* **Checkpoints** — periodically (every ``checkpoint_every`` fruitful
  drains, and on demand) the spine appends a :class:`CHECKPOINT
  <repro.audit.records.RecordKind>` record to its own checkpoint chain,
  folding every segment's ``(position, head digest)`` into one
  cross-segment chain.  The checkpoint chain is what binds independent
  segments together: truncating any one segment below a checkpointed
  position is detected by :meth:`verify`, and
  :attr:`head_digest` — the checkpoint chain's head — authenticates the
  whole spine for offload receipts (``repro.audit.distributed``).

Tamper-evidence window: records become tamper-evident when drained into
their segment, so the drain cadence (ring capacity / clock ticks) bounds
the window in which an in-memory mutation would be chained as mutated.
A drained segment keeps the canonical strings it hashed, not the
emitted objects; a record a read returns is held to its string by
:meth:`verify`.
This is the deliberate trade the spine makes for taking hashing off the
delivery path; a plain unbuffered :class:`~repro.audit.log.AuditLog`
keeps the append-time guarantee where that matters more than
throughput.

The spine is read-compatible with :class:`~repro.audit.log.AuditLog`
(``records()`` / ``denials()`` / iteration / ``verify()`` /
``export()`` / ``prune_before()`` / ``head_digest``), so provenance,
compliance and distributed-audit tooling consume either.  Checkpoint
records live on their own chain and never appear in the record stream —
a spine and a plain log fed the same events yield order-identical
streams.
"""

from __future__ import annotations

import heapq
import itertools
import time
from typing import Callable, Dict, Iterator, List, Optional, Set, Tuple

from repro.audit.log import RecorderMixin, _deep_of
from repro.audit.records import AuditRecord, RecordKind, ship_contexts
from repro.audit.storage import (  # noqa: F401  (AuditSegment re-exported)
    GENESIS_DIGEST,
    AuditSegment,
    SegmentStore,
    _segment_genesis,
    matching,
)
from repro.audit.verify import VerifyStats
from repro.errors import IntegrityViolation
from repro.ifc.labels import SecurityContext

#: Source name used by :meth:`AuditSpine.append` (the AuditLog-compatible
#: direct writer) when the caller has not bound a per-source emitter.
DEFAULT_SOURCE = "main"


class SpineEmitter(RecorderMixin):
    """A per-source write handle onto an :class:`AuditSpine`.

    Enforcement sites hold one of these instead of an ``AuditLog``:
    writes stage into the spine under this emitter's source (the
    segment shard), reads and maintenance delegate to the whole spine —
    so an emitter is a drop-in for the ``AuditLog`` API everywhere one
    is consumed.
    """

    __slots__ = ("spine", "source")

    def __init__(self, spine: "AuditSpine", source: str):
        self.spine = spine
        self.source = source

    def __repr__(self) -> str:
        return f"<SpineEmitter {self.source!r} -> {self.spine.name}>"

    @property
    def name(self) -> str:
        """The backing spine's name (AuditSink-compatible identity)."""
        return self.spine.name

    # -- writes (staged under this source) ---------------------------------

    def append(
        self,
        kind: RecordKind,
        actor: str,
        subject: str = "",
        detail: Optional[Dict] = None,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
    ) -> AuditRecord:
        """Stage one record; chaining is deferred to the spine's drain."""
        return self.spine.emit(
            self.source, kind, actor, subject, detail,
            source_context, target_context,
        )

    # -- reads / maintenance (whole-spine view) ----------------------------

    def __len__(self) -> int:
        return len(self.spine)

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(self.spine)

    def flush(self) -> int:
        """Drain the spine (AuditLog-compatible spelling)."""
        return self.spine.drain()

    @property
    def pending(self) -> int:
        return self.spine.pending

    @property
    def head_digest(self) -> str:
        return self.spine.head_digest

    @property
    def checkpoint_position(self) -> int:
        return self.spine.checkpoint_position

    def checkpoint_digest_at(self, position: int) -> Optional[str]:
        return self.spine.checkpoint_digest_at(position)

    def records(self, *args, **kwargs) -> List[AuditRecord]:
        return self.spine.records(*args, **kwargs)

    def query(self, *args, **kwargs) -> List[AuditRecord]:
        return self.spine.query(*args, **kwargs)

    def denials(self) -> List[AuditRecord]:
        return self.spine.denials()

    def sources(self) -> List[str]:
        return self.spine.sources()

    def segment_heads(self) -> Dict[str, Tuple[int, str]]:
        return self.spine.segment_heads()

    def known_actors(self) -> Set[str]:
        return self.spine.known_actors()

    def checkpoint(self) -> Optional[AuditRecord]:
        return self.spine.checkpoint()

    def verify(self, mode: str = "incremental") -> bool:
        return self.spine.verify(mode=mode)

    def verify_strict(self, deep: bool = False):
        return self.spine.verify_strict(deep=deep)

    def verify_stats(self) -> Dict:
        return self.spine.verify_stats()

    def export(self) -> List[Dict]:
        return self.spine.export()

    def prune_before(self, timestamp: float) -> int:
        return self.spine.prune_before(timestamp)

    def demote_before(self, timestamp: float) -> int:
        return self.spine.demote_before(timestamp)

    def tier_stats(self) -> Dict:
        return self.spine.tier_stats()


def bind_source(audit, source: str):
    """Adapt whatever audit sink a component was given to a per-source one.

    * ``None`` stays ``None`` (auditing disabled);
    * an :class:`AuditSpine` yields a :class:`SpineEmitter` for
      ``source`` — the staged, off-delivery-path write handle;
    * a :class:`SpineEmitter` is re-bound to ``source`` on its spine
      (components compose: a bus hands its sink to its channels, each
      layer claiming its own segment);
    * anything else (a plain :class:`~repro.audit.log.AuditLog`) is
      returned unchanged — the owner chose synchronous semantics.

    This is the only audit-plumbing call enforcement sites make; none of
    them construct chain digests or choose chaining policy themselves.
    """
    if audit is None:
        return None
    if isinstance(audit, AuditSpine):
        return audit.emitter(source)
    if isinstance(audit, SpineEmitter):
        return audit.spine.emitter(source)
    return audit


class AuditSpine(RecorderMixin):
    """Per-machine staged audit: ring buffer → per-source segments →
    checkpointed cross-segment chain.

    Example::

        spine = AuditSpine(clock=sim.now, name="audit@host")
        bus_audit = spine.emitter("bus")        # cheap staged writes
        bus_audit.flow_allowed("sensor", "analyser", ctx, ctx)
        spine.drain()                            # off the delivery path
        assert spine.verify()

    ``ring_capacity`` bounds staged memory *per source*: a ring reaching
    it forces an inline drain (amortised, never per-record).
    ``checkpoint_every`` sets how many fruitful drains pass between
    automatic checkpoints; anything that needs the cross-segment head
    (``head_digest``, offload) forces one.  Staged records are
    immediately visible to ``records()`` / iteration, exactly like
    buffered ``AuditLog`` appends.
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        name: str = "audit-spine",
        ring_capacity: int = 1024,
        checkpoint_every: int = 4,
    ):
        self.name = name
        self._clock = clock or (lambda: 0.0)
        self.ring_capacity = max(1, ring_capacity)
        self.checkpoint_every = max(1, checkpoint_every)
        #: Per-source staging rings, each in emission order.
        self._staged: Dict[str, List[AuditRecord]] = {}
        #: Set by :meth:`emit` after each append, cleared by
        #: :meth:`drain`: a clock tick with nothing staged is one check,
        #: not a scan of every ring.
        self._dirty = False
        #: The storage layer: per-source open tails plus (when spill is
        #: configured) sealed/indexed/demotable segments — see
        #: ``repro.audit.storage`` and ``docs/audit_storage.md``.
        self._store = SegmentStore(
            genesis=lambda source: _segment_genesis(name, source)
        )
        self._emitters: Dict[str, SpineEmitter] = {}
        self._seq = itertools.count()
        # The checkpoint chain is itself an AuditSegment — same chain,
        # rebase-on-prune and verify machinery as the record shards.
        self._ckpt = AuditSegment(
            "__checkpoints__", _segment_genesis(name, "__checkpoints__")
        )
        self._drains_since_checkpoint = 0
        self._chained_at_last_checkpoint = 0
        self._chained_records = 0
        #: Checkpoint-binding watermark: ``(position, digest)`` of the
        #: checkpoint chain's head after the last fully successful
        #: verification.  An incremental pass that re-derives the same
        #: digest at that position only walks the bindings of
        #: checkpoints appended since; any prune or store watermark
        #: invalidation drops it and forces a full binding re-walk.
        self._ckpt_bound: Optional[Tuple[int, str]] = None
        #: Stats of the most recent ``verify_strict`` pass (successful
        #: or not), plus cumulative totals — ``verify_stats()``.
        self.last_verify_stats: Optional[VerifyStats] = None
        self.stats_verifies = 0
        self._verify_cum = {
            "segments_verified": 0,
            "segments_skipped": 0,
            "records_verified": 0,
            "bytes_hashed": 0,
            "watermark_hits": 0,
            "watermark_invalidations": 0,
            "checkpoints_verified": 0,
            "checkpoints_skipped": 0,
            "wall_s": 0.0,
        }
        # Every actor ever drained — survives pruning, so distributed
        # gap detection can tell "pruned" from "never reported".
        self._actors: Set[str] = set()
        self.stats_drains = 0
        self.stats_checkpoints = 0
        #: Drains forced inline by a ring reaching capacity.
        self.stats_ring_overflows = 0

    def __repr__(self) -> str:
        return (
            f"<AuditSpine {self.name} segments={len(self._store.tails)} "
            f"records={len(self)} staged={self.pending}>"
        )

    # -- emission (the delivery-path side) ---------------------------------

    def emitter(self, source: str) -> SpineEmitter:
        """The per-source write handle (one shared instance per source)."""
        emitter = self._emitters.get(source)
        if emitter is None:
            emitter = self._emitters[source] = SpineEmitter(self, source)
        return emitter

    def emit(
        self,
        source: str,
        kind: RecordKind,
        actor: str,
        subject: str = "",
        detail: Optional[Dict] = None,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
    ) -> AuditRecord:
        """Stage one record under ``source``.  The delivery-path cost is
        record construction plus a list append onto the source's own
        ring — no serialisation, no hashing; those happen at
        :meth:`drain`."""
        record = AuditRecord(
            next(self._seq), self._clock(), kind, actor, subject,
            dict(detail) if detail else {}, source_context, target_context,
        )
        ring = self._staged.get(source)
        if ring is None:
            ring = self._staged[source] = []
        ring.append(record)
        self._dirty = True
        if len(ring) >= self.ring_capacity:
            self.stats_ring_overflows += 1
            self.drain()
        return record

    def append(
        self,
        kind: RecordKind,
        actor: str,
        subject: str = "",
        detail: Optional[Dict] = None,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
    ) -> AuditRecord:
        """AuditLog-compatible direct write, staged under
        :data:`DEFAULT_SOURCE`."""
        return self.emit(
            DEFAULT_SOURCE, kind, actor, subject, detail,
            source_context, target_context,
        )

    # -- draining & checkpoints --------------------------------------------

    def segment(self, source: str) -> AuditSegment:
        """The open tail segment for ``source`` (created on first use).

        With tiering configured, sealed/cold history lives behind the
        :class:`~repro.audit.storage.SegmentStore`; the tail is where
        new records chain.
        """
        return self._store.tail(source)

    def configure_spill(
        self,
        path,
        hot_segments: int = 2,
        seal_every: int = 1024,
    ) -> None:
        """Enable tiered storage: seal the tail every ``seal_every``
        records, keep the ``hot_segments`` newest sealed segments in
        memory, spill the rest to ``path`` (``docs/audit_storage.md``).

        Chains, digests, checkpoints, receipts and pinboard verdicts are
        unaffected — only where record bytes live changes.
        """
        self._store.configure_spill(
            path, hot_segments=hot_segments, seal_every=seal_every
        )

    @property
    def pending(self) -> int:
        """Records staged but not yet chained into their segment."""
        return sum(len(ring) for ring in self._staged.values())

    def drain(self) -> int:
        """Fold every staged record into its source's segment chain.

        Returns the number of records drained.  Idempotent — draining
        empty rings is a no-op and does not advance the checkpoint
        cadence.
        """
        drained = 0
        store = self._store
        actors = self._actors
        self._dirty = False
        for source, ring in self._staged.items():
            if not ring:
                continue
            seg = store.tail(source)
            for record in ring:
                seg.chain(record)
                actors.add(record.actor)
            drained += len(ring)
            ring.clear()
            # Seal/demote off the emission path, while the tail is
            # fresh in cache.
            store.maybe_seal(source)
        if not drained:
            return 0
        self._chained_records += drained
        self.stats_drains += 1
        self._drains_since_checkpoint += 1
        if self._drains_since_checkpoint >= self.checkpoint_every:
            self.checkpoint()
        return drained

    def flush(self) -> int:
        """AuditLog-compatible alias for :meth:`drain`."""
        return self.drain()

    def attach_clock(self, clock) -> None:
        """Drain on every simulated-clock advance (background draining).

        ``clock`` is a :class:`repro.sim.clock.Clock` (anything exposing
        ``on_advance``); each tick moves staged records into their
        segments so the tamper-evidence window tracks simulated time,
        not traffic volume.
        """
        clock.on_advance(self._on_tick)

    def detach_clock(self, clock) -> bool:
        """Stop draining on ``clock``'s ticks (the decommission path —
        without this the clock keeps the spine alive and ticking
        forever).  Returns whether the spine was attached."""
        return clock.off_advance(self._on_tick)

    def _on_tick(self, now: float) -> None:
        if self._dirty:
            self.drain()

    def checkpoint(self) -> Optional[AuditRecord]:
        """Fold every segment head into the cross-segment checkpoint chain.

        Drains first.  Returns the new CHECKPOINT record, or None when
        nothing changed since the last checkpoint (no-op, so repeated
        observers do not inflate the chain).  Checkpoint records carry,
        per source, the segment's absolute head position and head digest
        — :meth:`verify` later holds every retained segment to them.
        """
        self.drain()
        if not self._store.tails:
            # A spine that never recorded anything has nothing to
            # pin — head_digest stays at genesis, like an empty log.
            return None
        if (
            self._chained_records == self._chained_at_last_checkpoint
            and self._ckpt.total
        ):
            return None
        heads = {}
        counts = {}
        for source in self._store.sources():
            heads[source] = self._store.head(source)
            counts[source] = self._store.total(source)
        # Checkpoints number their own chain: record seqs must track
        # the event stream exactly (a spine and a plain log fed the
        # same events stay seq-identical).
        record = AuditRecord(
            seq=self._ckpt.total,
            timestamp=self._clock(),
            kind=RecordKind.CHECKPOINT,
            actor=self.name,
            subject="",
            detail={"heads": heads, "counts": counts},
        )
        self._ckpt.chain(record)
        self._chained_at_last_checkpoint = self._chained_records
        self._drains_since_checkpoint = 0
        self.stats_checkpoints += 1
        return record

    @property
    def head_digest(self) -> str:
        """Head of the checkpoint chain — the one digest that
        authenticates every segment (checkpoints on demand)."""
        self.checkpoint()
        if self._ckpt.total:
            return self._ckpt.head
        return GENESIS_DIGEST

    @property
    def checkpoint_position(self) -> int:
        """Absolute checkpoint-chain position (pruned + retained).

        Together with :meth:`checkpoint_digest_at` this is what a remote
        :class:`~repro.audit.distributed.FederationPinboard` pins: the
        chain is append-only, so the digest at a given position must
        never change for the life of the spine.
        """
        return self._ckpt.total

    def checkpoint_digest_at(self, position: int) -> Optional[str]:
        """Checkpoint-chain digest at absolute ``position``.

        ``None`` when the position was pruned away locally (the pin
        holder still vouches for it); position semantics match
        :meth:`AuditSegment.digest_at` — ``k`` is the head after ``k``
        checkpoint records.
        """
        return self._ckpt.digest_at(position)

    # -- reading (AuditLog-compatible) -------------------------------------

    def _merged(self) -> List[AuditRecord]:
        # Each source's records are seq-ascending, and everything
        # staged was emitted after everything drained in its own source
        # — a k-way merge rebuilds the stream in O(n), no sort.  Cold
        # segments are loaded on demand here: full iteration is the one
        # read that genuinely needs every record (query() is the
        # tier-aware path).
        streams = [
            records
            for records in (
                self._store.records_of(source)
                for source in self._store.sources()
            )
            if records
        ]
        staged = [record for ring in self._staged.values() for record in ring]
        if staged:
            staged.sort(key=lambda r: r.seq)
            streams.append(staged)
        if len(streams) == 1:
            return list(streams[0])
        return list(heapq.merge(*streams, key=lambda r: r.seq))

    def __len__(self) -> int:
        return self._store.total_retained() + self.pending

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(self._merged())

    def records(
        self,
        kind: Optional[RecordKind] = None,
        actor: Optional[str] = None,
        subject: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[AuditRecord]:
        """Filter records by kind / actor / subject / time window.

        Staged records are included (they are already part of the
        stream, just not yet tamper-evident); checkpoint records are
        not — they live on their own chain.  The filter is
        :meth:`query`'s.
        """
        return self.query(
            kind=kind, actor=actor, subject=subject, since=since, until=until
        )

    def query(
        self,
        kind: Optional[RecordKind] = None,
        actor: Optional[str] = None,
        subject: Optional[str] = None,
        entity: Optional[str] = None,
        tag: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
        stats=None,
    ) -> List[AuditRecord]:
        """Index-backed record query across hot and cold tiers.

        ``query`` probes each sealed segment's
        :class:`~repro.audit.storage.SegmentIndex` first and reads only
        segments that *could* match — on a million-record chain a tag or
        actor query touches a handful of segments, and cold ones are
        loaded only when their index says they matter.  When the filter
        names an ``actor``, ``subject`` or ``entity``, each segment (and
        the open tail) reads only the records on that name's shortest
        posting list, cold ones slot by slot.  ``entity`` matches actor
        or subject; ``tag`` is a qualified ``"namespace:name"`` string
        matched against either recorded context.  Every record read is
        still filtered by :func:`~repro.audit.records.record_matches`,
        so results are seq-ordered and identical to filtering the flat
        record stream (the property the test suite pins).  Pass a
        :class:`~repro.audit.query.QueryStats` as ``stats`` to observe
        the probe/scan accounting.
        """
        self.drain()  # staged records are part of the stream
        kind_value = kind.value if kind is not None else None
        filters = (kind, actor, subject, entity, tag, since, until)
        matched: List[AuditRecord] = []
        store = self._store
        for source in store.sources():
            for chunk in store.sealed.get(source, ()):
                if stats is not None:
                    stats.segments_total += 1
                if not chunk.index.may_match(
                    kind_value, actor, subject, entity, tag, since, until
                ):
                    if stats is not None:
                        stats.segments_skipped += 1
                    continue
                if stats is not None:
                    stats.segments_scanned += 1
                if chunk.is_cold:
                    store.stats_cold_loads += 1
                    if stats is not None:
                        stats.cold_loads += 1
                matched.extend(matching(chunk, *filters, stats))
            matched.extend(matching(store.tails[source], *filters, stats))
        matched.sort(key=lambda r: r.seq)
        return matched

    def denials(self) -> List[AuditRecord]:
        """All denied flows/accesses — the compliance hot list."""
        return [r for r in self._merged() if r.is_denial]

    def sources(self) -> List[str]:
        """Every source that has a segment, sorted."""
        return self._store.sources()

    def segment_heads(self) -> Dict[str, Tuple[int, str]]:
        """Per-source ``(absolute position, head digest)`` — the offload
        receipt material (drains first so heads are current)."""
        self.drain()
        return {
            source: (self._store.total(source), self._store.head(source))
            for source in self._store.sources()
        }

    def known_actors(self) -> Set[str]:
        """Every actor that ever emitted here, surviving pruning.

        Distributed gap detection uses this to avoid flagging a
        component as silent when its records were merely pruned."""
        staged = {
            record.actor for ring in self._staged.values() for record in ring
        }
        return self._actors | staged

    def checkpoints(self) -> List[AuditRecord]:
        """The retained checkpoint records (oldest first)."""
        return self._ckpt.records()

    # -- verification -------------------------------------------------------

    def verify(
        self,
        mode: str = "incremental",
    ) -> bool:
        """True iff every segment chain, the checkpoint chain, and every
        retained checkpoint's segment-head bindings hold.

        ``mode="incremental"`` (the default) skips cold segments whose
        verified watermark is intact; ``mode="deep"`` recomputes
        everything.  Both modes detect every tamper class — see the
        verification-modes section of ``docs/audit_storage.md``.
        """
        try:
            self.verify_strict(deep=_deep_of(mode))
            return True
        except IntegrityViolation:
            return False

    def verify_strict(self, deep: bool = False) -> VerifyStats:
        """Verify the whole spine, raising on the first mismatch.

        Drains first (staged records must be chained to be checkable).
        Beyond per-segment chain verification, every retained checkpoint
        pins each segment: a segment truncated below a checkpointed
        position — or whose digest at that position changed — fails
        here, which is the cross-segment guarantee a single shared chain
        used to give for free.

        ``deep=True`` recomputes every chunk and every checkpoint
        binding unconditionally (the historical behaviour, still the
        authoritative mode).  ``deep=False`` — incremental — always
        recomputes the hot tier and anything whose watermark dropped,
        but skips cold segments (and checkpoint bindings) already
        covered by an intact watermark.  Returns the pass's
        :class:`~repro.audit.verify.VerifyStats`.
        """
        started = time.perf_counter()
        stats = VerifyStats(mode="deep" if deep else "incremental")
        self.last_verify_stats = stats
        try:
            self.drain()
            # Every source's full chain — hot tail, hot sealed, cold
            # spilled — including the continuity joins at segment
            # boundaries (incremental mode skips watermarked cold
            # chunks; the joins are always checked).
            self._store.verify(deep=deep, stats=stats)
            # The checkpoint chain itself is hot in-memory state: always
            # recomputed in full, in either mode.
            stats.bytes_hashed += self._ckpt.verify()
            stats.checkpoints_total = self._ckpt.count
            start_idx = 0
            if not deep:
                bound = self._ckpt_bound
                if (
                    bound is not None
                    and stats.watermark_invalidations == 0
                    and bound[0] >= self._ckpt.base_count
                    and self._ckpt.digest_at(bound[0]) == bound[1]
                ):
                    # The chain up to the bound re-derives the digest we
                    # recorded after the last successful pass, and no
                    # cold watermark dropped underneath it — only
                    # checkpoints appended since need their bindings
                    # walked.  Any consistent rewrite of history moves
                    # either a cold watermark key or this digest.
                    start_idx = bound[0] - self._ckpt.base_count
            stats.checkpoints_skipped = start_idx
            stats.checkpoints_verified = self._ckpt.count - start_idx
            # Decode the strings the replay above just checked, keeping
            # nothing: a memo would hold a copy of the whole chain.
            for canonical in self._ckpt.canonicals[start_idx:]:
                record = AuditRecord.from_canonical(canonical)
                heads = record.detail.get("heads", {})
                counts = record.detail.get("counts", {})
                for source, head in heads.items():
                    if source not in self._store.tails:
                        raise IntegrityViolation(
                            f"segment {source!r} vanished after checkpoint "
                            f"seq {record.seq}"
                        )
                    position = counts.get(source, 0)
                    total = self._store.total(source)
                    if position > total:
                        raise IntegrityViolation(
                            f"segment {source!r} truncated below "
                            f"checkpointed position {position} "
                            f"(holds {total})"
                        )
                    expected = self._store.digest_at(source, position)
                    if expected is not None and expected != head:
                        raise IntegrityViolation(
                            f"segment {source!r} head at position "
                            f"{position} does not match checkpoint "
                            f"seq {record.seq}"
                        )
            self._ckpt_bound = (self._ckpt.total, self._ckpt.head)
        except IntegrityViolation:
            # A failed pass proves nothing about the bindings.
            self._ckpt_bound = None
            raise
        finally:
            stats.wall_s = time.perf_counter() - started
            self.stats_verifies += 1
            cum = self._verify_cum
            for key in cum:
                cum[key] += getattr(stats, key)
        return stats

    def verify_stats(self) -> Dict:
        """Verification rollup: last pass + cumulative totals.

        The ``Deployment.stats()["verify"]`` building block — how much
        chain the spine has recomputed versus skipped over its lifetime,
        plus the most recent pass in full.
        """
        rollup = dict(self._verify_cum)
        rollup["verifies"] = self.stats_verifies
        rollup["last"] = (
            self.last_verify_stats.to_dict()
            if self.last_verify_stats is not None
            else None
        )
        return rollup

    # -- maintenance ---------------------------------------------------------

    def prune_before(self, timestamp: float) -> int:
        """Discard records older than ``timestamp`` from every segment.

        Each segment rebases its chain on the last pruned digest
        (as ``AuditLog.prune_before`` does), and checkpoint records
        older than ``timestamp`` are pruned from the checkpoint chain
        the same way.  Returns the number of *records* pruned
        (checkpoints are chain metadata, not stream records).
        """
        self.drain()
        pruned = self._store.prune_before(timestamp)
        self._ckpt.prune_prefix(self._ckpt.age_prefix(timestamp))
        # Pruning moves segment bases and the checkpoint chain's
        # base: the binding watermark no longer describes the
        # retained history.
        self._ckpt_bound = None
        return pruned

    def demote_before(self, timestamp: float) -> int:
        """Move records older than ``timestamp`` to the cold tier.

        The non-destructive counterpart of :meth:`prune_before` — the
        default action legal retention obligations take
        (``repro.policy.legal``): the records leave hot memory but stay
        on disk, fully chained, verifiable and queryable.  Returns the
        number of records demoted; 0 when no spill tier is configured
        (call :meth:`configure_spill` first).
        """
        self.drain()
        return self._store.demote_before(timestamp)

    def tier_stats(self) -> Dict:
        """Hot/cold tier rollup (record counts, segment counts, spill
        bytes, seal/demotion/cold-load counters, hot-window bounds)."""
        return self._store.tier_stats()

    def prune_segment(self, source: str, before: Optional[float] = None) -> int:
        """Prune one segment (wholly, or records before ``before``).

        Per-source retention: a chatty kernel segment can be cut without
        touching the bus's.  The segment object (base digest, absolute
        position, actor memory) survives, so later checkpoints and gap
        detection still account for what was pruned.
        """
        self.drain()
        self._ckpt_bound = None
        return self._store.prune_source(source, before)

    def export(self) -> List[Dict]:
        """Serialise records with digests and segment attribution, in
        stream order, for offload to another party (Challenge 6)."""
        self.drain()
        return self._store.export_entries()

    def export_checkpoints(self) -> List[Dict]:
        """Serialise the checkpoint chain (records + digests)."""
        return ship_contexts([
            {"record": c, "digest": d} for c, d in self._ckpt.entries()
        ])
