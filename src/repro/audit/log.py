"""Tamper-evident, append-only audit log.

The paper requires audit to "demonstrate compliance and aid
accountability" (§5.2) and notes logs "can be made more trustworthy by,
for example, using hardware cryptographic support" (§8.3, citing BBox).
We implement the standard hash-chain construction: each record's digest
covers its canonical serialisation plus the previous digest, so
truncation or in-place modification is detectable by
:meth:`AuditLog.verify`.  Challenge 6 asks "when can logs safely be
pruned?" — :meth:`AuditLog.prune_before` retains a verifiable checkpoint
digest so the remaining suffix still authenticates.
"""

from __future__ import annotations

import hashlib
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

from repro.audit.records import AuditRecord, RecordKind, record_matches
from repro.errors import IntegrityViolation
from repro.ifc.labels import SecurityContext

GENESIS_DIGEST = hashlib.sha256(b"repro-audit-genesis").hexdigest()
_DIGEST_BYTES = 64  # sha256 hex


def chain_digest(previous: str, canonical: str) -> str:
    """Extend a hash chain by one record's canonical serialisation."""
    return hashlib.sha256((previous + canonical).encode()).hexdigest()


def replay_chain(
    base: str, canonicals: Iterable[str], stored: Iterable[str]
) -> Tuple[int, Optional[int]]:
    """The one verify loop: re-hash from ``base``, compare with ``stored``.

    Returns ``(bytes hashed, first mismatching position or None)``,
    counting each record's canonical plus its stored digest.
    """
    digest = base
    hashed = 0
    for position, (canonical, expected) in enumerate(zip(canonicals, stored)):
        digest = chain_digest(digest, canonical)
        hashed += len(canonical) + _DIGEST_BYTES
        if digest != expected:
            return hashed, position
    return hashed, None


def _deep_of(mode: str) -> bool:
    """Map the consumer-facing ``mode`` string to ``deep``."""
    if mode == "deep":
        return True
    if mode == "incremental":
        return False
    raise ValueError(
        f"verification mode must be 'incremental' or 'deep', got {mode!r}"
    )


class RecorderMixin:
    """Convenience appenders shared by every audit writer.

    Anything exposing ``append(kind, actor, subject, detail,
    source_context, target_context)`` — :class:`AuditLog`, the
    :class:`~repro.audit.spine.AuditSpine` and its per-source emitters —
    gets the domain-specific recording vocabulary from here.
    """

    def flow_allowed(
        self,
        actor: str,
        subject: str,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
        detail: Optional[Dict] = None,
    ) -> AuditRecord:
        """Record a permitted data flow actor → subject."""
        return self.append(
            RecordKind.FLOW_ALLOWED, actor, subject, detail,
            source_context, target_context,
        )

    def flow_denied(
        self,
        actor: str,
        subject: str,
        reason: str,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
    ) -> AuditRecord:
        """Record a denied data flow with the denial reason."""
        return self.append(
            RecordKind.FLOW_DENIED, actor, subject, {"reason": reason},
            source_context, target_context,
        )

    def context_change(
        self,
        actor: str,
        old: SecurityContext,
        new: SecurityContext,
        detail: Optional[Dict] = None,
    ) -> AuditRecord:
        """Record a context change, classified as declassification (secrecy
        dropped), endorsement (integrity gained), or a plain change."""
        if old.secrecy.tags - new.secrecy.tags:
            kind = RecordKind.DECLASSIFICATION
        elif new.integrity.tags - old.integrity.tags:
            kind = RecordKind.ENDORSEMENT
        else:
            kind = RecordKind.CONTEXT_CHANGE
        return self.append(
            kind, actor, "", detail, source_context=old, target_context=new
        )

    def reconfiguration(
        self, actor: str, target: str, command: str, detail: Optional[Dict] = None
    ) -> AuditRecord:
        """Record a third-party reconfiguration (Fig. 8)."""
        merged = {"command": command}
        merged.update(detail or {})
        return self.append(RecordKind.RECONFIGURATION, actor, target, merged)


class AuditLog(RecorderMixin):
    """Append-only log of :class:`AuditRecord` with a SHA-256 hash chain.

    The log is the universal observer: kernels, substrates, channels,
    policy engines and gateways all append here.  A ``clock`` callable
    supplies timestamps (wire it to the simulator for deterministic
    runs).

    ``buffer_size`` enables the buffered writer used by batched
    workloads: records are appended immediately (they are visible to
    ``records()``/iteration right away) but their chain digests are
    computed lazily, in chunks, once ``buffer_size`` records are pending
    or on an explicit :meth:`flush`.  Everything that *observes* the
    chain — :attr:`head_digest`, :meth:`verify`, :meth:`export`,
    :meth:`prune_before` — flushes first, so the chain construction and
    the ``verify()`` result are byte-identical to an unbuffered log with
    the same records.  Each record's digest material (its canonical
    serialisation) is snapshotted *at append time*, so the chain always
    reflects what was appended: a still-pending record mutated in memory
    before its first flush is chained as appended and the mutation is
    detected by :meth:`verify`, exactly as in unbuffered mode.

    Example::

        log = AuditLog(clock=sim.now)
        log.flow_allowed("sensor", "analyser", src_ctx, dst_ctx)
        assert log.verify()
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        name: str = "audit",
        buffer_size: int = 0,
    ):
        self.name = name
        self._clock = clock or (lambda: 0.0)
        self._records: List[AuditRecord] = []
        self._digests: List[str] = []
        # Canonical serialisations of records not yet folded into the
        # chain, snapshotted at append time (see the class docstring).
        self._pending_canonicals: List[str] = []
        self._base_digest = GENESIS_DIGEST
        self._base_seq = 0
        self.buffer_size = buffer_size

    # -- core append/verify ------------------------------------------------

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(self._records)

    @property
    def pending(self) -> int:
        """Records appended but not yet folded into the hash chain."""
        return len(self._records) - len(self._digests)

    @property
    def head_digest(self) -> str:
        """Digest of the most recent record (genesis digest when empty)."""
        self.flush()
        return self._digests[-1] if self._digests else self._base_digest

    def append(
        self,
        kind: RecordKind,
        actor: str,
        subject: str = "",
        detail: Optional[Dict] = None,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
    ) -> AuditRecord:
        """Append one record, extending the hash chain.

        In buffered mode the chain extension is deferred; see
        :meth:`flush`.
        """
        record = AuditRecord(
            self._base_seq + len(self._records), self._clock(), kind, actor,
            subject, dict(detail) if detail else {}, source_context,
            target_context,
        )
        self._records.append(record)
        self._pending_canonicals.append(record.canonical())
        if self.buffer_size <= 0 or self.pending >= self.buffer_size:
            self.flush()
        return record

    def flush(self) -> int:
        """Fold all pending records into the hash chain, in one chunk.

        Returns the number of records whose digests were computed.
        Idempotent; a no-op on an unbuffered or already-flushed log.
        The chain is built from the canonical serialisations captured at
        append time, not from the records' current in-memory state.
        """
        pending = self._pending_canonicals
        if not pending:
            return 0
        digests = self._digests
        digest = digests[-1] if digests else self._base_digest
        for canonical in pending:
            digest = chain_digest(digest, canonical)
            digests.append(digest)
        flushed = len(pending)
        pending.clear()
        return flushed

    def verify(self, mode: str = "deep") -> bool:
        """Recompute the whole chain; True iff untampered.

        Raises nothing — audit tooling wants a boolean; use
        :meth:`verify_strict` to get the failing position.

        ``mode`` exists for :class:`AuditSink` signature compatibility
        with the spine's verification plane; a flat log is one
        unsegmented in-memory chain, so every call is a full recompute
        regardless (there are no immutable cold segments to watermark).
        """
        _deep_of(mode)  # validates the mode; a flat log always re-hashes
        try:
            self.verify_strict()
            return True
        except IntegrityViolation:
            return False

    def verify_strict(self, deep: bool = True) -> None:
        """Recompute the chain, raising on the first mismatch.

        ``deep`` is accepted for signature parity with
        :meth:`~repro.audit.spine.AuditSpine.verify_strict` and ignored:
        a flat log always recomputes everything.
        """
        self.flush()
        __, bad = replay_chain(
            self._base_digest,
            map(AuditRecord.canonical, self._records),
            self._digests,
        )
        if bad is not None:
            raise IntegrityViolation(
                f"audit chain broken at seq {self._records[bad].seq}"
            )

    # -- query & maintenance -------------------------------------------------

    def records(
        self,
        kind: Optional[RecordKind] = None,
        actor: Optional[str] = None,
        subject: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[AuditRecord]:
        """Filter records by kind / actor / subject / time window."""
        return self.query(kind, actor, subject, since=since, until=until)

    def denials(self) -> List[AuditRecord]:
        """All denied flows/accesses — the compliance hot list."""
        return [r for r in self._records if r.is_denial]

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
        """Filtered query with the full audit-plane vocabulary.

        The flat-scan implementation of the :class:`~repro.audit.sink.
        AuditSink` ``query()`` surface: same
        :func:`~repro.audit.records.record_matches` predicate — and
        therefore the same results — as a tiered spine's index-backed
        query, minus the index short-circuit (a plain log has no sealed
        segments to skip).  ``entity`` matches actor or subject;
        ``tag`` is a qualified ``"namespace:name"`` string matched
        against either recorded context.
        """
        matched = []
        for record in self._records:
            if stats is not None:
                stats.records_scanned += 1
            if record_matches(
                record, kind, actor, subject, entity, tag, since, until
            ):
                matched.append(record)
        return matched

    def prune_before(self, timestamp: float) -> int:
        """Discard records older than ``timestamp`` (Challenge 6).

        The digest of the last pruned record becomes the new chain base,
        so the retained suffix still verifies; auditors holding the old
        head digest can still authenticate continuity.  Returns the
        number of records pruned.  Buffered appends are flushed first so
        the new chain base is always a real, computed digest.
        """
        self.flush()
        keep_from = 0
        while (
            keep_from < len(self._records)
            and self._records[keep_from].timestamp < timestamp
        ):
            keep_from += 1
        if keep_from == 0:
            return 0
        self._base_digest = self._digests[keep_from - 1]
        self._base_seq = self._records[keep_from - 1].seq + 1
        self._records = self._records[keep_from:]
        self._digests = self._digests[keep_from:]
        return keep_from

    def export(self) -> List[Dict]:
        """Serialise records (with digests) for offload to another party
        (Challenge 6: "can logs be offloaded to others for distributed
        audit?")."""
        self.flush()
        return [
            {"record": r.canonical(), "digest": d}
            for r, d in zip(self._records, self._digests)
        ]
