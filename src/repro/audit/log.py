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

from typing import Callable, Dict, Iterator, List, Optional

from repro.audit.records import AuditRecord, RecordKind, ship_contexts
from repro.audit.storage import GENESIS_DIGEST, AuditSegment, matching
from repro.errors import IntegrityViolation
from repro.ifc.labels import SecurityContext


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

    The log is one :class:`~repro.audit.storage.AuditSegment` whose
    genesis is :data:`GENESIS_DIGEST`: each append chains at once, and
    the segment keeps the canonical string it hashed, not the record.
    The record ``append`` returns is the caller's; editing it changes
    nothing stored.  Reads decode the stored strings, and
    :meth:`verify` replays them and holds every record a read handed
    out to the string it came from.

    Example::

        log = AuditLog(clock=sim.now)
        log.flow_allowed("sensor", "analyser", src_ctx, dst_ctx)
        assert log.verify()
    """

    def __init__(
        self,
        clock: Optional[Callable[[], float]] = None,
        name: str = "audit",
    ):
        self.name = name
        self._clock = clock or (lambda: 0.0)
        self._chain = AuditSegment(name, GENESIS_DIGEST)

    # -- core append/verify ------------------------------------------------

    def __len__(self) -> int:
        return self._chain.count

    def __iter__(self) -> Iterator[AuditRecord]:
        return iter(self._chain.records())

    @property
    def head_digest(self) -> str:
        """Digest of the most recent record (genesis digest when empty)."""
        return self._chain.head

    def append(
        self,
        kind: RecordKind,
        actor: str,
        subject: str = "",
        detail: Optional[Dict] = None,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
    ) -> AuditRecord:
        """Append one record, extending the hash chain."""
        chain = self._chain
        record = AuditRecord(
            chain.total, self._clock(), kind, actor, subject,
            dict(detail) if detail else {}, source_context, target_context,
        )
        chain.chain(record)
        return record

    def flush(self) -> int:
        """The :class:`~repro.audit.sink.AuditSink` flush: appends chain
        at once, so nothing is ever deferred.  Returns 0."""
        return 0

    def verify(self, mode: str = "deep") -> bool:
        """Recompute the whole chain; True iff untampered.

        Raises nothing — audit tooling wants a boolean; use
        :meth:`verify_strict` to get the failing position.

        ``mode`` exists for :class:`AuditSink` signature compatibility
        with the spine's verification plane; a flat log is one
        in-memory chain, so every call is a full recompute regardless
        (there are no immutable cold segments to watermark).
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
        self._chain.verify()

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
        return [r for r in self if r.is_denial]

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

        Served like a spine tail: the segment's posting lists name the
        only records to read, and each is held to
        :func:`~repro.audit.records.record_matches` — the same results
        as a flat scan.  ``entity`` matches actor or subject; ``tag`` is
        a qualified ``"namespace:name"`` string matched against either
        recorded context.
        """
        return matching(
            self._chain, kind, actor, subject, entity, tag, since, until,
            stats,
        )

    def prune_before(self, timestamp: float) -> int:
        """Discard records older than ``timestamp`` (Challenge 6).

        The digest of the last pruned record becomes the new chain base,
        so the retained suffix still verifies; auditors holding the old
        head digest can still authenticate continuity.  Returns the
        number of records pruned.
        """
        chain = self._chain
        return chain.prune_prefix(chain.age_prefix(timestamp))

    def export(self) -> List[Dict]:
        """Serialise records (with digests) for offload to another party
        (Challenge 6: "can logs be offloaded to others for distributed
        audit?").  The first entry to name each context carries its
        table entry, so :func:`~repro.audit.records.decode_export`
        decodes the export alone."""
        return ship_contexts([
            {"record": c, "digest": d} for c, d in self._chain.entries()
        ])
