"""The unified audit-sink surface every audit writer satisfies.

Two kinds of writer share one hash chain implementation
(:class:`~repro.audit.storage.AuditSegment`): the per-domain
:class:`~repro.audit.log.AuditLog`, one segment chained synchronously
on every append (the paper's §8.3 construction), and the per-machine
:class:`~repro.audit.spine.AuditSpine` with its per-source
:class:`~repro.audit.spine.SpineEmitter` handles, which stage records
off the delivery path and chain them into per-source segments at each
drain (``docs/audit_plane.md``).  Both expose the same
write/read/maintenance vocabulary, and :class:`AuditSink` names that
contract.

The contract is what :func:`~repro.audit.spine.bind_source` adapts
between: any component that takes an ``audit`` argument accepts an
:class:`AuditSink` — a plain log, a whole spine, or a bound emitter —
and calls ``bind_source(audit, "<site>")`` to claim its own segment
when the sink is segmented (a no-op for plain logs).  This is what lets
an :class:`~repro.iot.domain.AdministrativeDomain` run *spine-backed*
inside a :class:`~repro.deploy.Deployment`: the domain's bus, policy
engine, reconfigurator and discovery all write into the owning
machine's spine (one tamper-evident chain per node) instead of a
detached per-domain log.

``AuditSink`` is a :func:`~typing.runtime_checkable` protocol, so
``isinstance(log, AuditSink)`` works for duck-typed sinks too; the
recording vocabulary (``flow_allowed`` / ``flow_denied`` /
``context_change`` / ``reconfiguration``) comes from
:class:`~repro.audit.log.RecorderMixin`, which every concrete sink
mixes in.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Protocol, runtime_checkable

from repro.audit.records import AuditRecord, RecordKind
from repro.audit.spine import bind_source  # re-export: the sink adapter
from repro.ifc.labels import SecurityContext

__all__ = ["AuditSink", "bind_source"]


@runtime_checkable
class AuditSink(Protocol):
    """What every audit writer exposes (log, spine, or emitter).

    Writers: :meth:`append` plus the :class:`~repro.audit.log.
    RecorderMixin` vocabulary built on it.  Readers: filtering,
    iteration and the denial hot list.  Integrity: :meth:`flush` chains
    what a spine has staged (a log defers nothing), :meth:`verify`
    recomputes the chain(s),
    :attr:`head_digest` authenticates the whole sink, and
    :meth:`export` / :meth:`prune_before` keep offload and retention
    tamper-evident.
    """

    name: str

    # -- writing -----------------------------------------------------------

    def append(
        self,
        kind: RecordKind,
        actor: str,
        subject: str = "",
        detail: Optional[Dict] = None,
        source_context: Optional[SecurityContext] = None,
        target_context: Optional[SecurityContext] = None,
    ) -> AuditRecord:
        """Record one event (a spine chains it at its next drain)."""
        ...

    # -- reading -----------------------------------------------------------

    def records(
        self,
        kind: Optional[RecordKind] = None,
        actor: Optional[str] = None,
        subject: Optional[str] = None,
        since: Optional[float] = None,
        until: Optional[float] = None,
    ) -> List[AuditRecord]:
        """Filter records by kind / actor / subject / time window."""
        ...

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

        Superset of :meth:`records`: adds ``entity`` (actor *or*
        subject) and ``tag`` (qualified ``"namespace:name"``) filters.
        Both answer from their segments' posting lists, and a tiered
        :class:`~repro.audit.spine.AuditSpine` skips sealed segments by
        their indexes (``docs/audit_storage.md``) — results are those
        of a flat scan either way.  ``stats`` optionally receives a
        :class:`~repro.audit.query.QueryStats` to fill.
        """
        ...

    def denials(self) -> List[AuditRecord]:
        """All denied flows/accesses — the compliance hot list."""
        ...

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[AuditRecord]: ...

    # -- integrity & maintenance ------------------------------------------

    def flush(self) -> int:
        """Chain what a spine has staged; returns how many records (0
        for a log, whose appends chain at once)."""
        ...

    def verify(self, mode: str = ...) -> bool:  # type: ignore[assignment]
        """Recompute every chain; True iff untampered.

        ``mode`` is ``"incremental"`` (skip cold segments behind an
        intact verified watermark — spines default to this) or
        ``"deep"`` (full recompute — flat logs always do this
        regardless); it is accepted everywhere so callers can pass it
        blind.  Every tamper class is detected in either mode — see the
        verification-modes section of ``docs/audit_storage.md``.
        """
        ...

    @property
    def head_digest(self) -> str:
        """One digest authenticating the sink's whole retained history."""
        ...

    def export(self) -> List[Dict]:
        """Serialise records (with digests) for offload (Challenge 6)."""
        ...

    def prune_before(self, timestamp: float) -> int:
        """Discard older records, keeping the suffix verifiable."""
        ...
