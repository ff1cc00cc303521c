"""Distributed audit across federated domains (Challenge 6).

The paper asks: "How to deal with possible audit 'gaps', where components
are no longer accessible, intermittently connected or mobile? ... Can
logs be offloaded to others for distributed audit, and how should this
be managed?"

This module provides:

* :class:`AuditCollector` — merges per-domain logs into a single
  time-ordered view, verifying each contributed chain and flagging
  domains whose logs failed verification;
* gap detection — find windows where a component was known active (it
  appears in neighbours' logs) but contributed no records of its own;
* offload receipts — a log owner can hand a signed-digest receipt to a
  collector before pruning locally, preserving accountability;
* checkpoint cross-pinning — federated domains gossip
  :class:`CheckpointClaim`\\ s (their audit spine's checkpoint-chain
  head and position) and each domain's :class:`FederationPinboard`
  pins its peers' claims, so no domain can silently rewrite or truncate
  even *pruned* history: the pinned digest at a pinned position must
  hold forever.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Set, Tuple

from repro.audit.records import AuditRecord, RecordKind
from repro.audit.sink import AuditSink


@dataclass
class OffloadReceipt:
    """Receipt a collector issues when accepting an offloaded log segment.

    Attributes:
        domain: the contributing administrative domain.
        head_digest: digest of the last record accepted — for a
            segmented spine this is the checkpoint-chain head, which
            itself folds every segment head.
        record_count: how many records the segment held.
        collector_signature: simulated signature binding the receipt.
        segment_heads: for segmented (spine) logs, the per-source
            ``(source, head digest)`` pairs the receipt covers, so a
            domain pruning one segment can still point at the receipt
            that attested it.
        cold_segments: how many of the contributing sink's sealed
            segments were in the cold (spilled) tier at submission —
            the receipt attests that verification crossed the tier
            boundary, not just hot memory.
    """

    domain: str
    head_digest: str
    record_count: int
    collector_signature: str
    segment_heads: Tuple[Tuple[str, str], ...] = ()
    cold_segments: int = 0

    @staticmethod
    def sign(
        domain: str,
        head_digest: str,
        count: int,
        collector_key: str,
        segment_heads: Tuple[Tuple[str, str], ...] = (),
        cold_segments: int = 0,
    ) -> "OffloadReceipt":
        """Create a receipt; the 'signature' is an HMAC-style digest over
        the receipt body (including any segment heads and the tier
        accounting) with the collector's key (simulated crypto)."""
        body = OffloadReceipt._body(
            domain, head_digest, count, segment_heads, cold_segments,
            collector_key,
        )
        sig = hashlib.sha256(body.encode()).hexdigest()
        return OffloadReceipt(
            domain, head_digest, count, sig, segment_heads, cold_segments
        )

    @staticmethod
    def _body(
        domain: str,
        head_digest: str,
        count: int,
        segment_heads: Tuple[Tuple[str, str], ...],
        cold_segments: int,
        collector_key: str,
    ) -> str:
        segments = ";".join(f"{s}={d}" for s, d in segment_heads)
        return (
            f"{domain}|{head_digest}|{count}|{segments}|cold={cold_segments}"
            f"|{collector_key}"
        )

    def verify(self, collector_key: str) -> bool:
        """Check the receipt was issued by the holder of ``collector_key``."""
        body = OffloadReceipt._body(
            self.domain, self.head_digest, self.record_count,
            tuple(self.segment_heads), self.cold_segments, collector_key,
        )
        return hashlib.sha256(body.encode()).hexdigest() == self.collector_signature


@dataclass(frozen=True)
class CheckpointClaim:
    """One domain's assertion about its own audit spine's head.

    Attributes:
        domain: the claiming administrative domain (spine owner).
        position: absolute checkpoint-chain position of the head
            (:attr:`~repro.audit.spine.AuditSpine.checkpoint_position`).
        head_digest: the checkpoint-chain digest at that position.
        issued_at: simulated time the claim was cut.

    Claims are what the federation plane gossips between domains —
    small, append-only facts a remote pinboard can hold a domain to.
    """

    domain: str
    position: int
    head_digest: str
    issued_at: float = 0.0

    @staticmethod
    def of(domain: str, spine, issued_at: float = 0.0) -> "CheckpointClaim":
        """Cut a claim from a spine (forces a checkpoint so the head is
        current).  ``spine`` is anything exposing the checkpoint-chain
        surface (an :class:`~repro.audit.spine.AuditSpine` or one of its
        emitters).  The head is taken from the chain itself
        (``checkpoint_digest_at(position)``) so a claim compares equal
        to what :meth:`FederationPinboard.verify` will read back —
        including the position-0 case, where the chain's domain-
        separated base digest stands in for a head."""
        spine.head_digest  # property read: forces a checkpoint first
        position = spine.checkpoint_position
        return CheckpointClaim(
            domain=domain,
            position=position,
            head_digest=spine.checkpoint_digest_at(position),
            issued_at=issued_at,
        )


@dataclass(frozen=True)
class PinConflict:
    """Two claims for the same (domain, position) with different digests
    — a domain showing different histories to different peers."""

    domain: str
    position: int
    pinned_digest: str
    claimed_digest: str


class FederationPinboard:
    """Cross-pins of remote domains' checkpoint heads (Challenge 6).

    Each federated domain runs one pinboard; gossiped
    :class:`CheckpointClaim`\\ s accumulate here, per claiming domain and
    per checkpoint position.  The spine's checkpoint chain is
    append-only, so a pinned ``(position, digest)`` pair is a permanent
    commitment: :meth:`pin` rejects a contradictory claim for an
    already-pinned position (equivocation), and :meth:`verify` later
    holds the domain's *live* spine to every pin — a rewrite changes the
    digest at a pinned position, a truncation (e.g. the spine quietly
    replaced with a shorter replay) drops below a pinned position.
    Either way the domain cannot shed history its peers pinned.

    ``retain_every`` bounds per-domain pin memory (the ROADMAP's pin
    retention policy): when set to ``k``, only claims at checkpoint
    positions divisible by ``k`` — plus the newest claim — are kept.
    Retired positions stop being re-checkable (and a late conflicting
    claim for one can no longer be flagged), which is the documented
    trade: coverage granularity for bounded state in long-lived
    federations.  ``None`` (the default) keeps every pin.
    """

    def __init__(self, owner: str, retain_every: Optional[int] = None):
        if retain_every is not None and retain_every < 1:
            raise ValueError("retain_every must be >= 1")
        self.owner = owner
        self.retain_every = retain_every
        self._pins: Dict[str, Dict[int, CheckpointClaim]] = {}
        self.conflicts: List[PinConflict] = []
        #: Pins dropped by the retention policy (never by conflict).
        self.stats_retired = 0

    def __len__(self) -> int:
        return sum(len(by_pos) for by_pos in self._pins.values())

    def pin(self, claim: CheckpointClaim) -> bool:
        """Record a claim.  Returns False — and records a
        :class:`PinConflict` — when it contradicts the digest already
        pinned for the same (domain, position); re-pinning an identical
        claim is an accepted no-op.  Claims about the owner itself are
        ignored (a domain does not pin its own history)."""
        if claim.domain == self.owner:
            return True
        by_pos = self._pins.setdefault(claim.domain, {})
        held = by_pos.get(claim.position)
        if held is not None:
            if held.head_digest != claim.head_digest:
                self.conflicts.append(
                    PinConflict(
                        claim.domain,
                        claim.position,
                        held.head_digest,
                        claim.head_digest,
                    )
                )
                return False
            return True
        by_pos[claim.position] = claim
        self._apply_retention(by_pos)
        return True

    def _apply_retention(self, by_pos: Dict[int, CheckpointClaim]) -> None:
        """Drop pins the retention policy no longer keeps: every ``k``-th
        checkpoint position survives, and so does the newest pin."""
        k = self.retain_every
        if k is None or len(by_pos) < 2:
            return
        newest = max(by_pos)
        retire = [p for p in by_pos if p != newest and p % k != 0]
        for position in retire:
            del by_pos[position]
        self.stats_retired += len(retire)

    def domains(self) -> List[str]:
        """Every domain this board holds pins for, sorted."""
        return sorted(self._pins)

    def pinned(self, domain: str) -> Optional[CheckpointClaim]:
        """The freshest (highest-position) pin for ``domain``."""
        by_pos = self._pins.get(domain)
        if not by_pos:
            return None
        return by_pos[max(by_pos)]

    def claims(self, domain: str) -> List[CheckpointClaim]:
        """All pins held for ``domain``, position-ascending."""
        by_pos = self._pins.get(domain, {})
        return [by_pos[p] for p in sorted(by_pos)]

    def verify(
        self,
        spines,
        mode: Optional[str] = None,
    ) -> Dict[str, str]:
        """Hold each domain's live spine to every pinned position.

        ``spines`` maps domain → spine-like (``checkpoint_position`` /
        ``checkpoint_digest_at``).  Returns domain → verdict:

        * ``"ok"`` — at least one pinned position was re-checked against
          the live chain and every checkable one holds (*older*
          positions the domain pruned locally stay vouched for by their
          pins);
        * ``"truncated"`` — the spine's checkpoint chain is shorter than
          a pinned position (history shed wholesale);
        * ``"tampered"`` — the digest at a pinned position changed (a
          rewritten, re-chained history);
        * ``"unverifiable"`` — every pinned position has been pruned
          from the presented chain, so nothing could be re-checked.  A
          domain that rewrote history and then pruned past every pin
          lands here rather than ``"ok"`` — from digests alone that is
          indistinguishable from an aggressive honest prune, so the
          verdict withholds endorsement instead of granting it (the
          offload-receipt machinery is the recourse for pruned bytes);
        * ``"unpinned"`` — this board holds no claim for the domain.

        Claims are gossiped every round, so honest domains are pinned
        close to their head and normally keep that position checkable.

        ``mode`` (``None`` by default) optionally adds a *local-chain*
        check per presented spine: ``"incremental"`` or ``"deep"`` runs
        each spine's own ``verify(mode=...)`` and demotes
        an otherwise-clean verdict to ``"tampered"`` when the local
        chain fails.  Pin comparison alone only sees the checkpoint
        chain; the local check catches a record tampered *behind* an
        intact checkpoint head — and with ``"incremental"`` it is cheap
        enough to run every federation round (watermark cursors make it
        O(new records) steady-state).
        """
        verdicts: Dict[str, str] = {}
        for domain, spine in spines.items():
            if domain == self.owner:
                continue
            by_pos = self._pins.get(domain)
            if not by_pos:
                verdicts[domain] = "unpinned"
                continue
            # head_digest (a property read) forces the live spine to
            # checkpoint anything still staged, so the comparison is
            # against its *current* committed history.
            getattr(spine, "head_digest", None)
            verdict = None
            checked = 0
            for position in sorted(by_pos):
                claim = by_pos[position]
                if spine.checkpoint_position < position:
                    verdict = "truncated"
                    break
                digest = spine.checkpoint_digest_at(position)
                if digest is None:
                    continue  # pruned locally; the pin still vouches
                checked += 1
                if digest != claim.head_digest:
                    verdict = "tampered"
                    break
            if verdict is None:
                verdict = "ok" if checked else "unverifiable"
            if mode is not None and verdict not in (
                "tampered", "truncated"
            ):
                verify_fn = getattr(spine, "verify", None)
                if callable(verify_fn):
                    try:
                        clean = verify_fn(mode=mode)
                    except TypeError:
                        clean = verify_fn()
                    if not clean:
                        verdict = "tampered"
            verdicts[domain] = verdict
        return verdicts


@dataclass
class AuditGap:
    """A detected gap: a component referenced by others but silent itself.

    Attributes:
        component: the silent component's identifier.
        first_seen / last_seen: time window in which neighbours referenced
            it while it produced no records.
        referenced_by: which domains' logs mention it.
    """

    component: str
    first_seen: float
    last_seen: float
    referenced_by: Set[str] = field(default_factory=set)


class AuditCollector:
    """Aggregates logs from many administrative domains.

    Each domain submits its :class:`AuditLog`; the collector verifies the
    hash chain before accepting, records an :class:`OffloadReceipt`, and
    exposes a merged, time-ordered record stream for cross-domain
    forensics (the end-to-end view no single domain holds).
    """

    def __init__(
        self,
        key: str = "collector-key",
        verify_mode: str = "incremental",
    ):
        self._key = key
        #: How submitted chains are verified before acceptance.
        #: ``"incremental"`` (the default) rides watermark cursors so
        #: repeat submissions from the same domain re-verify only what
        #: changed; ``"deep"`` recomputes everything each time.  Either
        #: mode rejects every tamper class (``docs/audit_storage.md``).
        self.verify_mode = verify_mode
        self._segments: Dict[str, List[AuditRecord]] = {}
        self._rejected: Set[str] = set()
        self._receipts: List[OffloadReceipt] = []
        # Actors the contributing logs vouch for even after local
        # pruning (see AuditSpine.known_actors) — gap detection must not
        # flag a component whose records were merely pruned.
        self._known_reporters: Set[str] = set()

    @property
    def rejected_domains(self) -> Set[str]:
        """Domains whose submitted log failed chain verification."""
        return set(self._rejected)

    def submit(self, domain: str, log: AuditSink) -> Optional[OffloadReceipt]:
        """Accept a domain's log if its chain verifies.

        Returns a receipt on acceptance, None on rejection.  Repeated
        submissions from the same domain extend its segment.  Segmented
        logs (an :class:`~repro.audit.spine.AuditSpine`) are accepted
        the same way: verification covers every segment plus the
        checkpoint chain, and the receipt is taken over the segment
        heads (via a fresh checkpoint) rather than a single linear
        chain's head.  Verification runs in the collector's
        :attr:`verify_mode` — watermark-aware by default, so a domain
        re-submitting a mostly-cold spine costs O(new records), not
        O(history).
        """
        try:
            accepted = log.verify(mode=self.verify_mode)
        except TypeError:
            # A duck-typed sink predating the verification plane.
            accepted = log.verify()
        if not accepted:
            self._rejected.add(domain)
            return None
        segment_heads: Tuple[Tuple[str, str], ...] = ()
        heads_fn = getattr(log, "segment_heads", None)
        if callable(heads_fn):
            # A fresh checkpoint binds every segment head into the
            # head_digest the receipt signs (no-op if already current).
            log.checkpoint()
            segment_heads = tuple(
                (source, head) for source, (__, head) in sorted(heads_fn().items())
            )
        actors_fn = getattr(log, "known_actors", None)
        if callable(actors_fn):
            self._known_reporters.update(actors_fn())
        # Tier-aware: a tiered spine's verify() above already replayed
        # cold spill files; the receipt records how many it crossed.
        cold_segments = 0
        tier_fn = getattr(log, "tier_stats", None)
        if callable(tier_fn):
            cold_segments = tier_fn().get("cold_segments", 0)
        records = list(log)
        self._segments.setdefault(domain, []).extend(records)
        receipt = OffloadReceipt.sign(
            domain, log.head_digest, len(records), self._key,
            segment_heads=segment_heads,
            cold_segments=cold_segments,
        )
        self._receipts.append(receipt)
        return receipt

    def receipts(self) -> List[OffloadReceipt]:
        """All issued receipts."""
        return list(self._receipts)

    def merged(self) -> List[Tuple[str, AuditRecord]]:
        """All accepted records as (domain, record), time-ordered.

        Ties are broken by domain name then sequence for determinism.
        """
        everything: List[Tuple[str, AuditRecord]] = []
        for domain, records in self._segments.items():
            everything.extend((domain, r) for r in records)
        everything.sort(key=lambda pair: (pair[1].timestamp, pair[0], pair[1].seq))
        return everything

    def cross_domain_flows(self) -> List[Tuple[str, str, AuditRecord]]:
        """Flows whose actor appears in one domain's log and whose subject
        appears (as an actor) in a *different* domain's — the hand-off
        points federated compliance cares about."""
        actor_domains: Dict[str, Set[str]] = {}
        for domain, records in self._segments.items():
            for r in records:
                actor_domains.setdefault(r.actor, set()).add(domain)
        result = []
        for domain, records in self._segments.items():
            for r in records:
                if r.kind != RecordKind.FLOW_ALLOWED or not r.subject:
                    continue
                target_domains = actor_domains.get(r.subject, set())
                if target_domains and target_domains != {domain}:
                    for td in sorted(target_domains - {domain}):
                        result.append((domain, td, r))
        return result

    def detect_gaps(self) -> List[AuditGap]:
        """Find components other domains reference that never reported.

        A component named as the *subject* of flows but owning no records
        anywhere is an audit gap — Challenge 6's intermittently connected
        or mobile 'thing'.  Components a segmented log vouched for
        (:meth:`~repro.audit.spine.AuditSpine.known_actors`) count as
        reporters even when their segment has since been pruned — a
        pruned reporter is not a gap.
        """
        reporters: Set[str] = set(self._known_reporters)
        for records in self._segments.values():
            for r in records:
                reporters.add(r.actor)
        gaps: Dict[str, AuditGap] = {}
        for domain, records in self._segments.items():
            for r in records:
                if not r.subject or r.subject in reporters:
                    continue
                gap = gaps.get(r.subject)
                if gap is None:
                    gaps[r.subject] = AuditGap(
                        r.subject, r.timestamp, r.timestamp, {domain}
                    )
                else:
                    gap.first_seen = min(gap.first_seen, r.timestamp)
                    gap.last_seen = max(gap.last_seen, r.timestamp)
                    gap.referenced_by.add(domain)
        return sorted(gaps.values(), key=lambda g: g.component)
