"""Audit record types.

§1.2: "Once IFC is deployed, audit can easily be supported since a record
can potentially be made of every attempted data transfer or access."
Records capture flows (allowed *and* denied), context changes
(declassification/endorsement), privilege delegations, reconfigurations
(Fig. 8) and policy firings — everything Fig. 1's feedback loop needs to
"verify & influence" policy.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache
from math import isfinite
from typing import Any, Dict, FrozenSet, Optional, Set

from repro.ifc.labels import Label, SecurityContext


class RecordKind(str, Enum):
    """Categories of auditable events."""

    FLOW_ALLOWED = "flow-allowed"
    FLOW_DENIED = "flow-denied"
    CONTEXT_CHANGE = "context-change"
    DECLASSIFICATION = "declassification"
    ENDORSEMENT = "endorsement"
    PRIVILEGE_DELEGATION = "privilege-delegation"
    PRIVILEGE_REVOCATION = "privilege-revocation"
    RECONFIGURATION = "reconfiguration"
    POLICY_FIRED = "policy-fired"
    POLICY_CONFLICT = "policy-conflict"
    ACCESS_ALLOWED = "access-allowed"
    ACCESS_DENIED = "access-denied"
    CHANNEL_ESTABLISHED = "channel-established"
    CHANNEL_TORN_DOWN = "channel-torn-down"
    ENTITY_CREATED = "entity-created"
    ATTESTATION = "attestation"
    WIRE_HANDSHAKE = "wire-handshake"
    TABLE_SYNC = "table-sync"
    MISDELIVERY = "misdelivery"
    CHECKPOINT = "checkpoint"
    DISCOVERY = "discovery"
    FEDERATION_PIN = "federation-pin"
    ANALYSIS = "analysis"
    CUSTOM = "custom"


def _make_encoder():
    """The one detail/context encoder, built once.

    ``json.dumps`` with options builds a fresh ``JSONEncoder`` per call,
    and ``JSONEncoder.encode`` builds a fresh C encoder per call; this
    builds the C encoder once, with the same options (sort_keys,
    ``","``/``":"`` separators, ASCII escaping, NaN allowed, circular
    check), so the bytes are those of ``JSONEncoder.encode``.  Without
    the C accelerator the pure-Python encoder stays.
    """
    encoder = json.JSONEncoder(sort_keys=True, separators=(",", ":"))
    c_make_encoder = json.encoder.c_make_encoder
    if c_make_encoder is None:
        return encoder.encode

    # The circular check's markers: container ids the encode is inside.
    markers: Dict[int, Any] = {}
    c_encode = c_make_encoder(
        markers, encoder.default, json.encoder.encode_basestring_ascii,
        None, ":", ",", True, False, True,
    )

    def encode(o: Any) -> str:
        try:
            return "".join(c_encode(o, 0))
        except BaseException:
            # A failed encode leaves the ids of the containers it was
            # inside in the markers, where a later object reusing one of
            # those ids would read as circular.
            markers.clear()
            raise

    return encode


_encode = _make_encoder()


@lru_cache(maxsize=4096)
def _str_json(text: str) -> str:
    # Actors, subjects and kind values repeat across records (entity
    # names, a fixed enum) — cache their JSON-escaped forms.
    return json.dumps(text)


@lru_cache(maxsize=1024)
def _context_json(secrecy: int, integrity: int) -> str:
    # Keyed by a context's two interned masks, not by the context: equal
    # contexts arrive as distinct objects, and two int keys skip the
    # frozen dataclass's Python __hash__/__eq__.  The interner only
    # appends, so a mask names one tag set for the life of the process.
    return _encode({
        name: sorted(t.qualified for t in Label.from_mask(mask).tags)
        for name, mask in (("secrecy", secrecy), ("integrity", integrity))
    })


@lru_cache(maxsize=1024)
def _context_of_tags(secrecy: tuple, integrity: tuple) -> SecurityContext:
    # Cold records repeat a handful of contexts (a ward's 256-tag stats
    # context among them): parse and intern each distinct tag list once.
    # Contexts are immutable, so equal cold records may share one.
    return SecurityContext.of(secrecy, integrity)


def _context_from_dict(body: Optional[Dict]) -> Optional[SecurityContext]:
    if body is None:
        return None
    return _context_of_tags(
        tuple(body.get("secrecy", ())), tuple(body.get("integrity", ()))
    )


@lru_cache(maxsize=1024)
def _context_tags(ctx: SecurityContext) -> FrozenSet[str]:
    """Qualified tags of one context, memoised.

    Contexts are immutable interned-mask values and enforcement reuses a
    handful of them across millions of records, so the per-record tag
    walks in :func:`record_tags` (segment-index builds, tag queries)
    collapse to one dict hit.
    """
    return frozenset(t.qualified for t in ctx.secrecy.tags | ctx.integrity.tags)


@dataclass(frozen=True, slots=True, init=False)
class AuditRecord:
    """One immutable audit event.

    Attributes:
        seq: position in the log (assigned by the log on append).
        timestamp: simulated time of the event.
        kind: record category.
        actor: entity id/name that performed or attempted the action.
        subject: the data item or target entity involved, if any.
        detail: free-form structured detail (flow decision reason, policy
            name, ...), must be JSON-serialisable for canonical hashing.
        source_context / target_context: security contexts at event time,
            recorded so audits can later reconstruct *why* the decision
            was what it was even after labels change.
    """

    seq: int
    timestamp: float
    kind: RecordKind
    actor: str
    subject: str = ""
    detail: Dict[str, Any] = field(default_factory=dict)
    source_context: Optional[SecurityContext] = None
    target_context: Optional[SecurityContext] = None

    def __init__(self, seq, timestamp, kind, actor, subject="", detail=None,
                 source_context=None, target_context=None) -> None:
        # The one constructor every writer uses.  A frozen dataclass's
        # generated __init__ pays an object.__setattr__ per field; the
        # slot descriptors' setters cost about half as much on the
        # emission path, and ordinary assignment still raises.
        a, b, c, d, e, f, g, h = _SLOT_SETTERS
        a(self, seq)
        b(self, timestamp)
        c(self, kind)
        d(self, actor)
        e(self, subject)
        f(self, {} if detail is None else detail)
        g(self, source_context)
        h(self, target_context)

    def canonical(self) -> str:
        """Deterministic JSON serialisation used for hash chaining.

        Assembled from per-field fragments, contexts memoised by mask
        (:func:`_context_json`) and a finite float timestamp written by
        ``float.__repr__`` as ``json`` itself does — byte-identical to
        ``json.dumps(body, sort_keys=True, separators=(",", ":"))``
        over the same eight keys, as ``test_canonical_properties`` pins.
        """
        detail = self.detail
        src = self.source_context
        tgt = self.target_context
        ts = self.timestamp
        return (
            '{"actor":%s,"detail":%s,"kind":%s,"seq":%d,"source_context":%s,'
            '"subject":%s,"target_context":%s,"timestamp":%s}'
            % (
                _str_json(self.actor),
                _encode(detail) if detail else "{}",
                _str_json(self.kind.value),
                self.seq,
                "null" if src is None
                else _context_json(src.secrecy.mask, src.integrity.mask),
                _str_json(self.subject),
                "null" if tgt is None
                else _context_json(tgt.secrecy.mask, tgt.integrity.mask),
                repr(ts) if ts.__class__ is float and isfinite(ts)
                else json.dumps(ts),
            )
        )

    @property
    def is_denial(self) -> bool:
        """Whether this record denotes a denied action."""
        return self.kind in (RecordKind.FLOW_DENIED, RecordKind.ACCESS_DENIED)

    @classmethod
    def from_canonical(cls, canonical: str) -> "AuditRecord":
        """Rebuild a record from its :meth:`canonical` serialisation.

        The round trip is byte-stable (``canonical()`` sorts keys and
        qualified tags), which is what lets cold audit segments store
        only the digest material and reconstruct record objects on
        demand (``repro.audit.storage``).
        """
        body = json.loads(canonical)
        return cls(
            seq=body["seq"],
            timestamp=body["timestamp"],
            kind=RecordKind(body["kind"]),
            actor=body["actor"],
            subject=body.get("subject", ""),
            detail=body.get("detail") or {},
            source_context=_context_from_dict(body.get("source_context")),
            target_context=_context_from_dict(body.get("target_context")),
        )


_SLOT_SETTERS = tuple(
    AuditRecord.__dict__[f.name].__set__ for f in fields(AuditRecord)
)


def record_tags(record: AuditRecord) -> Set[str]:
    """Every qualified tag carried by the record's contexts.

    The tag vocabulary the audit-query plane indexes sealed segments by
    ("every flow that touched ``medical:ann``").
    """
    tags: Set[str] = set()
    for ctx in (record.source_context, record.target_context):
        if ctx is not None:
            tags.update(_context_tags(ctx))
    return tags


def record_matches(
    record: AuditRecord,
    kind: Optional[RecordKind] = None,
    actor: Optional[str] = None,
    subject: Optional[str] = None,
    entity: Optional[str] = None,
    tag: Optional[str] = None,
    since: Optional[float] = None,
    until: Optional[float] = None,
) -> bool:
    """The one filter predicate every audit sink's ``query()`` applies.

    ``entity`` matches actor *or* subject; ``tag`` is a qualified
    ``"namespace:name"`` string matched against either context.  Both
    tiered (index-probing) and flat (full-scan) query paths funnel
    through this predicate, which is what makes their results
    comparable record-for-record.
    """
    if kind is not None and record.kind != kind:
        return False
    if actor is not None and record.actor != actor:
        return False
    if subject is not None and record.subject != subject:
        return False
    if entity is not None and record.actor != entity and record.subject != entity:
        return False
    if since is not None and record.timestamp < since:
        return False
    if until is not None and record.timestamp > until:
        return False
    if tag is not None and tag not in record_tags(record):
        return False
    return True
