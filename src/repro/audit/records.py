"""Audit record types.

§1.2: "Once IFC is deployed, audit can easily be supported since a record
can potentially be made of every attempted data transfer or access."
Records capture flows (allowed *and* denied), context changes
(declassification/endorsement), privilege delegations, reconfigurations
(Fig. 8) and policy firings — everything Fig. 1's feedback loop needs to
"verify & influence" policy.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from enum import Enum
from functools import lru_cache
from math import isfinite
from types import SimpleNamespace
from typing import (
    Any, Dict, FrozenSet, Iterable, List, Optional, Set, Tuple,
)

from repro.errors import IntegrityViolation, TagError
from repro.ifc.labels import Label, SecurityContext
from repro.ifc.tags import Tag


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


#: Value → member, for decoding: one dict hit, where ``RecordKind(v)``
#: runs the Enum constructor.
_KINDS: Dict[str, RecordKind] = {kind.value: kind for kind in RecordKind}


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


#: The context table: reference (sha256 hex of a context's JSON) → that
#: JSON.  Canonical records name their contexts by reference, and every
#: entry authenticates itself (its key is its own digest), so one table
#: serves every store in the process: :func:`_context_ref` fills it as
#: records are serialised, :func:`register_contexts` from spill headers
#: and exports.  Like the tag interner it only grows, by one entry per
#: distinct context.
_CONTEXTS: Dict[str, str] = {}


@lru_cache(maxsize=1024)
def _context_ref(secrecy: int, integrity: int) -> str:
    """The JSON string literal a canonical record names a context by.

    Keyed by a context's two interned masks, not by the context: equal
    contexts arrive as distinct objects, and two int keys skip the
    frozen dataclass's Python __hash__/__eq__.  The interner only
    appends, so a mask names one tag set for the life of the process.
    The reference itself is taken over qualified tag names, never
    masks, so every process and domain names a context alike.
    """
    text = _encode({
        name: sorted(t.qualified for t in Label.from_mask(mask).tags)
        for name, mask in (("secrecy", secrecy), ("integrity", integrity))
    })
    ref = hashlib.sha256(text.encode()).hexdigest()
    _CONTEXTS[ref] = text
    return '"%s"' % ref


#: Stands in for a missing context in a shape key: its masks are None.
_NO_CONTEXT = SimpleNamespace(
    secrecy=SimpleNamespace(_mask=None), integrity=SimpleNamespace(_mask=None)
)

#: A record's *frame*: the three fixed pieces of its canonical string
#: around the detail, the seq and the timestamp —
#: ``{"actor":…,"detail":``, ``,"kind":…,"seq":`` and
#: ``,"source_context":…,"subject":…,"target_context":…,"timestamp":``.
Frame = Tuple[str, str, str]

#: Shape key → frame.  A shape is what a frame is built from: kind,
#: actor, subject and both contexts' masks.  Keyed by plain values, so
#: equal contexts built apart share a frame; sound for the reason
#: :func:`_context_ref` is (the interner only appends, so a mask names
#: one tag set for the life of the process).  Emptied whenever it
#: reaches :data:`_FRAME_LIMIT`; a frame is only a cache of its shape's
#: text, so that changes no byte.
_FRAMES: Dict[Tuple, Frame] = {}
_FRAME_LIMIT = 4096


def frame_of(record: "AuditRecord") -> Frame:
    """The record's frame, built on its shape's first use."""
    # A context is never falsy: ``or`` picks the stand-in for None.
    src = record.source_context or _NO_CONTEXT
    tgt = record.target_context or _NO_CONTEXT
    key = (
        record.kind._value_, record.actor, record.subject,
        src.secrecy._mask, src.integrity._mask,
        tgt.secrecy._mask, tgt.integrity._mask,
    )
    frame = _FRAMES.get(key)
    if frame is None:
        if len(_FRAMES) >= _FRAME_LIMIT:
            _FRAMES.clear()
        frame = _FRAMES[key] = _build_frame(key)
    return frame


def _build_frame(key: Tuple) -> Frame:
    kind, actor, subject, src_s, src_i, tgt_s, tgt_i = key
    return (
        '{"actor":%s,"detail":' % json.dumps(actor),
        ',"kind":%s,"seq":' % json.dumps(kind),
        ',"source_context":%s,"subject":%s,"target_context":%s,'
        '"timestamp":' % (
            "null" if src_s is None else _context_ref(src_s, src_i),
            json.dumps(subject),
            "null" if tgt_s is None else _context_ref(tgt_s, tgt_i),
        ),
    )


#: Outside table entries refused so far: hash-valid, but named by no
#: record being decoded, or no security context (:func:`context_stats`).
_TABLE_STATS = {"refused": 0}

#: The keys a canonical record names its contexts under.  Only numbers
#: and JSON strings (no bare ``"``) follow them, so each key's last
#: occurrence is the record's own, not one inside ``detail``.
_REF_KEYS = ('"source_context":', '"target_context":')


def named_contexts(canonicals: Iterable[str]) -> Set[str]:
    """The context references the canonical records name, read from
    their fixed places without decoding a record."""
    named: Set[str] = set()
    for canonical in canonicals:
        if canonical.__class__ is not str:
            continue
        for key in _REF_KEYS:
            at = canonical.rfind(key) + len(key)
            if at >= len(key) and canonical[at:at + 1] == '"':
                named.add(canonical[at + 1:at + 65])
    return named


def _is_context(text: str) -> bool:
    """Whether ``text`` is a context's JSON exactly as
    :func:`_context_ref` writes it (checked without interning a tag)."""
    try:
        body = json.loads(text)
        return (
            body.keys() == {"secrecy", "integrity"}
            and all(
                names == sorted({Tag.parse(name).qualified for name in names})
                for names in body.values()
            )
            and _encode(body) == text
        )
    except (ValueError, TypeError, AttributeError, TagError, RecursionError):
        return False


def register_contexts(entries: Any, named: Set[str]) -> None:
    """Admit the entries of an outside table (a spill header, an
    export: reference → context JSON) that the records being decoded
    name (``named``, from :func:`named_contexts`).

    Raises :class:`IntegrityViolation` unless every entry's sha256 is
    its key, so a doctored entry can never name a context.  A
    hash-valid entry no record names, or that is no security context,
    is refused and counted (:func:`context_stats`).
    """
    if entries.__class__ is not dict:
        raise IntegrityViolation("context table is not a mapping")
    for ref, text in entries.items():
        if _CONTEXTS.get(ref) == text:
            continue  # already held, hence already authenticated
        try:
            authentic = hashlib.sha256(text.encode()).hexdigest() == ref
        except (AttributeError, UnicodeEncodeError):
            authentic = False
        if not authentic:
            raise IntegrityViolation(
                f"context table entry {str(ref)[:16]!r}... does not hash "
                f"to its key"
            )
        if ref in named and _is_context(text):
            _CONTEXTS[ref] = text
        else:
            _TABLE_STATS["refused"] += 1


def context_stats() -> Dict[str, int]:
    """The process's context table: entries held, outside entries
    refused."""
    return {"entries": len(_CONTEXTS), "refused": _TABLE_STATS["refused"]}


def _context_of_ref(ref: Any) -> Optional[SecurityContext]:
    if ref is None:
        return None
    if ref.__class__ is not str:
        # Format 1 wrote the context JSON inline; it is no reference.
        raise IntegrityViolation(
            f"context reference {str(ref)[:40]!r} is not a digest"
        )
    return _resolve(ref)


@lru_cache(maxsize=1024)
def _resolve(ref: str) -> SecurityContext:
    # Cold records repeat a handful of contexts (a ward's 256-tag stats
    # context among them): parse and intern each distinct one once.
    # Contexts are immutable, so equal cold records may share one.  An
    # unknown reference raises, and a raise is not memoised.
    text = _CONTEXTS.get(ref)
    if text is None:
        raise IntegrityViolation(f"unknown context reference {ref[:64]!r}")
    try:
        body = json.loads(text)
        return SecurityContext.of(
            tuple(body["secrecy"]), tuple(body["integrity"])
        )
    except (ValueError, KeyError, TypeError, AttributeError,
            TagError) as exc:
        raise IntegrityViolation(
            f"context {ref[:16]!r}... is not a security context ({exc})"
        ) from exc


def ship_contexts(entries: List[Dict]) -> List[Dict]:
    """Give each export entry that is the first to name a context a
    ``"contexts"`` map of those table entries, so the export decodes
    with no other table (:func:`decode_export`); returns ``entries``."""
    shipped: Set[str] = set()
    for entry in entries:
        body = json.loads(entry["record"])
        new = {}
        for ref in (body["source_context"], body["target_context"]):
            if ref.__class__ is str and ref not in shipped and ref in _CONTEXTS:
                new[ref] = _CONTEXTS[ref]
        if new:
            shipped.update(new)
            entry["contexts"] = new
    return entries


def decode_export(entries: Iterable[Dict]) -> List["AuditRecord"]:
    """Records out of an ``export()``, decoded through the context
    entries it ships; raises :class:`IntegrityViolation` for a doctored
    entry or a reference the export does not resolve."""
    entries = list(entries)
    named = named_contexts(e["record"] for e in entries)
    for entry in entries:
        register_contexts(entry.get("contexts", {}), named)
    return [AuditRecord.from_canonical(e["record"]) for e in entries]


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

    def canonical(self, frame: Optional[Frame] = None) -> str:
        """Deterministic JSON serialisation used for hash chaining.

        Byte-identical to ``json.dumps(body, sort_keys=True,
        separators=(",", ":"))`` over the same eight keys, as
        ``test_canonical_properties`` pins, with each context written as
        its reference, the quoted sha256 hex of the context's own JSON
        (:func:`_context_ref`), so the chain covers the reference and
        the context table holds the JSON once.

        Six of the eight fields repeat from record to record, so they
        come from the record's *frame* (:func:`frame_of`, built once per
        shape); ``frame`` passes one the caller already fetched.  Only
        the detail, the seq and the timestamp (a finite float by
        ``float.__repr__``, as ``json`` writes it) are rendered here,
        and one ``"".join`` allocates the string at its exact size.
        """
        head, middle, tail = frame or frame_of(self)
        detail = self.detail
        ts = self.timestamp
        return "".join((
            head,
            _encode(detail) if detail else "{}",
            middle,
            "%d" % self.seq,
            tail,
            repr(ts) if ts.__class__ is float and isfinite(ts)
            else json.dumps(ts),
            "}",
        ))

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
        demand (``repro.audit.storage``).  Context references resolve
        through the context table; bytes that are no record, and a
        reference the table does not hold, raise
        :class:`IntegrityViolation` — never a default context.
        """
        try:
            body = json.loads(canonical)
            return cls(
                seq=body["seq"],
                timestamp=body["timestamp"],
                kind=_KINDS[body["kind"]],
                actor=body["actor"],
                subject=body["subject"],
                detail=body["detail"] or {},
                source_context=_context_of_ref(body["source_context"]),
                target_context=_context_of_ref(body["target_context"]),
            )
        except (ValueError, KeyError, TypeError, AttributeError,
                RecursionError) as exc:
            raise IntegrityViolation(
                f"undecodable audit record ({exc})"
            ) from exc


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
