"""Labels and security contexts.

The paper associates with each entity ``A`` two labels: ``S(A)`` for
secrecy (where data may flow *to*, per Bell-LaPadula) and ``I(A)`` for
integrity (where data may flow *from*, per Biba).  A label is a set of
tags; the *security context* of an entity is the pair ``(S, I)`` (§6).

``Label`` is the frozenset-facing façade over an interned *bitset*
representation: every tag is assigned a stable bit position by the
process-wide :class:`~repro.ifc.interner.TagInterner`, and a label is a
single immutable int mask.  Subset, union, intersection and difference —
the whole algebra the flow rule needs — become integer ops, while the
``tags`` attribute, ``of``, iteration and the comparison operators keep
the original frozenset semantics byte-for-byte.  ``SecurityContext``
remains an immutable value object so that context changes are explicit,
auditable events (an entity *replaces* its context, it never mutates it
in place — this is what makes declassification visible to the audit log).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable, Iterator, Optional, Sequence

from repro.ifc.interner import global_interner, remap_mask
from repro.ifc.tags import Tag, as_tag, as_tags

_INTERNER = global_interner()


class Label:
    """An immutable set of tags forming one half of a security context.

    Internally a bitset (``mask``); externally a frozenset of
    :class:`~repro.ifc.tags.Tag`.  The frozenset view is materialised
    lazily and cached, as is ``hash()`` — repeated context hashing on the
    enforcement hot path costs one attribute load, not a frozenset walk.

    >>> Label.of("medical", "ann") <= Label.of("medical", "ann", "zeb")
    True
    """

    __slots__ = ("_mask", "_tags", "_hash")

    def __init__(self, tags: "Iterable[Tag | str]" = frozenset()):
        self._mask = _INTERNER.mask_of(tags) if tags else 0
        self._tags: Optional[FrozenSet[Tag]] = None
        self._hash: Optional[int] = None

    @classmethod
    def _from_mask(cls, mask: int) -> "Label":
        """Internal fast path: wrap an existing bitset without interning."""
        if not mask:
            return _EMPTY_LABEL
        label = cls.__new__(cls)
        label._mask = mask
        label._tags = None
        label._hash = None
        return label

    @classmethod
    def of(cls, *tags: "Tag | str") -> "Label":
        """Build a label from tag values or ``"ns:name"`` strings."""
        return cls._from_mask(_INTERNER.mask_of(tags)) if tags else _EMPTY_LABEL

    @classmethod
    def from_mask(cls, mask: int) -> "Label":
        """Wrap a bitset already in the *global* interner's numbering.

        Bit positions are process-local: a mask that came off the wire
        must first be remapped through the peer's translation table
        (:class:`repro.ifc.wire.MaskTranslator` /
        :meth:`from_foreign_mask`) — wrapping a foreign mask directly
        silently relabels data.
        """
        return cls._from_mask(mask)

    @classmethod
    def from_foreign_mask(cls, wire_mask: int, local_bits: "Sequence[int]") -> "Label":
        """Build a label from a peer-numbered mask plus a translation table.

        ``local_bits[i]`` is the local single-bit mask for the peer's
        bit position ``i`` (the product of a wire-plane handshake, see
        :class:`repro.ifc.wire.MaskTranslator`).  Raises
        :class:`IndexError` when the mask uses a position the table does
        not cover — an un-synced tag must never be guessed at.
        """
        return cls._from_mask(remap_mask(wire_mask, local_bits))

    @classmethod
    def empty(cls) -> "Label":
        """The empty label (no constraints for S; no endorsements for I).

        Always the same singleton object, so ``Label.empty()`` on the hot
        path allocates nothing.
        """
        return _EMPTY_LABEL

    @property
    def mask(self) -> int:
        """The label's interned bitset (one bit per tag)."""
        return self._mask

    @property
    def tags(self) -> FrozenSet[Tag]:
        """The frozenset view, materialised lazily and cached."""
        t = self._tags
        if t is None:
            t = self._tags = _INTERNER.tags_of(self._mask)
        return t

    def __iter__(self) -> Iterator[Tag]:
        return iter(sorted(self.tags))

    def __len__(self) -> int:
        return self._mask.bit_count()

    def __contains__(self, tag: "Tag | str") -> bool:
        bit = _INTERNER.bit_if_known(tag)
        return bit is not None and bool(self._mask & bit)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Label):
            return self._mask == other._mask
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if isinstance(other, Label):
            return self._mask != other._mask
        return NotImplemented

    def __hash__(self) -> int:
        h = self._hash
        if h is None:
            h = self._hash = hash((Label, self._mask))
        return h

    def __le__(self, other: "Label") -> bool:
        """Subset: every tag of self is in other."""
        return not (self._mask & ~other._mask)

    def __lt__(self, other: "Label") -> bool:
        return self._mask != other._mask and not (self._mask & ~other._mask)

    def __ge__(self, other: "Label") -> bool:
        return not (other._mask & ~self._mask)

    def __gt__(self, other: "Label") -> bool:
        return self._mask != other._mask and not (other._mask & ~self._mask)

    def is_empty(self) -> bool:
        return not self._mask

    def add(self, *tags: "Tag | str") -> "Label":
        """Return a new label with ``tags`` added."""
        return Label._from_mask(self._mask | _INTERNER.mask_of(tags))

    def remove(self, *tags: "Tag | str") -> "Label":
        """Return a new label with ``tags`` removed (missing tags ignored).

        Never-interned tags are ignored without interning them — a
        subtractive op must not grow the process-wide interner.
        """
        return Label._from_mask(self._mask & ~_INTERNER.mask_of_known(tags))

    def union(self, other: "Label") -> "Label":
        """Least upper bound of two labels (tag-set union)."""
        return Label._from_mask(self._mask | other._mask)

    def intersection(self, other: "Label") -> "Label":
        """Greatest lower bound of two labels (tag-set intersection)."""
        return Label._from_mask(self._mask & other._mask)

    def difference(self, other: "Label") -> "Label":
        """Tags in self but not in other."""
        return Label._from_mask(self._mask & ~other._mask)

    def __or__(self, other: "Label") -> "Label":
        return Label._from_mask(self._mask | other._mask)

    def __and__(self, other: "Label") -> "Label":
        return Label._from_mask(self._mask & other._mask)

    def __sub__(self, other: "Label") -> "Label":
        return Label._from_mask(self._mask & ~other._mask)

    def __reduce__(self):
        # Serialise by tag value, not by mask: bit positions are
        # process-local, so a pickled label must re-intern on load.
        return (Label, (self.tags,))

    def __str__(self) -> str:
        if not self._mask:
            return "{}"
        return "{" + ", ".join(t.qualified for t in sorted(self.tags)) + "}"

    def __repr__(self) -> str:
        return f"Label({str(self)})"


_EMPTY_LABEL = Label.__new__(Label)
_EMPTY_LABEL._mask = 0
_EMPTY_LABEL._tags = frozenset()
_EMPTY_LABEL._hash = hash((Label, 0))


def as_label(value: "Label | Iterable[Tag | str] | None") -> Label:
    """Coerce None / iterable of tags / Label into a Label."""
    if value is None:
        return _EMPTY_LABEL
    if isinstance(value, Label):
        return value
    return Label(as_tags(value))


@dataclass(frozen=True)
class SecurityContext:
    """The pair of labels ``(S, I)`` defining an entity's security state.

    "The security context of an entity is defined as the state of its two
    labels, S and I" (§6).  Contexts are immutable; label changes produce
    a *new* context, which enforcement points observe and re-evaluate
    (§8.2.2: "an entity changing its security context triggers
    re-evaluation").

    >>> ctx = SecurityContext.of(secrecy=["medical", "ann"],
    ...                          integrity=["hosp-dev", "consent"])
    >>> "local:medical" in str(ctx.secrecy)
    True
    """

    secrecy: Label = Label.empty()
    integrity: Label = Label.empty()

    @classmethod
    def of(
        cls,
        secrecy: "Label | Iterable[Tag | str] | None" = None,
        integrity: "Label | Iterable[Tag | str] | None" = None,
    ) -> "SecurityContext":
        """Build a context from tag iterables or labels."""
        return cls(as_label(secrecy), as_label(integrity))

    @classmethod
    def public(cls) -> "SecurityContext":
        """The unconstrained context: empty S (public) and empty I."""
        return cls()

    def with_secrecy(self, secrecy: "Label | Iterable[Tag | str]") -> "SecurityContext":
        """New context with a replaced secrecy label."""
        return SecurityContext(as_label(secrecy), self.integrity)

    def with_integrity(
        self, integrity: "Label | Iterable[Tag | str]"
    ) -> "SecurityContext":
        """New context with a replaced integrity label."""
        return SecurityContext(self.secrecy, as_label(integrity))

    def add_secrecy(self, *tags: "Tag | str") -> "SecurityContext":
        """New context with extra secrecy tags."""
        return SecurityContext(self.secrecy.add(*tags), self.integrity)

    def remove_secrecy(self, *tags: "Tag | str") -> "SecurityContext":
        """New context with secrecy tags removed."""
        return SecurityContext(self.secrecy.remove(*tags), self.integrity)

    def add_integrity(self, *tags: "Tag | str") -> "SecurityContext":
        """New context with extra integrity tags."""
        return SecurityContext(self.secrecy, self.integrity.add(*tags))

    def remove_integrity(self, *tags: "Tag | str") -> "SecurityContext":
        """New context with integrity tags removed."""
        return SecurityContext(self.secrecy, self.integrity.remove(*tags))

    def is_public(self) -> bool:
        """True when both labels are empty (no IFC constraints)."""
        return not (self.secrecy._mask | self.integrity._mask)

    def creation_context(self) -> "SecurityContext":
        """Context a created entity inherits: identical labels (§6,
        "Creation flows": created entities inherit the labels of their
        parents; privileges are *not* inherited)."""
        return SecurityContext(self.secrecy, self.integrity)

    def merge_for_read(self, other: "SecurityContext") -> "SecurityContext":
        """Context after reading data from ``other``: a conservative
        combination used by floating-label substrates — secrecy accrues
        (union), integrity erodes (intersection)."""
        return SecurityContext(
            self.secrecy | other.secrecy,
            self.integrity & other.integrity,
        )

    def __str__(self) -> str:
        return f"S={self.secrecy} I={self.integrity}"

    def __repr__(self) -> str:
        return f"SecurityContext({str(self)})"
