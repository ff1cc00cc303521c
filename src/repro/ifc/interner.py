"""Process-wide tag interning: tags become bit positions.

The flow rule (§6) is pure set algebra over small tag sets, and the
scale benchmarks show the frozenset machinery — per-element hashing on
every subset/union/difference — dominating the enforcement hot path.
The :class:`TagInterner` assigns each distinct :class:`~repro.ifc.tags.Tag`
a stable bit position the first time it is seen, so a label can be
represented as a single immutable Python int ("bitset") and the flow
rule collapses to two integer AND/NOT tests.

The interner is append-only: positions are never reused or reassigned,
which is what makes bitset equality equivalent to tag-set equality for
the lifetime of the process.  Python ints are arbitrary-precision, so
there is no cap on the number of distinct tags; a deployment with 10k
tags simply works with 10k-bit masks.

A single process-wide instance (:func:`global_interner`) backs
:class:`~repro.ifc.labels.Label`.  Tests that need a pristine mapping
may instantiate their own interner, but labels always use the global
one — sharing is precisely what makes cross-label integer ops sound.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Iterable, List, Optional, Sequence, Tuple

from repro.ifc.tags import Tag, as_tag


def remap_mask(wire_mask: int, local_bits: "Sequence[int]") -> int:
    """Remap a foreign-numbered bitset through a position → local-bit table.

    ``local_bits[i]`` is the local single-bit mask for the foreign bit
    position ``i``.  The single implementation of the IFC-critical
    remap loop — :meth:`repro.ifc.labels.Label.from_foreign_mask` and
    :class:`repro.ifc.wire.MaskTranslator` both route through it.
    Raises :class:`IndexError` when the mask uses a position the table
    does not cover — an un-synced tag must never be guessed at.
    """
    local = 0
    while wire_mask:
        low = wire_mask & -wire_mask
        local |= local_bits[low.bit_length() - 1]
        wire_mask ^= low
    return local


class TagInterner:
    """Assigns each tag a stable bit position; converts tag sets ↔ masks."""

    __slots__ = ("_positions", "_tags", "_by_name")

    def __init__(self) -> None:
        self._positions: Dict[Tag, int] = {}
        self._tags: List[Tag] = []
        # Qualified-name → position, so string-keyed callers (wire-plane
        # table merges, which re-see the same qualified names once per
        # federation peer) skip Tag.parse and its validation regexes on
        # repeats.  Only populated through intern(), so a hit is always
        # a tag that passed validation once.
        self._by_name: Dict[str, int] = {}

    def __len__(self) -> int:
        return len(self._tags)

    def __contains__(self, tag: "Tag | str") -> bool:
        return as_tag(tag) in self._positions

    def intern(self, tag: "Tag | str") -> int:
        """Return the bit position of ``tag``, assigning one if new."""
        raw = None
        if isinstance(tag, str):
            position = self._by_name.get(tag)
            if position is not None:
                return position
            raw = tag
            t = as_tag(tag)
        else:
            t = tag
        position = self._positions.get(t)
        if position is None:
            position = len(self._tags)
            self._tags.append(t)
            self._positions[t] = position
        self._by_name.setdefault(t.qualified, position)
        if raw is not None and raw != t.qualified:
            # Un-normalised spellings ("bare" → "local:bare") hit too.
            self._by_name.setdefault(raw, position)
        return position

    def bit(self, tag: "Tag | str") -> int:
        """The single-bit mask for ``tag`` (interning it if needed)."""
        return 1 << self.intern(tag)

    def bit_if_known(self, tag: "Tag | str") -> Optional[int]:
        """The single-bit mask for ``tag``, or None if never interned.

        Membership tests use this so that probing a label for a tag the
        process has never labelled anything with does not grow the
        interner.
        """
        position = self._positions.get(as_tag(tag))
        return None if position is None else 1 << position

    def mask_of(self, tags: Iterable["Tag | str"]) -> int:
        """Fold an iterable of tags into one bitset mask."""
        positions = self._positions
        mask = 0
        for tag in tags:
            t = tag if isinstance(tag, Tag) else as_tag(tag)
            position = positions.get(t)
            if position is None:
                position = self.intern(t)
            mask |= 1 << position
        return mask

    def mask_of_known(self, tags: Iterable["Tag | str"]) -> int:
        """Fold only already-interned tags into a mask.

        Subtractive operations (``Label.remove``) use this: a tag never
        interned cannot be in any label, so removing it is a no-op that
        must not grow the append-only interner.
        """
        positions = self._positions
        mask = 0
        for tag in tags:
            position = positions.get(tag if isinstance(tag, Tag) else as_tag(tag))
            if position is not None:
                mask |= 1 << position
        return mask

    def export_table(self, start: int = 0) -> "Tuple[str, ...]":
        """Snapshot positions ``start..`` as qualified tag names.

        This is the wire plane's handshake payload (``repro.ifc.wire``):
        position ``start + i`` of this interner holds the tag named by
        element ``i``.  The interner is append-only, so the snapshot
        taken at length N is a stable prefix of every later snapshot —
        which is what lets peers exchange *deltas* after first contact.
        """
        return tuple(t.qualified for t in self._tags[start:])

    def merge_table(self, tags: Iterable[str]) -> List[int]:
        """Intern foreign tags, returning each one's local single-bit mask.

        Used by :class:`repro.ifc.wire.MaskTranslator` to build the
        peer-position → local-bit remap from a handshake table.
        """
        bit = self.bit
        return [bit(tag) for tag in tags]

    def tags_of(self, mask: int) -> FrozenSet[Tag]:
        """Expand a bitset mask back into the frozenset of its tags."""
        tags = []
        table = self._tags
        while mask:
            low = mask & -mask
            tags.append(table[low.bit_length() - 1])
            mask ^= low
        return frozenset(tags)


#: The process-wide interner backing every :class:`~repro.ifc.labels.Label`.
_GLOBAL_INTERNER = TagInterner()


def global_interner() -> TagInterner:
    """The shared interner that all labels in this process use."""
    return _GLOBAL_INTERNER
