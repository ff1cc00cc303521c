"""Reference flow rule: the seed's ``flow_decision`` over frozensets.

Before labels were interned bitsets, a ``Label`` held a frozenset of
tags and the §6 rule ``A → B iff S(A) ⊆ S(B) ∧ I(B) ⊆ I(A)`` was two
frozenset subset tests, with the missing tags taken as set differences.
:func:`frozenset_flow_decision` is that procedure on raw frozensets,
kept as the oracle the mask-level rule
(:func:`repro.ifc.flow.flow_decision_masks`) and every form built on it
are checked against.  The decision-plane bench times it as the seed's
hot path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet, Iterable


@dataclass(frozen=True)
class FrozensetDecision:
    allowed: bool
    secrecy_ok: bool
    integrity_ok: bool
    missing_secrecy: FrozenSet = frozenset()
    missing_integrity: FrozenSet = frozenset()

    @property
    def reason(self) -> str:
        """The seed's explanation text for the decision."""
        if self.allowed:
            return "allowed"
        parts = []
        if not self.secrecy_ok:
            parts.append(
                f"target secrecy label missing {_render(self.missing_secrecy)}"
            )
        if not self.integrity_ok:
            parts.append(
                f"source integrity label missing {_render(self.missing_integrity)}"
            )
        return "; ".join(parts)


def _render(tags: Iterable) -> str:
    """A tag set as the seed's ``Label`` printed it (sorted, qualified)."""
    return "{" + ", ".join(t.qualified for t in sorted(tags)) + "}"


def frozenset_flow_decision(src_s, src_i, dst_s, dst_i) -> FrozensetDecision:
    """The seed's flow_decision over raw frozensets (its Label stored a
    frozenset field, so this is the same work per call)."""
    secrecy_ok = src_s <= dst_s
    integrity_ok = dst_i <= src_i
    if secrecy_ok and integrity_ok:
        return FrozensetDecision(True, True, True)
    return FrozensetDecision(
        False, secrecy_ok, integrity_ok,
        frozenset() if secrecy_ok else src_s - dst_s,
        frozenset() if integrity_ok else dst_i - src_i,
    )
