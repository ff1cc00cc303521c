"""The IFC flow rule — the single decision procedure behind every PEP.

The paper states the constraint applied on every data flow from entity A
to entity B (§6)::

    A -> B  iff  S(A) ⊆ S(B)  ∧  I(B) ⊆ I(A)

Secrecy may only accumulate along a flow (Bell-LaPadula "no read up /
no write down" in its decentralised form) and integrity may only erode
(Biba).  A design decision recorded in DESIGN.md: this module is *pure* —
no entity objects, no I/O — so the identical logic backs the simulated
kernel's LSM hooks, middleware channel establishment, and message-level
attribute quenching.  Enforcement sites call :func:`check_flow` /
:func:`flow_decision` (or :func:`flow_decision_masks` on raw bitsets)
and record the returned decision in their audit log.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.errors import FlowError
from repro.ifc.interner import TagInterner, global_interner
from repro.ifc.labels import Label, SecurityContext


@dataclass(frozen=True)
class FlowDecision:
    """The outcome of evaluating the flow rule for one attempted flow.

    Carries enough detail for audit (Concern 3: "to demonstrate that
    policies have been respected it is necessary to record and audit the
    flow of data") and for diagnostics: which half of the conjunction
    failed and which tags were missing.

    Attributes:
        allowed: whether the flow may proceed.
        secrecy_ok: whether ``S(A) ⊆ S(B)`` held.
        integrity_ok: whether ``I(B) ⊆ I(A)`` held.
        missing_secrecy: tags in S(A) that the target lacks.
        missing_integrity: tags in I(B) that the source lacks.
    """

    allowed: bool
    secrecy_ok: bool
    integrity_ok: bool
    missing_secrecy: Label = field(default_factory=Label.empty)
    missing_integrity: Label = field(default_factory=Label.empty)

    @property
    def reason(self) -> str:
        """Human-readable explanation, suitable for logs and errors."""
        if self.allowed:
            return "allowed"
        parts: List[str] = []
        if not self.secrecy_ok:
            parts.append(f"target secrecy label missing {self.missing_secrecy}")
        if not self.integrity_ok:
            parts.append(f"source integrity label missing {self.missing_integrity}")
        return "; ".join(parts)


def can_flow(source: SecurityContext, target: SecurityContext) -> bool:
    """Fast boolean form of the flow rule: ``S(A) ⊆ S(B) ∧ I(B) ⊆ I(A)``.

    This is the hot path used by benchmarks; :func:`flow_decision` is the
    explanatory form used where the outcome must be audited.  Labels are
    interned bitsets, so both subset tests are single integer AND/NOT ops.
    """
    return (
        not (source.secrecy._mask & ~target.secrecy._mask)
        and not (target.integrity._mask & ~source.integrity._mask)
    )


def flow_decision_masks(
    src_secrecy: int,
    src_integrity: int,
    dst_secrecy: int,
    dst_integrity: int,
    interner: Optional[TagInterner] = None,
) -> FlowDecision:
    """The flow rule over raw label bitsets, explaining any denial.

    This is the one implementation every enforcement point runs:
    :func:`flow_decision` and :class:`~repro.ifc.decisions.DecisionPlane`
    pass their contexts' masks, and a cross-vocabulary caller first
    remaps the foreign masks through a
    :class:`~repro.ifc.wire.MaskTranslator`.  ``interner`` names the
    vocabulary the masks are numbered in, so denial labels name the real
    tags; it defaults to the process-global one.

    Both halves of the conjunction are always evaluated — the paper's
    Fig. 4 caption notes Zeb's flow to Ann's analyser fails *both* the
    secrecy and the integrity check, and audit logs should say so.
    """
    missing_s = src_secrecy & ~dst_secrecy
    missing_i = dst_integrity & ~src_integrity
    if not missing_s and not missing_i:
        return _ALLOWED
    return FlowDecision(
        False,
        not missing_s,
        not missing_i,
        _label_in(interner, missing_s),
        _label_in(interner, missing_i),
    )


def _label_in(interner: Optional[TagInterner], mask: int) -> Label:
    """A :class:`Label` naming ``mask``'s tags in ``interner``'s vocabulary.

    For the process-global interner the mask is wrapped directly; for a
    private interner the tags are named and re-interned so the label
    renders correctly in diagnostics regardless of numbering.
    """
    if not mask:
        return Label.empty()
    if interner is None or interner is global_interner():
        return Label.from_mask(mask)
    return Label(t.qualified for t in interner.tags_of(mask))


def flow_decision(source: SecurityContext, target: SecurityContext) -> FlowDecision:
    """Evaluate the flow rule on two contexts and explain the outcome
    (:func:`flow_decision_masks` on their labels' bitsets)."""
    return flow_decision_masks(
        source.secrecy._mask,
        source.integrity._mask,
        target.secrecy._mask,
        target.integrity._mask,
    )


# The allowed decision carries no context-specific detail, so the common
# case of the hot path shares one immutable instance instead of allocating.
_ALLOWED = FlowDecision(True, True, True)


def check_flow(
    source: SecurityContext,
    target: SecurityContext,
    source_name: str = "source",
    target_name: str = "target",
) -> FlowDecision:
    """Evaluate the flow rule and raise :class:`FlowError` on denial.

    Returns the (allowed) decision on success so callers can audit it.
    """
    decision = flow_decision(source, target)
    if not decision.allowed:
        raise FlowError(source_name, target_name, decision.reason)
    return decision


def flow_path_allowed(
    contexts: List[SecurityContext],
) -> Tuple[bool, Optional[int]]:
    """Check an entire processing chain (Fig. 2) hop by hop.

    Returns ``(True, None)`` when data may traverse the whole chain, or
    ``(False, i)`` where ``i`` is the index of the first hop
    ``contexts[i] -> contexts[i+1]`` that the flow rule denies.  Useful
    for chain planning: the middleware can determine, before wiring a
    composition, whether declassifiers/endorsers must be interposed (§8.1).
    """
    for i in range(len(contexts) - 1):
        if not can_flow(contexts[i], contexts[i + 1]):
            return False, i
    return True, None
