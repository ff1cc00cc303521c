"""The decision plane: each enforcement point's evaluate + audit view.

Every enforcement point in the system — channel establishment and
per-message re-checks on the bus, the cross-machine substrate's send and
receive sides, the AC+IFC PEP, the simulated kernel's LSM hooks, and the
labelled datastore — enforces the same §6 rule::

    A -> B  iff  S(A) ⊆ S(B)  ∧  I(B) ⊆ I(A)

Labels are interned bitsets, so the rule is two integer AND/NOT ops
(:func:`~repro.ifc.flow.flow_decision_masks`).  A :class:`DecisionPlane`
runs it directly on every call — there is no memo table: measured on
this repository's benchmarks the direct check beats a value-keyed cache
on the allow path, and every denial is explained afresh because the
enforcing site audits ``decision.reason`` anyway (``docs/decision_plane.md``).
What the plane adds is **audit emission**: it forwards flow outcomes to
its site's audit sink.

Evaluations across tag vocabularies (a peer's or another process's
numbering) remap the foreign masks through the wire plane's
:class:`~repro.ifc.wire.MaskTranslator` and then call
:func:`~repro.ifc.flow.flow_decision_masks` with the local interner.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.ifc.flow import (
    FlowDecision,
    can_flow,
    check_flow,
    flow_decision_masks,
)
from repro.ifc.labels import SecurityContext

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (audit ↔ ifc)
    from repro.audit.log import AuditLog


class DecisionPlane:
    """The decision + audit-emission core behind every PEP.

    One plane per enforcement site (a bus, a substrate, a kernel module,
    a PEP, a datastore), carrying that site's audit log.
    """

    def __init__(self, audit: "Optional[AuditLog]" = None):
        self.audit = audit

    # -- evaluation --------------------------------------------------------

    def evaluate(self, source: SecurityContext, target: SecurityContext) -> FlowDecision:
        """The flow rule with its explanation; no audit emission."""
        return flow_decision_masks(
            source.secrecy._mask,
            source.integrity._mask,
            target.secrecy._mask,
            target.integrity._mask,
        )

    def allows(self, source: SecurityContext, target: SecurityContext) -> bool:
        """Boolean form of :meth:`evaluate`."""
        return can_flow(source, target)

    def check(
        self,
        source: SecurityContext,
        target: SecurityContext,
        source_name: str = "source",
        target_name: str = "target",
    ) -> FlowDecision:
        """The flow rule, raising :class:`FlowError` on denial."""
        return check_flow(source, target, source_name, target_name)

    # -- audit emission ----------------------------------------------------

    def audit_allowed(
        self,
        actor: str,
        subject: str,
        source: Optional[SecurityContext] = None,
        target: Optional[SecurityContext] = None,
        detail: Optional[dict] = None,
    ) -> None:
        """Record a permitted flow (no-op when the plane has no log)."""
        if self.audit is not None:
            self.audit.flow_allowed(actor, subject, source, target, detail)

    def audit_denied(
        self,
        actor: str,
        subject: str,
        reason: str,
        source: Optional[SecurityContext] = None,
        target: Optional[SecurityContext] = None,
    ) -> None:
        """Record a denied flow (no-op when the plane has no log)."""
        if self.audit is not None:
            self.audit.flow_denied(actor, subject, reason, source, target)
