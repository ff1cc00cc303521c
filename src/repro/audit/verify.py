"""The verification plane's accounting surface (``docs/audit_storage.md``).

Verification used to be an all-or-nothing recompute; with watermark
cursors it has *shape* — how many segments were
re-verified versus skipped, how many bytes were re-hashed, how long the
wall clock ran, how many watermarks were honoured or dropped.  Every
``verify_strict`` call fills one :class:`VerifyStats`; spines keep the
last one plus cumulative totals (:meth:`~repro.audit.spine.AuditSpine.
verify_stats`), and ``Deployment.stats()["verify"]`` rolls them up
fleet-wide.

This lives in its own module because both ends of the audit plane need
it: :mod:`repro.audit.storage` (which ``log`` must not import) and
:mod:`repro.audit.log` (which ``storage`` imports for the chain
primitive).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict

__all__ = ["VerifyStats"]


@dataclass
class VerifyStats:
    """Per-verification accounting of how much chain was recomputed.

    Attributes:
        mode: ``"incremental"`` or ``"deep"`` (see the verification-modes
            section of ``docs/audit_storage.md``).
        wall_s: wall-clock seconds the verification took.
        segments_total: chunks (sealed segments + open tails) examined.
        segments_verified: chunks whose chain was actually recomputed.
        segments_skipped: chunks skipped on a valid watermark.
        cold_verified: cold (spilled) segments replayed from disk.
        records_verified: records whose chain step was recomputed.
        bytes_hashed: digest-material bytes re-hashed (canonical record
            bytes + chain digests; a sealed image adds its header).
        watermark_hits: valid watermarks honoured (== segments_skipped
            for store-level verification).
        watermark_invalidations: watermarks found stale this pass (anchor
            or file-stat mismatch) and therefore re-verified in full.
        checkpoints_total: retained checkpoint records considered.
        checkpoints_verified: checkpoint bindings re-walked this pass.
        checkpoints_skipped: checkpoint bindings covered by the
            checkpoint-binding watermark and skipped.
    """

    mode: str = "incremental"
    wall_s: float = 0.0
    segments_total: int = 0
    segments_verified: int = 0
    segments_skipped: int = 0
    cold_verified: int = 0
    records_verified: int = 0
    bytes_hashed: int = 0
    watermark_hits: int = 0
    watermark_invalidations: int = 0
    checkpoints_total: int = 0
    checkpoints_verified: int = 0
    checkpoints_skipped: int = 0

    def to_dict(self) -> Dict:
        return asdict(self)
