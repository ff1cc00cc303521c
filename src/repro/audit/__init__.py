"""Audit, provenance and compliance (§8.3, Challenge 6, Fig. 11)."""

from repro.audit.records import (
    AuditRecord,
    RecordKind,
    decode_export,
    record_matches,
    record_tags,
)
from repro.audit.log import AuditLog, RecorderMixin
from repro.audit.storage import (
    GENESIS_DIGEST,
    SealedSegment,
    SegmentIndex,
    SegmentStore,
    load_spill,
)
from repro.audit.spine import (
    AuditSegment,
    AuditSpine,
    SpineEmitter,
    bind_source,
)
from repro.audit.sink import AuditSink
from repro.audit.query import AuditQuery, QueryStats
from repro.audit.verify import VerifyStats
from repro.audit.provenance import (
    EdgeKind,
    NodeKind,
    ProvenanceGraph,
    ProvenanceQueryResult,
    graph_from_log,
)
from repro.audit.compliance import (
    ComplianceAuditor,
    ComplianceReport,
    Finding,
    all_accesses_consented,
    declassification_precedes_flows,
    denial_rate_below,
    no_flows_to,
)
from repro.audit.visualise import (
    to_dot,
    to_text_tree,
)
from repro.audit.distributed import (
    AuditCollector,
    AuditGap,
    CheckpointClaim,
    FederationPinboard,
    OffloadReceipt,
    PinConflict,
)

__all__ = [
    "AuditRecord",
    "RecordKind",
    "record_matches",
    "record_tags",
    "decode_export",
    "load_spill",
    "GENESIS_DIGEST",
    "AuditLog",
    "RecorderMixin",
    "AuditSegment",
    "AuditSink",
    "AuditSpine",
    "AuditQuery",
    "QueryStats",
    "VerifyStats",
    "SealedSegment",
    "SegmentIndex",
    "SegmentStore",
    "SpineEmitter",
    "bind_source",
    "EdgeKind",
    "NodeKind",
    "ProvenanceGraph",
    "ProvenanceQueryResult",
    "graph_from_log",
    "ComplianceAuditor",
    "ComplianceReport",
    "Finding",
    "all_accesses_consented",
    "declassification_precedes_flows",
    "denial_rate_below",
    "no_flows_to",
    "AuditCollector",
    "AuditGap",
    "CheckpointClaim",
    "FederationPinboard",
    "OffloadReceipt",
    "PinConflict",
    "to_dot",
    "to_text_tree",
]
