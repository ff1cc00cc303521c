"""Decentralised Information Flow Control (IFC) — the paper's §6 model.

Public API::

    from repro.ifc import (
        Tag, TagRegistry, Label, SecurityContext,
        can_flow, flow_decision, flow_decision_masks, check_flow,
        FlowDecision, DecisionPlane, TagInterner,
        PrivilegeSet, PrivilegeAuthority,
        Entity, ActiveEntity, PassiveEntity,
        Gateway, Endorser, Declassifier, plan_gateway_chain,
        dominates, join, meet,
    )

Reachability analysis and label-creep diagnostics (the old ``FlowGraph``
/ ``analyse_creep``) live in the analysis plane now: ``repro.analysis``
compiles whole deployments into a typed flow graph and answers
reachability, diff and gate queries over it.
"""

from repro.ifc.tags import (
    DEFAULT_NAMESPACE,
    Tag,
    TagRecord,
    TagRegistry,
    as_tag,
    as_tags,
)
from repro.ifc.labels import Label, SecurityContext, as_label
from repro.ifc.flow import (
    FlowDecision,
    can_flow,
    check_flow,
    flow_decision,
    flow_decision_masks,
    flow_path_allowed,
)
from repro.ifc.interner import TagInterner, global_interner
from repro.ifc.wire import (
    HandshakeAck,
    HandshakeFin,
    HandshakeHello,
    MaskTranslator,
    TableAck,
    TableUpdate,
    TagBlock,
    TagTable,
    WireCodec,
    WireControl,
    control_wire_size,
    raw_table_size,
)
from repro.ifc.decisions import DecisionPlane
from repro.ifc.privileges import (
    Delegation,
    PrivilegeAuthority,
    PrivilegeSet,
)
from repro.ifc.entities import (
    ActiveEntity,
    Entity,
    PassiveEntity,
)
from repro.ifc.gateways import (
    Declassifier,
    Endorser,
    Gateway,
    GatewayResult,
    embargo_guard,
    plan_gateway_chain,
)
from repro.ifc.naming import (
    CachingResolver,
    SignedRecord,
    TagAuthority,
)
from repro.ifc.ontology import (
    TagOntology,
    semantic_can_flow,
)
from repro.ifc.translation import (
    TagMapper,
    UnmappedPolicy,
)
from repro.ifc.lattice import (
    dominates,
    is_comparable,
    join,
    join_all,
    meet,
)

__all__ = [
    "DEFAULT_NAMESPACE",
    "Tag",
    "TagRecord",
    "TagRegistry",
    "as_tag",
    "as_tags",
    "Label",
    "SecurityContext",
    "as_label",
    "FlowDecision",
    "DecisionPlane",
    "TagInterner",
    "global_interner",
    "TagBlock",
    "TagTable",
    "control_wire_size",
    "raw_table_size",
    "MaskTranslator",
    "WireCodec",
    "WireControl",
    "HandshakeHello",
    "HandshakeAck",
    "HandshakeFin",
    "TableUpdate",
    "TableAck",
    "can_flow",
    "check_flow",
    "flow_decision",
    "flow_decision_masks",
    "flow_path_allowed",
    "Delegation",
    "PrivilegeAuthority",
    "PrivilegeSet",
    "ActiveEntity",
    "Entity",
    "PassiveEntity",
    "Declassifier",
    "Endorser",
    "Gateway",
    "GatewayResult",
    "plan_gateway_chain",
    "embargo_guard",
    "CachingResolver",
    "SignedRecord",
    "TagAuthority",
    "TagOntology",
    "semantic_can_flow",
    "TagMapper",
    "UnmappedPolicy",
    "dominates",
    "is_comparable",
    "join",
    "join_all",
    "meet",
]
