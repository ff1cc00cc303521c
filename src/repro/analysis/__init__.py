"""The static information-flow analysis plane (``docs/analysis_plane.md``).

Compile declared policy — a deployment (live or spec), its gateways,
privilege grants, ECA rules and legal obligations — into a typed
:class:`FlowGraph`; answer reachability and declassifier-chain queries
over it; diff two graphs to see exactly which flows a policy change
admits; and gate deploys on :class:`Forbid`/:class:`Require` assertions.

Public API::

    from repro.analysis import (
        FlowGraph, FlowNode, FlowEdge, FlowDiff, NodeKind,
        compile, compile_deployment, compile_spec,
        FlowQuery, AnalysisStats, CreepReport, analyse_creep,
        FlowAssertion, Forbid, Require, Finding, AnalysisReport,
        run_gate, assertions_from_obligations,
    )

Construction discipline: only this package constructs ``FlowGraph``
objects (enforced by a lint test); everything else goes through
:func:`compile` or ``Deployment.analysis_graph()``.
"""

from repro.analysis.compiler import (
    compile,
    compile_deployment,
    compile_spec,
)
from repro.analysis.gate import (
    VERDICT_FORBIDDEN,
    VERDICT_MISSING,
    VERDICT_OK,
    VERDICT_UNRESOLVED,
    AnalysisReport,
    Finding,
    FlowAssertion,
    Forbid,
    Require,
    assertions_from_obligations,
    run_gate,
)
from repro.analysis.graph import (
    VIA_ADOPTS,
    VIA_CARRIES,
    VIA_DELEGATES,
    VIA_FLOW_RULE,
    VIA_HOSTS,
    VIA_OPERATES,
    VIA_PRIVILEGE,
    VIA_RUNS,
    FlowDiff,
    FlowEdge,
    FlowGraph,
    FlowNode,
    NodeKind,
)
from repro.analysis.queries import (
    AnalysisStats,
    CreepReport,
    FlowQuery,
    analyse_creep,
)

__all__ = [
    "AnalysisReport",
    "AnalysisStats",
    "CreepReport",
    "Finding",
    "FlowAssertion",
    "FlowDiff",
    "FlowEdge",
    "FlowGraph",
    "FlowNode",
    "FlowQuery",
    "Forbid",
    "NodeKind",
    "Require",
    "VERDICT_FORBIDDEN",
    "VERDICT_MISSING",
    "VERDICT_OK",
    "VERDICT_UNRESOLVED",
    "VIA_ADOPTS",
    "VIA_CARRIES",
    "VIA_DELEGATES",
    "VIA_FLOW_RULE",
    "VIA_HOSTS",
    "VIA_OPERATES",
    "VIA_PRIVILEGE",
    "VIA_RUNS",
    "analyse_creep",
    "assertions_from_obligations",
    "compile",
    "compile_deployment",
    "compile_spec",
    "run_gate",
]
