"""Analysis plane at federation scale (docs/analysis_plane.md).

A 16-node federated world (ANALYSIS_BENCH_NODES overrides; CI smoke
runs set it lower) with per-zone sensors, relays and kiosks, a per-zone
declassifier each, and one seeded two-hop declassifier chain from the
patient feed in d0 to the offshore archive in d15.  Measured: compile
wall time and graph size, query-engine throughput over the all-pairs
reachability sweep, and the pre-deploy gate catching the seeded
forbidden flow (with the chain as evidence).  Functional gates always
assert; a machine-readable summary goes to ``BENCH_analysis.json``.
"""

import json
import os
import time
from pathlib import Path

import pytest

from repro.analysis import Forbid, FlowQuery, compile_deployment
from repro.deploy import Deployment
from repro.ifc import Declassifier, PrivilegeSet, SecurityContext
from repro.middleware.component import Component

_SUMMARY = Path(__file__).resolve().parent.parent / "BENCH_analysis.json"
_results = {}
_state = {}

#: Federation size.  CI smoke runs set ANALYSIS_BENCH_NODES=8; the
#: functional asserts hold at both scales.
NODES = int(os.environ.get("ANALYSIS_BENCH_NODES", "16"))


def build_world() -> Deployment:
    deploy = Deployment(seed=42, name="analysis-bench")
    for i in range(NODES):
        node = deploy.node(f"n{i}", hostname=f"host-{i}").with_domain(
            f"d{i}"
        ).with_mesh()
        domain = node.domain
        zone = f"zone-{i}"
        domain.bus.register(Component(
            f"sensor-{i}", context=SecurityContext.of([zone], []),
        ))
        domain.bus.register(Component(
            f"relay-{i}", context=SecurityContext.of([zone], []),
        ))
        domain.bus.register(Component(
            f"kiosk-{i}", context=SecurityContext.public(),
        ))
        deploy.register_gateway(Declassifier(
            f"scrub-{i}",
            input_context=SecurityContext.of([zone], []),
            output_context=SecurityContext.public(),
            privileges=PrivilegeSet.of(remove_secrecy=[zone]),
        ))
    deploy.nodes()[0].domain.bus.register(Component(
        "patient-feed", context=SecurityContext.of(["patient"], []),
    ))
    deploy.nodes()[-1].domain.bus.register(Component(
        "offshore-archive", context=SecurityContext.public(),
    ))
    deploy.with_gateways(
        Declassifier(
            "pseudonymise",
            input_context=SecurityContext.of(["patient"], []),
            output_context=SecurityContext.of(["cohort"], []),
            privileges=PrivilegeSet.of(remove_secrecy=["patient"],
                                       add_secrecy=["cohort"]),
        ),
        Declassifier(
            "aggregate",
            input_context=SecurityContext.of(["cohort"], []),
            output_context=SecurityContext.public(),
            privileges=PrivilegeSet.of(remove_secrecy=["cohort"]),
        ),
    )
    return deploy


def test_analysis_compile(report):
    """Compile the whole federation into one flow graph."""
    deploy = build_world()
    started = time.perf_counter()
    graph = compile_deployment(deploy)
    compile_s = time.perf_counter() - started
    summary = graph.summary()
    assert summary["nodes_component"] >= NODES * 4 + 2
    assert summary["nodes_gateway"] == NODES + 2
    assert summary["flow_edges"] > summary["nodes_component"]
    _state["deploy"] = deploy
    _state["graph"] = graph
    _results["compile"] = {
        "nodes_in_federation": NODES,
        "graph_nodes": summary["nodes"],
        "graph_edges": summary["edges"],
        "flow_edges": summary["flow_edges"],
        "compile_s": round(compile_s, 4),
    }
    report.row(
        f"compile {NODES}-node federation",
        nodes=summary["nodes"],
        flow_edges=summary["flow_edges"],
        wall=f"{compile_s * 1e3:.1f}ms",
    )


def test_analysis_query_sweep(report):
    """All-pairs component reachability through the query engine."""
    graph = _state["graph"]
    query = FlowQuery(graph)
    from repro.analysis import NodeKind

    components = [n.node_id for n in graph.nodes(NodeKind.COMPONENT)]
    started = time.perf_counter()
    reachable = 0
    for src in components:
        reachable += len(query.reachable_set(src))
    sweep_s = time.perf_counter() - started
    assert query.calls == len(components)
    assert query.totals.edges_walked > 0
    # The seeded chain is statically live.
    assert query.can_flow("patient-feed", "offshore-archive")
    per_query_us = sweep_s / len(components) * 1e6
    _results["query_sweep"] = {
        "components": len(components),
        "reachable_pairs": reachable,
        "edges_walked": query.totals.edges_walked,
        "sweep_s": round(sweep_s, 4),
        "per_query_us": round(per_query_us, 1),
    }
    report.row(
        f"reachable_set x{len(components)}",
        pairs=reachable,
        edges=query.totals.edges_walked,
        per_query=f"{per_query_us:.0f}us",
    )


def test_analysis_gate_catches_seeded_chain(report):
    """The pre-deploy gate finds the forbidden two-hop declassifier
    route no runtime check ever exercised."""
    deploy = _state["deploy"]
    deploy.with_flow_assertions([Forbid("patient-feed", "offshore-archive")])
    started = time.perf_counter()
    matrix = deploy.verify()
    verify_s = time.perf_counter() - started
    finding = matrix.analysis.findings[0]
    assert not matrix.ok()
    assert finding.verdict == "forbidden-flow"
    # The seeded two-hop chain is the headline; the per-zone scrubbers
    # compose further (real, longer) routes behind it.
    assert ["pseudonymise", "aggregate"] in finding.chains
    # Runtime saw nothing: no message moved, nothing was denied.
    assert all(
        node.domain.bus.stats.denied == 0 for node in deploy.nodes()
    )
    _results["gate"] = {
        "verdict": finding.verdict,
        "chain": finding.chains[0],
        "chains_found": len(finding.chains),
        "path_hops": len(finding.path),
        "runtime_denials": 0,
        "verify_s": round(verify_s, 4),
        "analysis_rollup": deploy.stats()["analysis"],
    }
    report.row(
        "gate catch",
        verdict=finding.verdict,
        chain="/".join(finding.chains[0]),
        wall=f"{verify_s * 1e3:.1f}ms",
    )


def test_analysis_write_summary(report, write_summary):
    """Runs last among the analysis benches: persist BENCH_analysis.json."""
    _state.clear()
    if not _results:
        pytest.skip("no analysis benches ran in this session (deselected)")
    _results["config"] = {"nodes": NODES}
    written = write_summary(_SUMMARY, _results)
    report.row("summary", path=_SUMMARY.name, written=written,
               entries=len(_results))
