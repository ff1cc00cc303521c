"""The pre-deploy gate: verdicts, audit evidence, and verify() wiring.

Ends with the acceptance scenario: a 16-node federated world where a
chain of two declassifiers statically admits a forbidden flow that no
runtime check has tripped over (no message was ever sent), and the gate
catches it with the chain as evidence.
"""

import pytest

from repro.analysis import (
    VERDICT_FORBIDDEN,
    VERDICT_MISSING,
    VERDICT_OK,
    VERDICT_UNRESOLVED,
    Forbid,
    Require,
    assertions_from_obligations,
    run_gate,
)
from repro.audit.records import RecordKind
from repro.deploy import Deployment, VerdictMatrix
from repro.errors import AnalysisError
from repro.ifc import Declassifier, PrivilegeSet, SecurityContext
from repro.middleware.component import Component
from repro.policy.legal import geo_fence_obligation


def disjoint_world() -> Deployment:
    """Two stores with disjoint secrecy and no bridging gateway: no
    admissible path exists between them in either direction."""
    deploy = Deployment(seed=2, name="disjoint")
    domain = deploy.node("ops").with_domain().domain
    domain.bus.register(Component(
        "medical-store", context=SecurityContext.of(["medical"], []),
    ))
    domain.bus.register(Component(
        "billing-store", context=SecurityContext.of(["finance"], []),
    ))
    return deploy


class TestVerdicts:
    def test_forbid_without_path_is_ok(self):
        report = run_gate(
            disjoint_world().analysis_graph(),
            [Forbid("medical-store", "billing-store")],
        )
        assert report.ok()
        assert report.findings[0].verdict == VERDICT_OK

    def test_forbid_with_path_fails_with_evidence(self, hospital):
        report = run_gate(
            hospital.analysis_graph(),
            [Forbid("ward-sensor", "public-dashboard")],
        )
        finding = report.findings[0]
        assert not report.ok()
        assert finding.verdict == VERDICT_FORBIDDEN
        assert finding.chains == [["anonymiser"]]
        assert finding.path == [
            "component:ward-sensor -> gateway:anonymiser via flow-rule",
            "gateway:anonymiser -> component:public-dashboard "
            "via gateway:anonymiser",
        ]
        assert "anonymiser" in finding.reason

    def test_require_present_and_missing(self):
        graph = disjoint_world().analysis_graph()
        report = run_gate(graph, [
            Require("substrate@ops", "medical-store"),
            Require("medical-store", "billing-store"),
        ])
        verdicts = [f.verdict for f in report.findings]
        assert verdicts == [VERDICT_OK, VERDICT_MISSING]
        assert len(report.violations()) == 1

    @pytest.mark.parametrize("assertion", [
        Forbid("ghost", "public-dashboard"),
        Require("ward-sensor", "ghost"),
    ], ids=["forbid", "require"])
    def test_unknown_nodes_fail_closed(self, hospital, assertion):
        report = run_gate(hospital.analysis_graph(), [assertion])
        finding = report.findings[0]
        assert finding.verdict == VERDICT_UNRESOLVED
        assert finding.violation
        assert "fail closed" in finding.reason

    def test_unknown_assertion_type_raises(self, hospital):
        class Audit(Forbid.__bases__[0]):
            pass
        with pytest.raises(AnalysisError, match="unknown assertion"):
            run_gate(hospital.analysis_graph(), [Audit("a", "b")])

    def test_report_accounting_and_text(self, hospital):
        report = run_gate(hospital.analysis_graph(), [
            Forbid("ward-sensor", "public-dashboard"),
            Require("ward-sensor", "anonymiser"),
        ])
        assert report.queries > 0
        assert report.wall_s >= 0.0
        assert report.graph_summary["nodes"] > 0
        text = report.report()
        assert "2 assertion(s), 1 violation(s)" in text
        assert "[forbidden-flow] forbid:ward-sensor->public-dashboard" in text
        assert report.rows() == {
            "forbid:ward-sensor->public-dashboard": VERDICT_FORBIDDEN,
            "require:ward-sensor->anonymiser": VERDICT_OK,
        }

    def test_obligations_derive_forbid_assertions(self):
        obligation = geo_fence_obligation(
            data_sources={"ward-sensor"},
            forbidden_sinks={"offshore", "partner"},
        )
        derived = assertions_from_obligations([obligation])
        assert sorted(a.label() for a in derived) == [
            "forbid:ward-sensor->offshore",
            "forbid:ward-sensor->partner",
        ]


class TestDeploymentWiring:
    def test_findings_land_as_analysis_audit_records(self, hospital):
        hospital.with_flow_assertions(
            [Forbid("ward-sensor", "public-dashboard")]
        )
        hospital.run_analysis_gate()
        spine = hospital.nodes()[0].machine.audit
        records = spine.records(kind=RecordKind.ANALYSIS)
        assert len(records) == 1
        record = records[0]
        assert record.actor == "analysis-gate"
        assert record.subject == "forbid:ward-sensor->public-dashboard"
        assert record.detail["verdict"] == VERDICT_FORBIDDEN
        assert record.detail["violation"] is True
        assert record.detail["chains"] == [["anonymiser"]]
        # The evidence is part of the tamper-evident chain.
        assert spine.verify()

    def test_verify_matrix_grows_an_analysis_row(self, hospital):
        hospital.with_flow_assertions([
            Forbid("ward-sensor", "public-dashboard"),
            Require("ward-sensor", "anonymiser"),
        ])
        matrix = hospital.verify()
        assert isinstance(matrix, VerdictMatrix)
        assert matrix["analysis"] == {
            "forbid:ward-sensor->public-dashboard": VERDICT_FORBIDDEN,
            "require:ward-sensor->anonymiser": VERDICT_OK,
        }
        assert matrix.analysis is not None
        assert not matrix.ok()
        # The federation rows themselves are untampered: only the
        # static gate is failing this deployment.
        assert matrix["ward-1"]["ward-1"] == "ok"

    def test_verify_without_assertions_skips_the_gate(self, hospital):
        matrix = hospital.verify()
        assert "analysis" not in matrix
        assert matrix.analysis is None
        assert matrix.ok()

    def test_verify_analysis_flag_forces_and_suppresses(self, hospital):
        forced = hospital.verify(analysis=True)
        assert forced.analysis is not None
        assert forced.analysis.findings == []
        assert forced.ok()
        hospital.with_flow_assertions(
            [Forbid("ward-sensor", "public-dashboard")]
        )
        suppressed = hospital.verify(analysis=False)
        assert suppressed.analysis is None
        assert suppressed.ok()

    def test_stats_rollup_mirrors_the_verify_plane(self, hospital):
        assert hospital.stats()["analysis"] == {
            "compiles": 0, "gates": 0, "assertions_checked": 0,
            "violations": 0, "queries": 0,
            "wall_s": 0.0,
        }
        hospital.with_flow_assertions([
            Forbid("ward-sensor", "public-dashboard"),
            Require("ward-sensor", "anonymiser"),
        ])
        hospital.verify()
        rollup = hospital.stats()["analysis"]
        assert rollup["compiles"] == 1
        assert rollup["gates"] == 1
        assert rollup["assertions_checked"] == 2
        assert rollup["violations"] == 1
        assert rollup["queries"] > 0
        assert rollup["wall_s"] >= 0.0


def federated_research_world() -> Deployment:
    """16 mesh members; domain d0 holds the patient feed, d15 the
    offshore archive, and two registered declassifiers form the only —
    and forbidden — route between them."""
    deploy = Deployment(seed=42, name="research-fed")
    for i in range(16):
        deploy.node(f"n{i}", hostname=f"host-{i}").with_domain(
            f"d{i}"
        ).with_mesh()
    deploy.nodes()[0].domain.bus.register(Component(
        "patient-feed", context=SecurityContext.of(["patient"], []),
    ))
    deploy.nodes()[15].domain.bus.register(Component(
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


class TestFederatedAcceptance:
    def test_gate_catches_what_the_running_federation_never_saw(self):
        deploy = federated_research_world()
        deploy.with_flow_assertions(
            [Forbid("patient-feed", "offshore-archive")]
        )
        # Run the federation: gossip converges, pinboards pin, every
        # runtime check passes — nobody ever published a message, so
        # enforcement had nothing to deny.
        deploy.run(hours=1)
        assert deploy.converge() >= 0
        matrix = deploy.verify()
        runtime_rows = {
            observer: verdicts
            for observer, verdicts in matrix.items()
            if observer != "analysis"
        }
        assert len(runtime_rows) == 16
        assert all(
            verdict in ("ok", "unpinned")
            for row in runtime_rows.values()
            for verdict in row.values()
        )
        for node in deploy.nodes():
            assert node.domain.bus.stats.denied == 0
        # ... and yet the deployment is not shippable: the static gate
        # finds the two-hop declassifier chain to the forbidden sink.
        assert not matrix.ok()
        finding = matrix.analysis.findings[0]
        assert finding.verdict == VERDICT_FORBIDDEN
        assert finding.chains == [["pseudonymise", "aggregate"]]
        assert len(finding.path) == 3

    def test_dropping_the_second_declassifier_closes_the_route(self):
        deploy = federated_research_world()
        deploy._gateways.pop()  # remove "aggregate"
        report = run_gate(
            deploy.analysis_graph(),
            [Forbid("patient-feed", "offshore-archive")],
        )
        assert report.ok()
