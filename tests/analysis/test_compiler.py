"""The compiler walks deployments/specs/gateways/rules into one graph.

The load-bearing pin is the ``from_spec`` round-trip guard: compiling a
freshly built :class:`Deployment` and compiling its
:class:`DeploymentSpec` twin must yield *identical* graphs (value
equality), across every spec shape the builder normalises differently.
"""

import pytest

from repro.analysis import (
    VIA_CARRIES,
    VIA_DELEGATES,
    VIA_PRIVILEGE,
    VIA_RUNS,
    NodeKind,
    compile,
    compile_deployment,
    compile_spec,
)
from repro.deploy import Deployment, DeploymentSpec, NodeSpec
from repro.errors import AnalysisError
from repro.ifc import (
    PrivilegeAuthority,
    PrivilegeSet,
    SecurityContext,
    TagRegistry,
)
from repro.middleware.component import Component
from repro.policy.legal import geo_fence_obligation
from repro.policy.rules import NotifyAction, Rule

SPEC_SHAPES = {
    "domain-mesh": NodeSpec(name="n0", machine=True, substrate=True,
                            domain="ops", mesh=True),
    "machine-only": NodeSpec(name="n0", machine=True, domain=None),
    "bus-only": NodeSpec(name="n0", machine=False),
    "no-substrate": NodeSpec(name="n0", machine=True, substrate=False,
                             domain="ops"),
}


class TestRoundTrip:
    @pytest.mark.parametrize("shape", sorted(SPEC_SHAPES), ids=str)
    def test_fresh_deployment_equals_its_spec_twin(self, shape):
        spec = DeploymentSpec(
            name="twin", seed=3, nodes=[SPEC_SHAPES[shape]]
        )
        live = compile_deployment(Deployment.from_spec(spec))
        declared = compile_spec(spec)
        assert live == declared, live.diff(declared).report()

    def test_round_trip_holds_for_multi_node_federation(self):
        spec = DeploymentSpec(
            name="fed",
            seed=5,
            nodes=[
                NodeSpec(name=f"n{i}", machine=True, substrate=True,
                         domain=f"d{i}", mesh=True)
                for i in range(4)
            ],
        )
        live = compile_deployment(Deployment.from_spec(spec))
        assert live == compile_spec(spec)

    def test_adopted_components_break_the_twin_symmetry_visibly(self):
        spec = DeploymentSpec(
            name="twin", seed=3, nodes=[SPEC_SHAPES["domain-mesh"]]
        )
        deploy = Deployment.from_spec(spec)
        deploy.nodes()[0].domain.bus.register(
            Component("late", context=SecurityContext.public())
        )
        diff = compile_spec(spec).diff(compile_deployment(deploy))
        assert "component:late" in diff.added_nodes


class TestDeploymentWalk:
    def test_substrate_daemon_is_modelled(self, hospital):
        graph = hospital.analysis_graph()
        daemon = graph.resolve("component:substrate@ward-1")
        assert daemon.secrecy == ()
        runs = [
            e for e in graph.out_edges("member:ward-1", flow_only=False)
            if e.via == VIA_RUNS
        ]
        assert [e.dst for e in runs] == [daemon.node_id]

    def test_structural_skeleton(self, hospital):
        graph = hospital.analysis_graph()
        assert graph.resolve("domain:ward").kind is NodeKind.DOMAIN
        assert graph.resolve("engine:ward-policy-engine").kind is NodeKind.ENGINE
        adopted = {
            e.dst for e in graph.out_edges("domain:ward", flow_only=False)
            if e.via == "adopts"
        }
        assert {"component:ward-sensor", "component:public-dashboard"} <= adopted

    def test_tag_carriers(self, hospital):
        graph = hospital.analysis_graph()
        tag = graph.nodes(NodeKind.TAG)[0]
        carried_by = {
            e.dst for e in graph.out_edges(tag.node_id, flow_only=False)
            if e.via == VIA_CARRIES
        }
        assert "component:ward-sensor" in carried_by
        assert "gateway:anonymiser" in carried_by

    def test_gateway_node_carries_both_contexts(self, hospital):
        graph = hospital.analysis_graph()
        anon = graph.resolve("gateway:anonymiser")
        assert anon.secrecy and not anon.out_secrecy

    def test_gateway_crossing_edges(self, hospital):
        graph = hospital.analysis_graph()
        into = [
            e for e in graph.out_edges("component:ward-sensor")
            if e.dst == "gateway:anonymiser"
        ]
        assert into and into[0].via == "flow-rule"
        out = graph.out_edges("gateway:anonymiser")
        crossing = {e.dst: e for e in out if e.via == "gateway:anonymiser"}
        assert "component:public-dashboard" in crossing
        assert crossing["component:public-dashboard"].detail == ("declassifier",)

    def test_no_direct_sensor_to_dashboard_edge(self, hospital):
        graph = hospital.analysis_graph()
        assert not any(
            e.dst == "component:public-dashboard"
            for e in graph.out_edges("component:ward-sensor")
        )

    def test_privilege_edge_names_shed_tags(self):
        deploy = Deployment(seed=1, name="priv")
        domain = deploy.node("ops").with_domain().domain
        domain.bus.register(Component(
            "exporter",
            context=SecurityContext.of(["medical"], []),
            privileges=PrivilegeSet.of(remove_secrecy=["medical"]),
        ))
        domain.bus.register(
            Component("sink", context=SecurityContext.public())
        )
        graph = deploy.analysis_graph()
        edges = [
            e for e in graph.out_edges("component:exporter")
            if e.dst == "component:sink"
        ]
        assert [e.via for e in edges] == [VIA_PRIVILEGE]
        assert edges[0].detail == ("shed:local:medical",)

    def test_rule_notifications_are_flow_edges(self):
        deploy = Deployment(seed=1, name="eca")
        domain = deploy.node("ops").with_domain().domain
        domain.engine.add_rule(
            Rule("page-oncall", "alarm", [NotifyAction("oncall-pager")])
        )
        graph = deploy.analysis_graph()
        edges = graph.out_edges("engine:ops-policy-engine")
        assert [(e.dst, e.via) for e in edges] == [
            ("notify:oncall-pager", "rule:page-oncall")
        ]

    def test_obligations_and_authority(self, hospital):
        obligation = geo_fence_obligation(
            data_sources={"ward-sensor"},
            forbidden_sinks={"public-dashboard"},
        )
        registry = TagRegistry()
        registry.register("medical", owner="hospital-root")
        authority = PrivilegeAuthority(registry)
        authority.delegate(
            "hospital-root", "anonymiser",
            PrivilegeSet.of(remove_secrecy=["medical"]),
        )
        graph = compile_deployment(
            hospital,
            obligations=[obligation],
            authority=authority,
        )
        obliged = graph.out_edges("obligation:geo-eu", flow_only=False)
        assert {e.dst for e in obliged} == {
            "component:ward-sensor", "component:public-dashboard"
        }
        delegations = graph.out_edges("principal:hospital-root",
                                      flow_only=False)
        assert [(e.dst, e.via) for e in delegations] == [
            ("principal:anonymiser", VIA_DELEGATES)
        ]


class TestDispatch:
    def test_compile_dispatches_on_shape(self, hospital):
        spec = DeploymentSpec(name="x", nodes=[SPEC_SHAPES["machine-only"]])
        assert compile(spec) == compile_spec(spec)
        assert compile(hospital) == compile_deployment(hospital)

    def test_compile_rejects_unknown_sources(self):
        with pytest.raises(AnalysisError, match="cannot compile"):
            compile(object())
