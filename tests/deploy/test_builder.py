"""The deployment façade: wiring defaults, verdict matrix, rollups."""

import pytest

from repro.audit import AuditLog, AuditSink, AuditSpine, SpineEmitter
from repro.deploy import Deployment, DeploymentSpec, NodeSpec
from repro.errors import DiscoveryError
from repro.ifc import SecurityContext
from repro.iot import IoTWorld
from repro.middleware import Message, MessageType

MT = MessageType.simple("deploy-test", value=float)
CTX = SecurityContext.of(["shared"], [])


def two_node_mesh(seed=3, retain_every=None):
    deploy = Deployment(seed=seed, name="t")
    alpha = deploy.node("alpha").with_domain().with_mesh()
    beta = deploy.node("beta").with_domain().with_mesh().with_pinboard(
        retain_every=retain_every
    )
    return deploy, alpha, beta


class TestAuditSinkProtocol:
    def test_every_audit_writer_satisfies_the_sink_protocol(self):
        spine = AuditSpine()
        assert isinstance(AuditLog(), AuditSink)
        assert isinstance(spine, AuditSink)
        assert isinstance(spine.emitter("bus"), AuditSink)

    def test_emitter_exposes_spine_identity(self):
        spine = AuditSpine(name="audit@host")
        assert spine.emitter("bus").name == "audit@host"


class TestNodeWiring:
    def test_node_builds_machine_substrate_and_spine_backed_domain(self):
        deploy = Deployment(seed=1)
        node = deploy.node("n1").with_domain()
        assert node.machine.hostname == "n1"
        assert node.substrate.machine is node.machine
        # The domain's whole stack writes into the machine spine.
        assert isinstance(node.domain.audit, SpineEmitter)
        assert node.domain.audit.spine is node.machine.audit
        assert node.domain.bus.audit.spine is node.machine.audit

    def test_shared_clock_reaches_the_spine(self):
        deploy = Deployment(seed=1)
        node = deploy.node("n1").with_domain()
        deploy.run(seconds=30.0)
        node.domain.audit.flow_allowed("a", "b", CTX, CTX)
        assert node.machine.audit.records()[-1].timestamp == 30.0

    def test_detached_domain_keeps_the_old_audit_log_shim(self):
        deploy = Deployment(seed=1)
        node = deploy.node("n1").with_domain(spine_backed=False)
        assert isinstance(node.domain.audit, AuditLog)
        assert node.domain.audit is not node.machine.audit

    def test_bus_only_domain_helper(self):
        deploy = Deployment(seed=1)
        domain = deploy.domain("hospital")
        assert isinstance(domain.audit, AuditLog)
        assert deploy.domain("hospital") is domain  # get-or-create
        assert "hospital" in deploy.world.domains

    def test_hostname_override(self):
        deploy = Deployment(seed=1)
        node = deploy.node("city", hostname="city-hq").with_domain("city")
        assert node.machine.hostname == "city-hq"
        assert deploy.world.domains["city"] is node.domain

    def test_configuring_a_built_node_is_an_error(self):
        deploy = Deployment(seed=1)
        node = deploy.node("n1")
        node.build()
        with pytest.raises(RuntimeError):
            node.with_mesh()

    def test_missing_planes_raise_helpfully(self):
        deploy = Deployment(seed=1)
        node = deploy.node("n1")
        with pytest.raises(DiscoveryError):
            node.domain
        with pytest.raises(DiscoveryError):
            node.pinboard

    def test_node_overrides_conflict_is_an_error(self):
        deploy = Deployment(seed=1)
        deploy.node("n1")
        with pytest.raises(ValueError):
            deploy.node("n1", hostname="other")

    def test_explicit_machine_off_is_bus_only(self):
        deploy = Deployment(seed=1)
        node = deploy.node("relay", machine=False)
        assert node.machine is None and node.substrate is None
        assert node.domain.name == "relay"  # a spec must build something

    def test_verify_diagonal_covers_both_chains_under_one_name(self):
        # hostname and detached-domain name collide ('x'): the diagonal
        # must fail if EITHER chain fails.
        deploy = Deployment(seed=1)
        node = deploy.node("x").with_domain(spine_backed=False)
        node.machine.audit.flow_allowed("a", "b", CTX, CTX)
        node.machine.audit.drain()
        record = node.machine.audit.records()[0]
        object.__setattr__(record, "actor", "evil")
        assert not node.machine.audit.verify()
        assert node.domain.audit.verify()
        assert deploy.verify()["x"]["x"] == "tampered"

    def test_bare_directory_read_is_adopted_by_first_discovery_node(self):
        # Reading deploy.directory() early must not brick later
        # with_discovery() builds: the first serving node adopts the
        # directory and late-binds its audit spine.
        deploy = Deployment(seed=1)
        directory = deploy.directory()  # unserved, unaudited
        assert directory.audit is None
        node = deploy.node("server").with_mesh().with_discovery()
        node.build()
        assert deploy.directory() is directory
        assert directory.audit is not None
        assert directory.audit.spine is node.machine.audit
        # A second server is still rejected.
        with pytest.raises(ValueError):
            deploy.node("other").with_discovery().build()

    def test_directory_is_single_through_reentrant_build(self):
        deploy = Deployment(seed=1)
        node = deploy.node("y").with_mesh().with_discovery()
        directory = deploy.directory(node)  # triggers build, which serves it
        assert deploy.directory() is directory
        assert deploy.directory(node) is directory

    def test_tick_drain_off_gives_timestamp_only_machines(self):
        # The bench knob: no clock-tick drain hooks, but timestamps
        # still come from the simulated clock.
        deploy = Deployment(seed=1, tick_drain=False)
        node = deploy.node("n1").with_domain()
        deploy.run(seconds=10.0)
        node.domain.audit.flow_allowed("a", "b", CTX, CTX)
        assert node.machine.audit.records()[-1].timestamp == 10.0
        assert node.machine._tick_source is None

    def test_domain_mode_conflict_raises(self):
        from repro.accesscontrol import EnforcementMode

        deploy = Deployment(seed=1)
        deploy.domain("city", mode=EnforcementMode.AC_AND_IFC)
        with pytest.raises(ValueError):
            deploy.domain("city", mode=EnforcementMode.AC_ONLY)
        # Re-requesting without a mode (or the same mode) is fine.
        assert deploy.domain("city") is deploy.world.domains["city"]

    def test_second_directory_server_raises(self):
        deploy = Deployment(seed=1)
        first = deploy.node("a").with_discovery()
        first.build()
        second = deploy.node("b").with_discovery()
        with pytest.raises(ValueError):
            second.build()
        # The first server keeps the directory.
        assert deploy.directory() is deploy.directory(first)

    def test_wrapping_an_existing_world(self):
        world = IoTWorld(seed=9)
        deploy = Deployment.of(world)
        assert deploy.world is world
        assert Deployment.of(deploy) is deploy


class TestFederatedDeployment:
    def test_mesh_members_converge_and_mask(self):
        deploy, alpha, beta = two_node_mesh()
        sender = alpha.launch("sender", CTX, handler=lambda a, m: None)
        got = []
        beta.launch("sink", CTX, handler=lambda a, m: got.append(m))
        deploy.converge()
        alpha.substrate.send(
            sender, beta.substrate, "sink",
            Message(MT, {"value": 1.0}, context=CTX),
        )
        deploy.run(seconds=5)
        assert len(got) == 1
        assert alpha.substrate.stats.sent_masked == 1
        assert alpha.substrate.stats.sent_tagset == 0
        assert deploy.network.stats.handshake_sent == 0

    def test_verify_matrix_peers_plus_diagonal(self):
        deploy, alpha, beta = two_node_mesh()
        deploy.converge()
        matrix = deploy.verify()
        assert matrix["alpha"]["beta"] == "ok"
        assert matrix["beta"]["alpha"] == "ok"
        assert matrix["alpha"]["alpha"] == "ok"  # local chain verdict

    def test_verify_catches_a_censored_replay_from_the_peer_row(self):
        from repro.apps import censored_replay

        deploy, alpha, beta = two_node_mesh()
        sender = alpha.launch("sender", CTX, handler=lambda a, m: None)
        beta.launch("sink", CTX, handler=lambda a, m: None)
        deploy.converge()
        for __ in range(4):
            alpha.substrate.send(
                sender, beta.substrate, "sink",
                Message(MT, {"value": 2.0}, context=CTX),
            )
            deploy.run(seconds=120)
        forged = censored_replay(alpha.mesh_node.spine)
        assert forged.verify()
        alpha.mesh_node.spine = forged
        matrix = deploy.verify()
        assert matrix["beta"]["alpha"] == "tampered"
        assert matrix["alpha"]["alpha"] == "ok"  # the diagonal is fooled

    def test_pinboard_retention_passthrough(self):
        deploy, alpha, beta = two_node_mesh(retain_every=3)
        assert beta.pinboard.retain_every == 3
        assert alpha.pinboard.retain_every is None

    def test_stats_rolls_up_every_plane(self):
        deploy, alpha, beta = two_node_mesh()
        deploy.converge()
        rollup = deploy.stats()
        assert rollup["federation"]["members"] == 2
        assert rollup["federation"]["converged"] is True
        assert rollup["federation"]["pins"] >= 2
        assert rollup["audit"]["records"] == sum(
            len(s) for s in deploy.spines().values()
        )
        assert set(rollup) == {
            "flows", "substrate", "audit", "federation",
            "network", "transport", "workers", "verify", "analysis",
        }
        # No with_workers() in this deployment: the rollup says so.
        assert rollup["workers"] == {"count": 0, "ops": 0, "throughput": 0.0}

    def test_collect_audit_covers_spines_and_detached_domains(self):
        deploy, alpha, beta = two_node_mesh()
        deploy.domain("standalone").audit.flow_allowed("a", "b", CTX, CTX)
        deploy.converge()
        collector = deploy.collect_audit()
        assert collector.rejected_domains == set()
        domains = {d for d, __ in collector.merged()}
        assert {"alpha", "beta", "standalone"} <= domains

    def test_attested_nodes_share_a_deployment_verifier(self):
        deploy = Deployment(seed=2)
        # Build order must not matter: n1 exists before anyone is attested.
        n1 = deploy.node("n1").with_domain()
        n1.build()
        n2 = deploy.node("n2").with_substrate(attested=True)
        sender = n2.launch("s", CTX, handler=lambda a, m: None)
        n1.launch("r", CTX, handler=lambda a, m: None)
        ok = n2.substrate.send(
            sender, n1.substrate, "r", Message(MT, {"value": 0.0}, context=CTX)
        )
        assert ok
        assert n2.substrate.stats.attestation_failures == 0


class TestDeclarativeSpec:
    def test_from_spec_builds_the_same_deployment(self):
        spec = DeploymentSpec(name="declared", seed=3)
        spec.node("alpha", domain="alpha", mesh=True)
        spec.node("beta", domain="beta", mesh=True, pinboard_retain_every=2)
        deploy = Deployment.from_spec(spec)
        assert {n.spec.name for n in deploy.nodes()} == {"alpha", "beta"}
        assert deploy.node("beta").pinboard.retain_every == 2
        assert deploy.converge() >= 1
        assert deploy.mesh.converged()

    def test_nodespec_normalisation(self):
        spec = NodeSpec("n", pinboard_retain_every=4)
        assert spec.mesh and spec.substrate and spec.machine
        assert spec.hostname == "n"
        bus_only = NodeSpec("d", machine=False)
        assert not bus_only.machine and not bus_only.substrate
        assert bus_only.domain == "d"
        # ...but an explicit mesh request implies the full machine stack.
        meshy = NodeSpec("m", machine=False, mesh=True)
        assert meshy.machine and meshy.substrate

    def test_duplicate_spec_name_rejected(self):
        deploy = Deployment(seed=1)
        deploy.apply(NodeSpec("n1"))
        with pytest.raises(ValueError):
            deploy.apply(NodeSpec("n1"))
