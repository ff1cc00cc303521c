"""Federation plane: gossip mesh convergence, piggybacking, pinning."""

import math

import pytest

from repro.audit.spine import AuditSpine
from repro.federation import GossipDigest, GossipMesh
from repro.ifc import SecurityContext, TagInterner, WireCodec
from repro.middleware import Message, MessageType, MessagingSubstrate
from repro.middleware.discovery import ResourceDiscovery
from repro.net import Network
from repro.sim import Simulator


def build_mesh(n, tags_per_node=6, interval=0.5, latency=0.001, seed=1):
    """N codec-only members over private interners with disjoint tags."""
    sim = Simulator(seed=seed)
    net = Network(sim, default_latency=latency)
    mesh = GossipMesh(net, sim, interval=interval)
    for i in range(n):
        interner = TagInterner()
        for t in range(tags_per_node):
            interner.intern(f"d{i}:tag{t}")
        mesh.join(f"host-{i:02d}", WireCodec(interner))
    return mesh, sim, net


class TestConvergence:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 8])
    def test_converges_within_log_bound(self, n):
        mesh, sim, net = build_mesh(n)
        rounds = mesh.run_until_converged(max_rounds=32)
        assert mesh.converged()
        assert rounds <= math.ceil(math.log2(n)) + 2

    def test_all_vocabularies_identical_after_convergence(self):
        mesh, sim, net = build_mesh(4)
        mesh.run_until_converged()
        # Every node holds every origin's full brought table, and the
        # interner tag *sets* are identical federation-wide.
        vocabularies = [
            {t.qualified for t in node.codec.interner.tags_of(
                (1 << len(node.codec.interner)) - 1)}
            for node in mesh.nodes()
        ]
        assert all(v == vocabularies[0] for v in vocabularies[1:])
        for node in mesh.nodes():
            for other in mesh.nodes():
                if node is other:
                    continue
                assert node.version_of(other.host) >= other.baseline

    def test_every_ordered_pair_masks_and_round_trips(self):
        mesh, sim, net = build_mesh(3)
        mesh.run_until_converged()
        for node in mesh.nodes():
            mask = (1 << node.baseline) - 1  # everything this node brought
            for other in mesh.nodes():
                if node is other:
                    continue
                encoded = node.codec.encode_masks(other.host, mask)
                assert encoded is not None, "pair must be masking"
                decoded = other.codec.decode_mask(node.host, encoded[0])
                assert {
                    t.qualified for t in other.codec.interner.tags_of(decoded)
                } == {t.qualified for t in node.codec.interner.tags_of(mask)}

    def test_gossip_traffic_is_counted_by_kind(self):
        mesh, sim, net = build_mesh(3)
        mesh.run_until_converged()
        assert net.stats.gossip_sent > 0
        assert net.stats.bytes_by_kind["gossip"] == mesh.control_bytes()

    def test_scheduled_rounds_converge_in_background(self):
        mesh, sim, net = build_mesh(4, interval=1.0)
        mesh.start()
        sim.run_for(10.0)
        assert mesh.converged()
        mesh.stop()
        rounds = mesh.stats.rounds
        sim.run_for(5.0)
        assert mesh.stats.rounds == rounds  # stop() really stops

    def test_late_joiner_catches_up(self):
        mesh, sim, net = build_mesh(3)
        mesh.run_until_converged()
        interner = TagInterner()
        for t in range(4):
            interner.intern(f"late:tag{t}")
        mesh.join("host-99", WireCodec(interner))
        assert not mesh.converged()
        mesh.run_until_converged(max_rounds=16)
        late = mesh.node("host-99")
        assert late.version_of("host-00") >= mesh.node("host-00").baseline


class TestConvergenceSpeed:
    """Round counts pinned exactly, so a change that slows convergence
    (for instance, skipping a DELTA that carries no blocks) fails here
    instead of passing under the logarithmic bound."""

    # With empty vocabularies there are no tables to pull: only the
    # DELTA's holdings matrix tells the digest's receiver what the
    # opener absorbed, and skipping empty DELTAs costs 3/5/7 rounds.
    @pytest.mark.parametrize("tags_per_node", [6, 0])
    @pytest.mark.parametrize("n, expected", [(4, 2), (8, 4), (16, 5)])
    def test_run_until_converged_rounds(self, n, expected, tags_per_node):
        mesh, sim, net = build_mesh(n, tags_per_node=tags_per_node)
        assert mesh.run_until_converged() == expected

    @pytest.mark.parametrize("n, expected", [(4, 2), (8, 4), (16, 5)])
    def test_deploy_converge_rounds(self, n, expected):
        from repro.deploy import Deployment

        SecurityContext.of(["pin:a", "pin:b"], [])  # a non-empty vocabulary
        deploy = Deployment(seed=7, name="pin", mesh_interval=0.5)
        for i in range(n):
            deploy.node(f"pin-{n}-{i:02d}").with_mesh()
        assert deploy.converge() == expected


class TestSteadyState:
    @staticmethod
    def _exchange_after_convergence(mesh, sim, extra_rounds=0):
        mesh.run_until_converged()
        for __ in range(extra_rounds):
            mesh._round()
            sim.run_for(mesh.interval)
        a, b = mesh.nodes()[:2]
        reply = b.handle_digest(a.make_digest())
        return mesh, a, reply, a.handle_reply(reply)

    @staticmethod
    def _assert_holdings_only(mesh, a, reply, delta):
        assert reply.wants == {}
        assert reply.blocks == {}
        assert delta.blocks == {}
        # The DELTA still goes out: it carries the opener's holdings.
        assert delta.holdings[a.host] == a._own_row()
        assert set(delta.holdings) == {node.host for node in mesh.nodes()}

    def test_converged_exchange_ships_no_blocks(self):
        # Every member brings the same vocabulary, so learning a peer's
        # table never grows an interner: convergence is steady state.
        sim = Simulator(seed=1)
        mesh = GossipMesh(Network(sim, default_latency=0.001), sim, interval=0.5)
        for i in range(4):
            interner = TagInterner()
            for t in range(6):
                interner.intern(f"shared:tag{t}")
            mesh.join(f"host-{i:02d}", WireCodec(interner))
        self._assert_holdings_only(*self._exchange_after_convergence(mesh, sim))

    def test_settled_disjoint_vocabularies_ship_no_blocks(self):
        # Learning peers' tags grows each interner, so every origin's
        # table grows once more after convergence; one round settles it.
        mesh, sim, net = build_mesh(4)
        self._assert_holdings_only(
            *self._exchange_after_convergence(mesh, sim, extra_rounds=1)
        )

    def test_delta_serves_only_pulled_origins_from_wanted_version(self):
        mesh, sim, net = build_mesh(3)
        a, b, c = mesh.nodes()
        from repro.federation import GossipDelta
        from repro.ifc.wire import TagBlock

        # b holds the first half of a's table and nothing of c's; a
        # holds c's table, so b pulls a's tail and c's whole table.
        half = a.tags_known(a.host)[:3]
        b.handle_delta(GossipDelta(a.host, {}, {a.host: TagBlock.compress(half)}))
        c_table = c.tags_known(c.host)
        a.handle_delta(GossipDelta(c.host, {}, {c.host: TagBlock.compress(c_table)}))
        reply = b.handle_digest(a.make_digest())
        assert reply.wants == {a.host: 3, c.host: 0}
        delta = a.handle_reply(reply)
        assert sorted(delta.blocks) == [a.host, c.host]
        assert delta.blocks[a.host].base == 3
        assert delta.blocks[a.host].tags() == a.tags_known(a.host)[3:]
        assert delta.blocks[c.host].base == 0
        b.handle_delta(delta)
        assert b.tags_known(a.host) == a.tags_known(a.host)
        assert b.tags_known(c.host) == c_table


class TestDeltaRobustness:
    def test_gapped_delta_is_dropped_not_guessed(self):
        mesh, sim, net = build_mesh(2)
        a, b = mesh.nodes()
        from repro.ifc.wire import TagBlock

        block = TagBlock.compress(("d9:x", "d9:y"), base=10)  # gap: holds 0
        from repro.federation import GossipDelta

        b.handle_delta(GossipDelta("host-09", {}, {"host-09": block}))
        assert b.version_of("host-09") == 0
        assert b.stats.delta_gaps == 1

    def test_duplicate_delta_is_idempotent(self):
        mesh, sim, net = build_mesh(2)
        a, b = mesh.nodes()
        from repro.federation import GossipDelta
        from repro.ifc.wire import TagBlock

        block = TagBlock.compress(a.tags_known(a.host), base=0)
        delta = GossipDelta(a.host, {}, {a.host: block})
        b.handle_delta(delta)
        version = b.version_of(a.host)
        b.handle_delta(delta)
        assert b.version_of(a.host) == version


class TestDiscoveryPiggyback:
    def test_find_introduces_querier_to_result_hosts(self, reading_type):
        from tests.conftest import make_component

        mesh, sim, net = build_mesh(3)
        rdc = ResourceDiscovery()
        rdc.attach_federation(mesh)
        remote = make_component("remote-svc", SecurityContext.public(), reading_type)
        rdc.register(remote, {"kind": "svc"}, host="host-01")
        assert mesh.stats.introductions == 0
        found = rdc.find(querier_host="host-00", kind="svc")
        assert [c.name for c in found] == ["remote-svc"]
        assert mesh.stats.introductions == 1
        sim.drain()
        # One discovery-triggered exchange, no scheduled rounds: the
        # querier and the discovered host have already synced.
        a, b = mesh.node("host-00"), mesh.node("host-01")
        assert a.version_of("host-01") >= b.baseline
        assert b.version_of("host-00") >= a.baseline
        assert a.codec.peer("host-01").masking
        assert rdc.stats.introductions == 1

    def test_find_without_querier_host_introduces_nothing(self, reading_type):
        from tests.conftest import make_component

        mesh, sim, net = build_mesh(2)
        rdc = ResourceDiscovery()
        rdc.attach_federation(mesh)
        remote = make_component("remote-svc", SecurityContext.public(), reading_type)
        rdc.register(remote, {"kind": "svc"}, host="host-01")
        rdc.find(kind="svc")
        assert mesh.stats.introductions == 0


class TestSubstrateIntegration:
    def _substrate_mesh(self, n, interval=0.5):
        from repro.cloud import Machine

        sim = Simulator(seed=3)
        net = Network(sim, default_latency=0.001)
        mesh = GossipMesh(net, sim, interval=interval)
        subs = []
        for i in range(n):
            machine = Machine(f"fed-sub{i}", clock=sim.now)
            substrate = MessagingSubstrate(machine, net)
            mesh.join_substrate(substrate)
            subs.append(substrate)
        return mesh, sim, net, subs

    def test_first_data_message_masks_without_any_handshake(self):
        mesh, sim, net, subs = self._substrate_mesh(3)
        ctx = SecurityContext.of(["fed:a", "fed:b"], [])
        mesh.run_until_converged(max_rounds=16)
        src, dst = subs[0], subs[2]
        p_src = src.machine.launch("tx", ctx)
        p_dst = dst.machine.launch("rx", ctx)
        got = []
        src.register(p_src, lambda a, m: None)
        dst.register(p_dst, lambda a, m: got.append(m))
        mtype = MessageType.simple("fed-ping", value=float)
        assert src.send(p_src, dst, "rx", Message(mtype, {"value": 1.0}, context=ctx))
        sim.drain()
        assert src.stats.sent_masked == 1
        assert src.stats.sent_tagset == 0
        assert net.stats.handshake_sent == 0  # gossip replaced the 3-step
        assert len(got) == 1
        assert {t.qualified for t in got[0].context.secrecy.tags} == {
            "fed:a", "fed:b",
        }

    def test_checkpoint_claims_cross_pin_through_gossip(self):
        from repro.audit.records import RecordKind

        mesh, sim, net, subs = self._substrate_mesh(3)
        # Give each spine some history before gossiping.
        for substrate in subs:
            substrate.audit.append(
                RecordKind.CUSTOM, substrate.machine.hostname, "", {"warm": True}
            )
        mesh.run_until_converged(max_rounds=16)
        boards = mesh.pinboards()
        hosts = sorted(boards)
        for host, board in boards.items():
            assert set(board.domains()) == set(hosts) - {host}
        verdicts = mesh.verify_federation()
        for host, view in verdicts.items():
            assert all(v == "ok" for v in view.values()), (host, view)

    def test_tampered_spine_detected_federation_wide(self):
        from repro.apps import censored_replay
        from repro.audit.records import RecordKind

        mesh, sim, net, subs = self._substrate_mesh(3)
        for substrate in subs:
            for i in range(8):
                substrate.audit.append(
                    RecordKind.FLOW_DENIED if i % 4 == 0 else RecordKind.CUSTOM,
                    substrate.machine.hostname,
                    "peer",
                    {"i": i},
                )
            substrate.machine.audit.checkpoint()
        mesh.run_until_converged(max_rounds=16)
        victim = mesh.node(subs[1].machine.hostname)
        forged = censored_replay(victim.spine)
        assert forged.verify()  # locally consistent...
        victim.spine = forged
        verdicts = mesh.verify_federation()
        for host, view in verdicts.items():
            if host == subs[1].machine.hostname:
                continue
            assert view[subs[1].machine.hostname] == "tampered"
