"""Substrate wire plane: handshake, mask envelopes, parity, misrouting.

These run the real transfer path — two machines, the simulated network,
handshake datagrams and all — where `tests/ifc/test_wire.py` exercises
the codec state machine directly.
"""

import pytest

from repro.audit import RecordKind
from repro.cloud import Machine
from repro.errors import NetworkError
from repro.ifc import SecurityContext, as_tags
from repro.ifc.interner import global_interner
from repro.middleware import (
    AttributeSpec,
    MaskBatchEnvelope,
    Message,
    MessageType,
    MessagingSubstrate,
    TagSetEnvelope,
)
from repro.net import Network
from repro.sim import Simulator

READING = MessageType.simple("reading", value=float)


def _pair(sim, enforce=True, wire_masks=True):
    net = Network(sim)
    m1 = Machine("wh1", clock=sim.now)
    m2 = Machine("wh2", clock=sim.now)
    s1 = MessagingSubstrate(m1, net, enforce=enforce, wire_masks=wire_masks)
    s2 = MessagingSubstrate(m2, net, enforce=enforce, wire_masks=wire_masks)
    return net, m1, m2, s1, s2


class TestHandshake:
    def test_first_message_falls_back_then_masks(self, sim):
        net, m1, m2, s1, s2 = _pair(sim)
        ctx = SecurityContext.of(["w-s"], ["w-i"])
        p1 = m1.launch("a", ctx)
        p2 = m2.launch("b", ctx)
        s1.register(p1, lambda a, m: None)
        got = []
        s2.register(p2, lambda a, m: got.append(m))

        s1.send(p1, s2, "b", Message(READING, {"value": 1.0}, context=ctx))
        assert s1.stats.sent_tagset == 1 and s1.stats.sent_masked == 0
        sim.drain()  # handshake completes alongside delivery

        s1.send(p1, s2, "b", Message(READING, {"value": 2.0}, context=ctx))
        sim.drain()
        assert s1.stats.sent_masked == 1
        assert len(got) == 2
        assert got[0].context == ctx and got[1].context == ctx
        assert net.stats.handshake_sent >= 3  # HELLO, ACK, FIN
        # Handshake datagrams are sized (compressed tables), so the
        # control-plane byte budget is observable per traffic kind.
        assert net.stats.bytes_by_kind["handshake"] > 0
        assert any(r.kind == RecordKind.WIRE_HANDSHAKE for r in m1.audit)
        assert any(r.kind == RecordKind.WIRE_HANDSHAKE for r in m2.audit)

    def test_post_handshake_envelopes_carry_masks_not_tag_sets(self, sim):
        net, m1, m2, s1, s2 = _pair(sim)
        ctx = SecurityContext.of(["w-mask-only"], [])
        p1 = m1.launch("a", ctx)
        p2 = m2.launch("b", ctx)
        s1.register(p1, lambda a, m: None)
        s2.register(p2, lambda a, m: None)
        s1.send(p1, s2, "b", Message(READING, {"value": 0.0}, context=ctx))
        sim.drain()

        kinds = []
        original = s2._receive

        def spy(datagram):
            kinds.append(type(datagram.payload).__name__)
            original(datagram)

        net.set_receiver("wh2", spy)
        for i in range(5):
            s1.send(p1, s2, "b", Message(READING, {"value": float(i)}, context=ctx))
        sim.drain()
        # A single send is a one-row batch envelope.
        assert kinds == ["MaskBatchEnvelope"] * 5
        assert s2.stats.delivered == 6

    def test_wire_masks_disabled_stays_on_tag_sets(self, sim):
        net, m1, m2, s1, s2 = _pair(sim, wire_masks=False)
        ctx = SecurityContext.of(["w-off"], [])
        p1 = m1.launch("a", ctx)
        p2 = m2.launch("b", ctx)
        s1.register(p1, lambda a, m: None)
        s2.register(p2, lambda a, m: None)
        for i in range(3):
            s1.send(p1, s2, "b", Message(READING, {"value": float(i)}, context=ctx))
            sim.drain()
        assert s1.stats.sent_tagset == 3 and s1.stats.sent_masked == 0
        assert net.stats.handshake_sent == 0
        assert s2.stats.delivered == 3

    def test_new_tag_triggers_table_sync_not_mislabel(self, sim):
        net, m1, m2, s1, s2 = _pair(sim)
        base = SecurityContext.of(["w-base"], [])
        p1 = m1.launch("a", base)
        p2 = m2.launch("b", base)
        s1.register(p1, lambda a, m: None)
        got = []
        s2.register(p2, lambda a, m: got.append(m))
        s1.send(p1, s2, "b", Message(READING, {"value": 0.0}, context=base))
        sim.drain()
        assert s1.stats.sent_masked == 0 and s1.stats.sent_tagset == 1

        # A tag interned only after the handshake: the envelope must fall
        # back to tag sets and ship a table delta — never guess at bits.
        late = base.add_secrecy("w-late")
        p1.security = late
        p2.security = late  # receiver may take the new tag
        s1.send(p1, s2, "b", Message(READING, {"value": 1.0}, context=late))
        assert s1.stats.table_syncs == 1
        assert s1.stats.sent_tagset == 2
        sim.drain()
        assert any(r.kind == RecordKind.TABLE_SYNC for r in m1.audit)
        assert any(r.kind == RecordKind.TABLE_SYNC for r in m2.audit)

        # Delta acked: the same label now travels as a mask and decodes
        # to the identical context.
        s1.send(p1, s2, "b", Message(READING, {"value": 2.0}, context=late))
        sim.drain()
        assert s1.stats.sent_masked == 1
        assert len(got) == 3
        assert got[2].context == late

    def test_undecodable_mask_envelope_dropped_and_audited(self, sim):
        self._undecodable(sim, rows=1)

    def test_undecodable_mask_batch_dropped_and_audited(self, sim):
        self._undecodable(sim, rows=2)

    @staticmethod
    def _undecodable(sim, rows):
        net, m1, m2, s1, s2 = _pair(sim)
        p2 = m2.launch("b")
        s2.register(p2, lambda a, m: None)
        masks = dict(
            msg_secrecy_mask=0b1011,
            msg_integrity_mask=0,
            src_secrecy_mask=0b1011,
            src_integrity_mask=0,
            table_version=4,
        )
        # A mask envelope from a host s2 never handshaked with: one row
        # (what a single send ships), or a batch of several.
        payload = MaskBatchEnvelope(
            source_host="wh1", source_process="rogue", dest_host="wh2",
            type=READING,
            rows=tuple(("b", {"value": float(i)}, 900 + i, 0.0)
                       for i in range(rows)),
            **masks,
        )
        net.send("wh1", "wh2", payload)
        sim.drain()
        assert s2.stats.dropped_undecodable == rows
        assert s2.stats.delivered == 0
        syncs = [r for r in m2.audit if r.kind == RecordKind.TABLE_SYNC]
        assert [r.detail for r in syncs] == [
            {"step": "undecodable", "rows": rows, "table_version": 4}
        ]


class TestParity:
    """Receiver-side re-check parity: the mask path must deny exactly
    the flows the tag-set path denies."""

    CASES = [
        (["p-a"], [], ["p-a"], []),               # equal: allowed
        (["p-a"], [], ["p-a", "p-b"], []),        # receiver dominates: allowed
        (["p-a", "p-b"], [], ["p-a"], []),        # secrecy leak: denied
        ([], ["p-i"], [], []),                    # integrity demanded: allowed
        ([], [], [], ["p-i"]),                    # receiver wants integrity: denied
        (["p-a"], ["p-i"], ["p-a"], ["p-i"]),     # equal both: allowed
    ]

    def _run(self, wire_masks):
        sim = Simulator(seed=7)
        net, m1, m2, s1, s2 = _pair(sim, wire_masks=wire_masks)
        outcomes = []
        for i, (src_s, src_i, dst_s, dst_i) in enumerate(self.CASES):
            src = SecurityContext.of(src_s, src_i)
            dst = SecurityContext.of(dst_s, dst_i)
            p1 = m1.launch(f"src{i}", src)
            p2 = m2.launch(f"dst{i}", dst)
            s1.register(p1, lambda a, m: None)
            s2.register(p2, lambda a, m: None)
            s1.send(p1, s2, f"dst{i}", Message(READING, {"value": 1.0}, context=src))
            sim.drain()  # handshake completes during the first case
            # Repeat on the (now possibly masked) steady-state path.
            s1.send(p1, s2, f"dst{i}", Message(READING, {"value": 2.0}, context=src))
            sim.drain()
            outcomes.append((s2.stats.delivered, s2.stats.denied_remote))
        return outcomes, s1.stats

    def test_mask_and_tagset_paths_deny_identically(self):
        masked_outcomes, masked_stats = self._run(wire_masks=True)
        tagset_outcomes, tagset_stats = self._run(wire_masks=False)
        assert masked_outcomes == tagset_outcomes
        assert masked_stats.sent_masked > 0       # the A-side really masked
        assert tagset_stats.sent_masked == 0

    def test_quenching_parity_over_masks(self, sim):
        net, m1, m2, s1, s2 = _pair(sim)
        typed = MessageType(
            "person",
            [
                AttributeSpec("name", str, extra_secrecy=as_tags(["p-C"])),
                AttributeSpec("country", str),
            ],
        )
        base = SecurityContext.of(["p-A"], [])
        p1 = m1.launch("a", base)
        p2 = m2.launch("b", base)
        s1.register(p1, lambda a, m: None)
        got = []
        s2.register(p2, lambda a, m: got.append(m))
        s1.send(p1, s2, "b", Message(typed, {"name": "Ann", "country": "UK"}, context=base))
        sim.drain()
        s1.send(p1, s2, "b", Message(typed, {"name": "Ann", "country": "UK"}, context=base))
        sim.drain()
        assert s1.stats.sent_masked == 1  # second message took the mask path
        assert len(got) == 2
        for msg in got:
            assert "name" not in msg.values       # C quenched on both paths
            assert msg.values["country"] == "UK"
        assert s2.stats.quenched_attributes == 2


    def test_translator_keyed_by_transport_source_not_envelope_header(self, sim):
        """A mask envelope is decoded through the table of the host that
        actually sent the datagram — a forged/forwarded source_host must
        not select another peer's translator (silent relabel)."""
        net, m1, m2, s1, s2 = _pair(sim)
        ctx = SecurityContext.of(["k-a"], [])
        p1 = m1.launch("a", ctx)
        p2 = m2.launch("b", ctx)
        s1.register(p1, lambda a, m: None)
        s2.register(p2, lambda a, m: None)
        s1.send(p1, s2, "b", Message(READING, {"value": 0.0}, context=ctx))
        sim.drain()  # wh2 now holds a translator for wh1

        net.add_host("wh3")  # never handshaked with wh2
        net.send(
            "wh3",
            "wh2",
            MaskBatchEnvelope(
                source_host="wh1",  # header claims the handshaked peer
                source_process="a",
                dest_host="wh2",
                type=READING,
                rows=(("b", {"value": 66.6}, 1000, 0.0),),
                msg_secrecy_mask=ctx.secrecy.mask,
                msg_integrity_mask=0,
                src_secrecy_mask=ctx.secrecy.mask,
                src_integrity_mask=0,
                table_version=1,
            ),
        )
        sim.drain()
        assert s2.stats.dropped_undecodable == 1
        assert s2.stats.delivered == 1  # only the legitimate message

    def test_quenched_substrate_delivery_audits_what_receiver_got(self, sim):
        """As on the bus: the flow-allowed record carries the effective
        context of the delivered (quenched) message, not the base."""
        net, m1, m2, s1, s2 = _pair(sim)
        typed = MessageType(
            "person",
            [
                AttributeSpec("name", str, extra_secrecy=as_tags(["q-pii"])),
                AttributeSpec("country", str, extra_secrecy=as_tags(["q-geo"])),
            ],
        )
        base = SecurityContext.of(["q-A"], [])
        p1 = m1.launch("a", base)
        p2 = m2.launch("b", base.add_secrecy("q-geo"))  # takes geo, not pii
        s1.register(p1, lambda a, m: None)
        got = []
        s2.register(p2, lambda a, m: got.append(m))
        s1.send(p1, s2, "b", Message(typed, {"name": "Ann", "country": "UK"}, context=base))
        sim.drain()
        assert s2.stats.quenched_attributes == 1

        flow = [r for r in m2.audit if r.kind == RecordKind.FLOW_ALLOWED][-1]
        assert flow.detail["quenched"] == ["name"]
        assert flow.source_context == got[0].effective_context()
        logged = {t.qualified for t in flow.source_context.secrecy}
        assert "local:q-geo" in logged and "local:q-pii" not in logged


class TestSatelliteFixes:
    def test_failed_send_does_not_count_as_sent(self, sim):
        """stats.sent must not include sends that raised before reaching
        the network — it is the F9/F10 denial-ratio denominator."""
        net, m1, m2, s1, s2 = _pair(sim)
        p1 = m1.launch("unregistered")
        with pytest.raises(NetworkError):
            s1.send(p1, s2, "b", Message(READING, {"value": 1.0}))
        assert s1.stats.sent == 0

    def test_unroutable_envelope_counted_and_audited(self, sim):
        net, m1, m2, s1, s2 = _pair(sim)
        p1 = m1.launch("a")
        s1.register(p1, lambda a, m: None)
        s1.send(p1, s2, "ghost", Message(READING, {"value": 1.0}))
        sim.drain()
        assert s2.stats.delivered == 0
        assert s2.stats.dropped_unroutable == 1
        records = [r for r in m2.audit if r.kind == RecordKind.MISDELIVERY]
        assert len(records) == 1
        assert records[0].actor == "wh1/a"
        assert records[0].subject == "wh2/ghost"

    def test_unroutable_tagset_rows_intern_nothing(self, sim):
        """A tag-set envelope for a process this substrate does not host
        is dropped before its tag names are decoded: a peer cannot grow
        the process-global interner with rows nothing here can take."""
        net, m1, m2, s1, s2 = _pair(sim)
        interner = global_interner()
        before = len(interner)
        n = 1_000
        for i in range(n):
            net.send("wh1", "wh2", TagSetEnvelope(
                source_host="wh1", source_process="a",
                dest_host="wh2", dest_process="ghost",
                type=READING, values={"value": 1.0}, msg_id=i, sent_at=0.0,
                msg_secrecy=(f"junk:t{i}",), msg_integrity=(),
                src_secrecy=(), src_integrity=(),
            ))
        sim.drain()
        assert len(interner) == before
        assert "junk:t0" not in interner
        assert s2.stats.dropped_unroutable == n
        assert s2.stats.delivered == 0
        records = [r for r in m2.audit if r.kind == RecordKind.MISDELIVERY]
        assert len(records) == n
        assert {(r.actor, r.subject) for r in records} == {("wh1/a", "wh2/ghost")}

    def test_unknown_payload_counted_and_audited(self, sim):
        """A datagram of no known wire format is dropped, but never
        silently: it counts as undecodable and leaves a misdelivery
        record naming its payload type."""
        net, m1, m2, s1, s2 = _pair(sim)
        p2 = m2.launch("b")
        s2.register(p2, lambda a, m: None)
        net.send("wh1", "wh2", ("b", {"value": 1.0}))
        sim.drain()
        assert s2.stats.dropped_undecodable == 1
        assert s2.stats.delivered == 0
        [record] = [r for r in m2.audit if r.kind == RecordKind.MISDELIVERY]
        assert (record.actor, record.subject) == ("wh1", "wh2")
        assert record.detail["payload"] == "tuple"

    def test_stray_gossip_counted_and_audited(self, sim):
        """Gossip reaching a substrate with no mesh node attached is
        unroutable: counted and audited, not dropped in silence."""
        net, m1, m2, s1, s2 = _pair(sim)
        net.send("wh1", "wh2", {"digest": ()}, kind="gossip")
        sim.drain()
        assert s2.stats.dropped_unroutable == 1
        [record] = [r for r in m2.audit if r.kind == RecordKind.MISDELIVERY]
        assert (record.actor, record.subject) == ("wh1", "wh2")
        assert record.detail["payload"] == "dict"
