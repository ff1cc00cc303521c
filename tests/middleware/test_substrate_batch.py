"""Cross-machine send batching: MaskBatchEnvelope and send_batch parity.

``send_batch`` must behave, per (message, sink), exactly like a
``send`` loop — same counters, denials, quenching and audit records —
while hoisting the fixed costs (attestation per host, flow decision per
context, envelope header per group) and shipping one coalesced envelope
per destination host.
"""

import pytest

from repro.audit import RecordKind
from repro.cloud import Machine
from repro.errors import NetworkError
from repro.ifc import PrivilegeSet, SecurityContext, as_tags
from repro.middleware import (
    AttributeSpec,
    MaskBatchEnvelope,
    Message,
    MessageType,
    MessagingSubstrate,
)
from repro.net import Network
from repro.sim import Simulator

READING = MessageType.simple("reading", value=float)


def _world(n_hosts=2, enforce=True, wire_masks=True, seed=0):
    sim = Simulator(seed=seed)
    net = Network(sim)
    machines = [Machine(f"bh{i}", clock=sim.now) for i in range(n_hosts)]
    subs = [
        MessagingSubstrate(m, net, enforce=enforce, wire_masks=wire_masks)
        for m in machines
    ]
    return sim, net, machines, subs


def _warm(sim, sub, process, sinks):
    """Complete the wire handshake with every sink host."""
    for peer, name in sinks:
        sub.send(process, peer, name, Message(READING, {"value": 0.0},
                                              context=process.security))
    sim.drain()


class TestSendBatch:
    def test_batch_delivers_to_every_sink(self, ):
        sim, net, (m1, m2), (s1, s2) = _world()
        ctx = SecurityContext.of(["bt-s"], [])
        p1 = m1.launch("src", ctx)
        pa = m2.launch("a", ctx)
        pb = m2.launch("b", ctx)
        s1.register(p1, lambda a, m: None)
        got = []
        s2.register(pa, lambda a, m: got.append(("a", m.values["value"])))
        s2.register(pb, lambda a, m: got.append(("b", m.values["value"])))
        sinks = [(s2, "a"), (s2, "b")]
        _warm(sim, s1, p1, sinks)
        base = len(got)

        messages = [
            Message(READING, {"value": float(i)}, context=ctx) for i in range(3)
        ]
        assert s1.send_batch(p1, sinks, messages) == 6
        sim.drain()
        assert got[base:] == [
            ("a", 0.0), ("b", 0.0), ("a", 1.0),
            ("b", 1.0), ("a", 2.0), ("b", 2.0),
        ]
        # One shared-context, shared-type group → one coalesced envelope.
        assert s1.stats.sent_batches == 1
        assert s1.stats.sent_masked >= 6

    def test_one_envelope_per_host_context_type_group(self):
        sim, net, (m1, m2), (s1, s2) = _world()
        ctx_a = SecurityContext.of(["bt-a"], [])
        ctx_b = SecurityContext.of(["bt-b"], [])
        p1 = m1.launch("src", SecurityContext.public())
        pa = m2.launch("a", SecurityContext.of(["bt-a", "bt-b"], []))
        s1.register(p1, lambda a, m: None)
        s2.register(pa, lambda a, m: None)
        sinks = [(s2, "a")]
        _warm(sim, s1, p1, sinks)

        payloads = []
        original = s2._receive

        def spy(datagram):
            payloads.append(type(datagram.payload).__name__)
            original(datagram)

        net.set_receiver("bh1", spy)
        s1.send_batch(
            p1,
            sinks,
            [
                Message(READING, {"value": 1.0}, context=ctx_a),
                Message(READING, {"value": 2.0}, context=ctx_a),
                Message(READING, {"value": 3.0}, context=ctx_b),
            ],
        )
        sim.drain()
        # Two contexts → two groups → exactly two batch envelopes.
        assert payloads.count("MaskBatchEnvelope") == 2
        assert s1.stats.sent_batches == 2

    def test_unregistered_sender_raises(self):
        sim, net, (m1, m2), (s1, s2) = _world()
        p1 = m1.launch("ghost")
        with pytest.raises(NetworkError):
            s1.send_batch(p1, [(s2, "x")],
                          [Message(READING, {"value": 1.0})])
        assert s1.stats.sent == 0

    def test_empty_batch_is_a_noop(self):
        sim, net, (m1, m2), (s1, s2) = _world()
        p1 = m1.launch("src")
        s1.register(p1, lambda a, m: None)
        assert s1.send_batch(p1, [], []) == 0
        assert s1.stats.sent == 0

    def test_local_denial_counted_per_message_sink_pair(self):
        sim, net, (m1, m2), (s1, s2) = _world()
        secret = SecurityContext.of(["bt-secret"], [])
        p1 = m1.launch("src", secret)
        pa = m2.launch("a")
        pb = m2.launch("b")
        s1.register(p1, lambda a, m: None)
        s2.register(pa, lambda a, m: None)
        s2.register(pb, lambda a, m: None)
        laundered = [
            Message(READING, {"value": float(i)},
                    context=SecurityContext.public())
            for i in range(2)
        ]
        assert s1.send_batch(p1, [(s2, "a"), (s2, "b")], laundered) == 0
        assert s1.stats.denied_local == 4  # every (message, sink) pair
        assert s1.stats.sent == 4
        denials = [r for r in m1.audit if r.kind == RecordKind.FLOW_DENIED]
        assert len(denials) == 4

    def test_remote_denial_per_row(self):
        sim, net, (m1, m2), (s1, s2) = _world()
        secret = SecurityContext.of(["bt-leak"], [])
        p1 = m1.launch("src", secret)
        pa = m2.launch("a")  # public: may not receive
        s1.register(p1, lambda a, m: None)
        s2.register(pa, lambda a, m: None)
        # Warm the handshake with a context both sides accept.
        ok = SecurityContext.public()
        p_ok = m1.launch("warm", ok)
        s1.register(p_ok, lambda a, m: None)
        _warm(sim, s1, p_ok, [(s2, "a")])
        denied_before = s2.stats.denied_remote

        s1.send_batch(
            p1, [(s2, "a")],
            [Message(READING, {"value": float(i)}, context=secret)
             for i in range(3)],
        )
        sim.drain()
        assert s2.stats.denied_remote - denied_before == 3
        assert s1.stats.sent_batches == 1  # one envelope, three denied rows

    def test_quenching_per_row_matches_send(self):
        typed = MessageType(
            "person",
            [
                AttributeSpec("name", str, extra_secrecy=as_tags(["bt-C"])),
                AttributeSpec("country", str),
            ],
        )
        base = SecurityContext.of(["bt-q"], [])

        def run(batched):
            sim, net, (m1, m2), (s1, s2) = _world()
            p1 = m1.launch("src", base)
            pa = m2.launch("a", base)
            s1.register(p1, lambda a, m: None)
            got = []
            s2.register(pa, lambda a, m: got.append(m))
            _warm(sim, s1, p1, [(s2, "a")])
            messages = [
                Message(typed, {"name": "Ann", "country": "UK"}, context=base)
                for _ in range(3)
            ]
            if batched:
                s1.send_batch(p1, [(s2, "a")], messages)
            else:
                for message in messages:
                    s1.send(p1, s2, "a", message)
            sim.drain()
            flows = [r for r in m2.audit if r.kind == RecordKind.FLOW_ALLOWED]
            return got, s2.stats.quenched_attributes, flows

        got_b, quenched_b, flows_b = run(batched=True)
        got_s, quenched_s, flows_s = run(batched=False)
        assert quenched_b == quenched_s == 3
        for msg in got_b[1:]:
            assert "name" not in msg.values
            assert msg.values["country"] == "UK"
        # The effective-context audit trail matches the send loop.
        essence = lambda flows: [
            (r.actor, r.subject,
             {t.qualified for t in r.source_context.secrecy},
             r.detail.get("quenched"))
            for r in flows
        ]
        assert essence(flows_b) == essence(flows_s)

    def test_deregister_mid_batch_turns_rows_unroutable(self):
        sim, net, (m1, m2), (s1, s2) = _world()
        ctx = SecurityContext.of(["bt-d"], [])
        p1 = m1.launch("src", ctx)
        pa = m2.launch("a", ctx)
        pb = m2.launch("b", ctx)
        s1.register(p1, lambda a, m: None)
        s2.register(pa, lambda a, m: s2.deregister(pb))
        s2.register(pb, lambda a, m: None)
        sinks = [(s2, "a"), (s2, "b")]
        _warm(sim, s1, p1, sinks)
        unroutable_before = s2.stats.dropped_unroutable

        s1.send_batch(p1, sinks,
                      [Message(READING, {"value": 9.0}, context=ctx)])
        sim.drain()
        # Row order is a then b: a's handler deregisters b, so b's row —
        # registry re-read per row — goes unroutable, as per-datagram
        # delivery would have it.
        assert s2.stats.dropped_unroutable - unroutable_before == 1
        assert any(
            r.kind == RecordKind.MISDELIVERY and r.subject == "bh1/b"
            for r in m2.audit
        )

    @pytest.mark.parametrize("batched", [False, True])
    def test_relabel_mid_batch_rechecks_later_rows(self, batched):
        # The receiver's first delivery sheds the tag the messages carry:
        # its later rows must be denied, as later datagrams would be — a
        # decision hoisted per destination holds only while the
        # receiver's context object is unchanged.
        sim, net, (m1, m2), (s1, s2) = _world()
        ctx = SecurityContext.of(["bt-r"], [])
        p1 = m1.launch("src", ctx)
        pa = m2.launch("a", ctx, PrivilegeSet.of(remove_secrecy=["bt-r"]))
        s1.register(p1, lambda a, m: None)
        got = []

        def shed(addr, message):
            got.append(message.values["value"])
            m2.kernel.change_context(pa.pid, SecurityContext.public())

        s2.register(pa, lambda a, m: None)
        _warm(sim, s1, p1, [(s2, "a")])
        s2.register(pa, shed)
        denied_before = s2.stats.denied_remote
        messages = [Message(READING, {"value": float(i)}, context=ctx)
                    for i in range(3)]
        if batched:
            s1.send_batch(p1, [(s2, "a")], messages)
        else:
            for message in messages:
                s1.send(p1, s2, "a", message)
        sim.drain()
        assert got == [0.0]
        assert s2.stats.denied_remote - denied_before == 2

    def test_before_handshake_falls_back_to_tagsets(self):
        sim, net, (m1, m2), (s1, s2) = _world()
        ctx = SecurityContext.of(["bt-f"], [])
        p1 = m1.launch("src", ctx)
        pa = m2.launch("a", ctx)
        s1.register(p1, lambda a, m: None)
        got = []
        s2.register(pa, lambda a, m: got.append(m))

        s1.send_batch(
            p1, [(s2, "a")],
            [Message(READING, {"value": float(i)}, context=ctx)
             for i in range(2)],
        )
        assert s1.stats.sent_tagset == 2
        assert s1.stats.sent_batches == 0
        sim.drain()
        assert len(got) == 2
        # Handshake done: the next batch coalesces.
        s1.send_batch(
            p1, [(s2, "a")],
            [Message(READING, {"value": 9.0}, context=ctx)],
        )
        sim.drain()
        assert s1.stats.sent_batches == 1
        assert len(got) == 3

    def test_stats_parity_with_send_loop(self):
        """Identical worlds, send loop vs send_batch: every per-message
        counter on both sides must agree."""
        ctx = SecurityContext.of(["bt-p"], [])

        def run(batched):
            sim, net, (m1, m2, m3), (s1, s2, s3) = _world(n_hosts=3)
            p1 = m1.launch("src", ctx)
            s1.register(p1, lambda a, m: None)
            for sub, machine in ((s2, m2), (s3, m3)):
                proc = machine.launch("sink", ctx)
                sub.register(proc, lambda a, m: None)
            sinks = [(s2, "sink"), (s3, "sink")]
            _warm(sim, s1, p1, sinks)
            messages = [
                Message(READING, {"value": float(i)}, context=ctx)
                for i in range(5)
            ]
            if batched:
                s1.send_batch(p1, sinks, messages)
            else:
                for message in messages:
                    for peer, name in sinks:
                        s1.send(p1, peer, name, message)
            sim.drain()
            keys = ("sent", "delivered", "denied_local", "denied_remote",
                    "sent_masked", "quenched_attributes")
            return [
                tuple(getattr(sub.stats, k) for k in keys)
                for sub in (s1, s2, s3)
            ]

        assert run(batched=True) == run(batched=False)
