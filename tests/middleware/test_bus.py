"""Bus: registration, channel establishment, per-message enforcement."""

import pytest

from repro.accesscontrol import EnforcementMode
from repro.audit import AuditLog, RecordKind
from repro.errors import AccessDenied, DiscoveryError, FlowError, SchemaError
from repro.ifc import SecurityContext
from repro.middleware import (
    Component,
    EndpointKind,
    MessageBus,
    MessageType,
)
from tests.conftest import make_component


@pytest.fixture
def bus(audit):
    return MessageBus(audit=audit)


class TestRegistry:
    def test_duplicate_names_rejected(self, bus, reading_type, ann_device):
        bus.register(make_component("a", ann_device, reading_type))
        with pytest.raises(DiscoveryError):
            bus.register(make_component("a", ann_device, reading_type))

    def test_unknown_component_lookup(self, bus):
        with pytest.raises(DiscoveryError):
            bus.component("ghost")

    def test_deregister_tears_channels(self, bus, reading_type, ann_device):
        a = bus.register(make_component("a", ann_device, reading_type, owner="op"))
        b = bus.register(make_component("b", ann_device, reading_type, owner="op"))
        channel = bus.connect("op", a, "out", b, "in")
        bus.deregister(a)
        assert not channel.alive


class TestConnect:
    def test_endpoint_type_mismatch(self, bus, ann_device):
        readings = MessageType.simple("reading", value=float)
        alerts = MessageType.simple("alert", text=str)
        a = Component("a", ann_device, owner="op")
        a.add_endpoint("out", EndpointKind.SOURCE, readings)
        b = Component("b", ann_device, owner="op")
        b.add_endpoint("in", EndpointKind.SINK, alerts)
        bus.register(a)
        bus.register(b)
        with pytest.raises(SchemaError):
            bus.connect("op", a, "out", b, "in")

    def test_sink_cannot_be_source(self, bus, reading_type, ann_device):
        a = make_component("a", ann_device, reading_type, owner="op")
        b = make_component("b", ann_device, reading_type, owner="op")
        bus.register(a)
        bus.register(b)
        with pytest.raises(SchemaError):
            bus.connect("op", a, "in", b, "out")

    def test_unauthorised_initiator_rejected(self, bus, reading_type, ann_device, audit):
        a = bus.register(make_component("a", ann_device, reading_type, owner="alice"))
        b = bus.register(make_component("b", ann_device, reading_type, owner="bob"))
        with pytest.raises(AccessDenied):
            bus.connect("mallory", a, "out", b, "in")
        assert any(r.kind == RecordKind.ACCESS_DENIED for r in audit)

    def test_controller_of_either_end_may_connect(self, bus, reading_type, ann_device):
        a = bus.register(make_component("a", ann_device, reading_type, owner="alice"))
        b = bus.register(make_component("b", ann_device, reading_type, owner="bob"))
        bus.connect("alice", a, "out", b, "in")  # alice controls the source

    def test_ifc_check_at_establishment(self, bus, reading_type, zeb_device, ann_analyser, audit):
        zeb = bus.register(make_component("zeb", zeb_device, reading_type, owner="op"))
        ann = bus.register(make_component("ann", ann_analyser, reading_type, owner="op"))
        with pytest.raises(FlowError):
            bus.connect("op", zeb, "out", ann, "in")
        assert audit.denials()

    def test_establishment_audited(self, bus, reading_type, ann_device, audit):
        a = bus.register(make_component("a", ann_device, reading_type, owner="op"))
        b = bus.register(make_component("b", ann_device, reading_type, owner="op"))
        bus.connect("op", a, "out", b, "in")
        assert any(r.kind == RecordKind.CHANNEL_ESTABLISHED for r in audit)


class TestDelivery:
    def _wired(self, bus, reading_type, ctx_a, ctx_b):
        a = bus.register(make_component("a", ctx_a, reading_type, owner="op"))
        received = []
        b = Component("b", ctx_b, owner="op")
        b.add_endpoint(
            "in", EndpointKind.SINK, reading_type,
            handler=lambda c, e, m: received.append(m),
        )
        bus.register(b)
        bus.connect("op", a, "out", b, "in")
        return a, b, received

    def test_publish_delivers(self, bus, reading_type, ann_device):
        a, b, received = self._wired(bus, reading_type, ann_device, ann_device)
        report = bus.publish(a, "out", value=1.0)
        assert report.delivered == 1
        assert received[0].values["value"] == 1.0

    def test_message_carries_sender_context(self, bus, reading_type, ann_device):
        a, b, received = self._wired(bus, reading_type, ann_device, ann_device)
        bus.publish(a, "out", value=1.0)
        assert received[0].context == ann_device

    def test_per_message_denial_when_context_escalates(
        self, bus, reading_type, ann_device
    ):
        from repro.ifc import PrivilegeSet

        a = Component(
            "a", ann_device, PrivilegeSet.of(add_secrecy=["extra"]), owner="op"
        )
        a.add_endpoint("out", EndpointKind.SOURCE, reading_type)
        received = []
        b = Component("b", ann_device, owner="op")
        b.add_endpoint("in", EndpointKind.SINK, reading_type,
                       handler=lambda c, e, m: received.append(m))
        bus.register(a)
        bus.register(b)
        bus.connect("op", a, "out", b, "in")
        # Source escalates: the standing channel suspends, deliveries stop.
        a.add_secrecy("extra")
        report = bus.publish(a, "out", value=2.0)
        assert report.delivered == 0
        assert received == []

    def test_publish_without_channels_goes_nowhere(self, bus, reading_type, ann_device):
        a = bus.register(make_component("lonely", ann_device, reading_type))
        report = bus.publish(a, "out", value=1.0)
        assert report.sent == 0

    def test_fanout_counts(self, bus, reading_type, ann_device):
        a = bus.register(make_component("a", ann_device, reading_type, owner="op"))
        sinks = []
        for i in range(3):
            sink = make_component(f"s{i}", ann_device, reading_type, owner="op")
            bus.register(sink)
            bus.connect("op", a, "out", sink, "in")
            sinks.append(sink)
        report = bus.publish(a, "out", value=1.0)
        assert report.sent == 3
        assert report.delivered == 3

    def test_ac_only_mode_skips_ifc(self, reading_type, zeb_device, ann_analyser):
        bus = MessageBus(mode=EnforcementMode.AC_ONLY)
        zeb = bus.register(make_component("zeb", zeb_device, reading_type, owner="op"))
        ann = bus.register(make_component("ann", ann_analyser, reading_type, owner="op"))
        bus.connect("op", zeb, "out", ann, "in")  # AC-only: allowed
        report = bus.publish(zeb, "out", value=1.0)
        assert report.delivered == 1  # the leak the paper warns about

    def test_quenched_delivery_audits_what_receiver_actually_got(
        self, bus, ann_device, audit
    ):
        """The flow-allowed record must carry the effective context of the
        *delivered* (quenched) message, not the base context — the
        quenched case is exactly when the trail must show the reduced
        view."""
        from repro.ifc import as_tags
        from repro.middleware import AttributeSpec

        typed = MessageType(
            "person",
            [
                AttributeSpec("name", str, extra_secrecy=as_tags(["pii"])),
                AttributeSpec("country", str, extra_secrecy=as_tags(["geo"])),
            ],
        )
        receiver_ctx = ann_device.add_secrecy("geo")  # takes geo, not pii
        a = Component("a", ann_device, owner="op")
        a.add_endpoint("out", EndpointKind.SOURCE, typed)
        received = []
        b = Component("b", receiver_ctx, owner="op")
        b.add_endpoint("in", EndpointKind.SINK, typed,
                       handler=lambda c, e, m: received.append(m))
        bus.register(a)
        bus.register(b)
        bus.connect("op", a, "out", b, "in")
        report = bus.publish(a, "out", name="Ann", country="UK")
        assert report.quenched_attributes == 1

        flow = [r for r in audit if r.kind == RecordKind.FLOW_ALLOWED][-1]
        assert flow.detail["quenched"] == ["name"]
        # Logged context == effective context of the delivered message:
        # base + geo (country kept), without pii (name quenched).
        assert flow.source_context == received[0].effective_context()
        assert "local:geo" in {t.qualified for t in flow.source_context.secrecy}
        assert "local:pii" not in {t.qualified for t in flow.source_context.secrecy}

    def test_unquenched_delivery_still_audits_effective_context(
        self, bus, ann_device, audit
    ):
        from repro.ifc import as_tags
        from repro.middleware import AttributeSpec

        typed = MessageType(
            "person", [AttributeSpec("name", str, extra_secrecy=as_tags(["pii"]))]
        )
        rich = ann_device.add_secrecy("pii")
        a = Component("a", ann_device, owner="op")
        a.add_endpoint("out", EndpointKind.SOURCE, typed)
        b = Component("b", rich, owner="op")
        b.add_endpoint("in", EndpointKind.SINK, typed, handler=lambda c, e, m: None)
        bus.register(a)
        bus.register(b)
        bus.connect("op", a, "out", b, "in")
        report = bus.publish(a, "out", name="Ann")
        assert report.quenched_attributes == 0
        flow = [r for r in audit if r.kind == RecordKind.FLOW_ALLOWED][-1]
        assert "local:pii" in {t.qualified for t in flow.source_context.secrecy}

    def test_quenching_counted_in_stats(self, bus, ann_device):
        from repro.ifc import as_tags
        from repro.middleware import AttributeSpec

        typed = MessageType(
            "person",
            [
                AttributeSpec("name", str, extra_secrecy=as_tags(["pii"])),
                AttributeSpec("country", str),
            ],
        )
        a = Component("a", ann_device, owner="op")
        a.add_endpoint("out", EndpointKind.SOURCE, typed)
        received = []
        b = Component("b", ann_device, owner="op")
        b.add_endpoint("in", EndpointKind.SINK, typed,
                       handler=lambda c, e, m: received.append(m))
        bus.register(a)
        bus.register(b)
        bus.connect("op", a, "out", b, "in")
        report = bus.publish(a, "out", name="Ann", country="UK")
        assert report.delivered == 1
        assert report.quenched_attributes == 1
        assert "name" not in received[0].values


class TestChannelCompaction:
    """Torn-down channels must leave the scan list (unbounded growth and
    O(dead) route cost on long-running buses otherwise)."""

    def test_teardown_removes_channel_from_bus(self, bus, reading_type, ann_device):
        a = bus.register(make_component("a", ann_device, reading_type, owner="op"))
        b = bus.register(make_component("b", ann_device, reading_type, owner="op"))
        channel = bus.connect("op", a, "out", b, "in")
        assert channel in bus.channels
        bus.disconnect(channel)
        assert channel not in bus.channels

    def test_long_running_bus_does_not_accumulate_dead_channels(
        self, bus, reading_type, ann_device
    ):
        a = bus.register(make_component("a", ann_device, reading_type, owner="op"))
        b = bus.register(make_component("b", ann_device, reading_type, owner="op"))
        for __ in range(100):
            channel = bus.connect("op", a, "out", b, "in")
            channel.teardown("churn")
        assert len(bus.channels) == 0

    def test_deregister_compacts(self, bus, reading_type, ann_device):
        a = bus.register(make_component("a", ann_device, reading_type, owner="op"))
        b = bus.register(make_component("b", ann_device, reading_type, owner="op"))
        bus.connect("op", a, "out", b, "in")
        bus.deregister(a)
        assert bus.channels == []

    def test_suspended_channels_stay(self, bus, reading_type, ann_device):
        from repro.ifc import PrivilegeSet

        a = Component(
            "a", ann_device, PrivilegeSet.of(add_secrecy=["extra"]), owner="op"
        )
        a.add_endpoint("out", EndpointKind.SOURCE, reading_type)
        b = make_component("b", ann_device, reading_type, owner="op")
        bus.register(a)
        bus.register(b)
        channel = bus.connect("op", a, "out", b, "in")
        a.add_secrecy("extra")  # suspends (alive, not active)
        assert not channel.active and channel.alive
        assert channel in bus.channels

    def test_mid_route_teardown_does_not_disturb_fanout(
        self, bus, reading_type, ann_device
    ):
        """A handler tearing down channels mid-delivery must not change
        which of the remaining channels see the message (deferred
        compaction, not list mutation under the iterator)."""
        a = bus.register(make_component("a", ann_device, reading_type, owner="op"))
        channels = []
        received = []

        def make_sink(i):
            sink = Component(f"s{i}", ann_device, owner="op")

            def handler(c, e, m):
                received.append(i)
                if i == 0:
                    # First sink collapses the LAST channel mid-fan-out …
                    channels[-1].teardown("mid-route")

            sink.add_endpoint("in", EndpointKind.SINK, reading_type, handler=handler)
            bus.register(sink)
            channels.append(bus.connect("op", a, "out", sink, "in"))

        for i in range(4):
            make_sink(i)
        report = bus.publish(a, "out", value=1.0)
        # … so sinks 0-2 deliver, 3 is skipped (same as pre-compaction
        # semantics: the torn-down channel is inactive when reached) …
        assert received == [0, 1, 2]
        assert report.delivered == 3
        # … and compaction happens once the route finishes.
        assert channels[-1] not in bus.channels
        assert len(bus.channels) == 3

    def test_mid_route_connect_from_same_endpoint_serves_current_message(
        self, bus, reading_type, ann_device
    ):
        """A handler connecting from the publishing endpoint appends to
        the route list being walked, so the new channel gets this
        message too (after the channels connected before it)."""
        a = bus.register(make_component("a", ann_device, reading_type, owner="op"))
        received = []
        late = Component("late", ann_device, owner="op")
        late.add_endpoint("in", EndpointKind.SINK, reading_type,
                          handler=lambda c, e, m: received.append(("late", m.msg_id)))
        bus.register(late)

        def first_handler(c, e, m):
            received.append(("first", m.msg_id))
            if len(received) == 1:
                bus.connect("op", a, "out", late, "in")

        first = Component("first", ann_device, owner="op")
        first.add_endpoint("in", EndpointKind.SINK, reading_type, handler=first_handler)
        bus.register(first)
        bus.connect("op", a, "out", first, "in")

        report = bus.publish(a, "out", value=1.0)
        msg_id = received[0][1]
        assert received == [("first", msg_id), ("late", msg_id)]
        assert (report.sent, report.delivered) == (2, 2)

    def test_resumed_channel_keeps_its_place_in_delivery_order(
        self, bus, reading_type, ann_device
    ):
        """Suspended channels stay indexed: on resume they deliver in
        connect order again, for publish and publish_batch alike, and
        one resumed mid-batch carries the rest of the batch."""
        from repro.ifc import PrivilegeSet

        both = PrivilegeSet.of(add_secrecy=["extra"], remove_secrecy=["extra"])
        a = Component("a", ann_device, both, owner="op")
        a.add_endpoint("out", EndpointKind.SOURCE, reading_type)
        bus.register(a)
        order = []

        def make_sink(name, context):
            sink = Component(name, context, both, owner="op")
            sink.add_endpoint("in", EndpointKind.SINK, reading_type,
                              handler=lambda c, e, m: order.append(name))
            bus.register(sink)
            return sink, bus.connect("op", a, "out", sink, "in")

        cleared = ann_device.add_secrecy("extra")
        s0, __ = make_sink("s0", cleared)
        s1, middle = make_sink("s1", ann_device)
        make_sink("s2", cleared)

        a.add_secrecy("extra")  # s1 cannot read "extra": suspended
        assert middle.alive and not middle.active
        bus.publish(a, "out", value=1.0)
        assert order == ["s0", "s2"]

        a.remove_secrecy("extra")  # resumes in its old place
        order.clear()
        bus.publish(a, "out", value=1.0)
        bus.publish_batch(a, "out", [{"value": 2.0}])
        assert order == ["s0", "s1", "s2"] * 2

        # Suspend again, then let s0's handler clear s1 mid-batch.
        a.add_secrecy("extra")
        order.clear()

        def clear_s1(c, e, m):
            order.append("s0")
            if "extra" not in s1.context.secrecy:
                s1.add_secrecy("extra")

        s0.endpoints["in"].handler = clear_s1
        bus.publish_batch(a, "out", [{"value": 3.0}] * 2)
        assert order == ["s0", "s1", "s2"] * 2

    def test_connect_teardown_churn_leaves_route_index_empty(
        self, reading_type, ann_device
    ):
        """Memory guard: 10,000 connect/teardown cycles over several
        endpoints, half torn down from inside a delivery, leave no
        channel, route list or pending compaction behind."""
        bus = MessageBus()
        sources = [
            bus.register(make_component(f"a{i}", ann_device, reading_type, owner="op"))
            for i in range(4)
        ]
        current = []

        def drop_mid_route(c, e, m):
            current.pop().teardown("mid-route")

        sink = Component("sink", ann_device, owner="op")
        sink.add_endpoint("in", EndpointKind.SINK, reading_type, handler=drop_mid_route)
        bus.register(sink)
        for cycle in range(10_000):
            source = sources[cycle % len(sources)]
            channel = bus.connect("op", source, "out", sink, "in")
            if cycle % 2:
                channel.teardown("churn")
            else:
                current.append(channel)
                assert bus.publish(source, "out", value=1.0).delivered == 1
        assert bus.channels == []
        assert bus._routes == {}
        assert not bus._compact_pending

    def test_mid_batch_teardown_keeps_later_messages_flowing(
        self, bus, reading_type, ann_device
    ):
        """publish_batch: a handler disconnecting its own channel on the
        first message must stop deliveries to it without disturbing the
        other channel's remaining messages."""
        a = bus.register(make_component("a", ann_device, reading_type, owner="op"))
        seen = {"keep": 0, "drop": 0}

        keep = Component("keep", ann_device, owner="op")
        keep.add_endpoint(
            "in", EndpointKind.SINK, reading_type,
            handler=lambda c, e, m: seen.__setitem__("keep", seen["keep"] + 1),
        )
        bus.register(keep)
        bus.connect("op", a, "out", keep, "in")

        drop = Component("drop", ann_device, owner="op")

        def drop_handler(c, e, m):
            seen["drop"] += 1
            bus.disconnect(drop_channel, "one and done")

        drop.add_endpoint("in", EndpointKind.SINK, reading_type, handler=drop_handler)
        bus.register(drop)
        drop_channel = bus.connect("op", a, "out", drop, "in")

        report = bus.publish_batch(a, "out", [{"value": float(i)} for i in range(5)])
        assert seen["keep"] == 5
        assert seen["drop"] == 1
        assert report.delivered == 6
        assert drop_channel not in bus.channels
