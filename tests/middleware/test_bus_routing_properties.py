"""Property: the bus's per-endpoint route index delivers exactly what
the retired linear channel scan (``tests/reference/scan_router.py``)
delivers.

Hypothesis writes a script of connects, teardowns, relabels (which
suspend and resume channels), deregistrations, and one-shot handler
actions that connect, tear down, relabel or publish from inside a
delivery.  The script interleaves ``publish`` and ``route`` calls and is played once on each bus.  The delivered (sink,
endpoint, message) sequence, every ``DeliveryReport``, and the audit
trail's record kinds must be equal.  After every top-level step the
index must also hold exactly the bus's live channels, grouped by source
endpoint in connect order, with no empty lists.
"""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.accesscontrol import EnforcementMode
from repro.audit import AuditLog
from repro.errors import FlowError
from repro.ifc import PrivilegeSet, SecurityContext
from repro.ifc.tags import as_tags
from repro.middleware import Component, EndpointKind, MessageBus, MessageType
from repro.middleware import message as message_module
from repro.middleware.message import AttributeSpec
from tests.reference.scan_router import ScanRouteBus

READING = MessageType(
    "reading",
    [
        AttributeSpec("value", float),
        # Extra secrecy: quenched for sinks not holding "s".
        AttributeSpec("note", str, required=False, extra_secrecy=as_tags(["s"])),
    ],
)
SOURCES, SINKS, ENDPOINTS = 2, 3, ("out", "alt")

source_ix = st.integers(0, SOURCES - 1)
sink_ix = st.integers(0, SINKS - 1)
endpoint = st.sampled_from(ENDPOINTS)
component_ix = st.integers(0, SOURCES + SINKS - 1)

connect = st.tuples(st.just("connect"), source_ix, endpoint, sink_ix)
teardown = st.tuples(st.just("teardown"), st.integers(0, 30))
relabel = st.tuples(st.just("relabel"), component_ix)
deregister = st.tuples(st.just("deregister"), component_ix)
publish = st.tuples(st.just("publish"), source_ix, endpoint, st.booleans())
route = st.tuples(st.just("route"), source_ix, endpoint)
# Handler-only: connect from, or tear down a channel of, the endpoint
# whose route is delivering right now.
connect_here = st.tuples(st.just("connect-here"), sink_ix)
teardown_here = st.tuples(st.just("teardown-here"), st.integers(0, 5))
# What a handler may do once, from inside a delivery.
handler_action = st.one_of(
    connect_here, teardown_here, teardown_here, connect, teardown, relabel,
    relabel, deregister, publish,
)
arm = st.tuples(st.just("arm"), sink_ix, handler_action)
step = st.one_of(
    connect, connect, teardown, relabel, deregister, publish, publish, route,
    arm, arm,
)


def play(bus_cls, mode, secret, script):
    """Run ``script`` on a fresh ``bus_cls`` whose components start with
    secrecy ``{"s"}`` where ``secret`` says so; return what it saw."""
    base = next(message_module._msg_counter)
    audit = AuditLog()
    bus = bus_cls(audit=audit, mode=mode)
    privileges = PrivilegeSet.of(add_secrecy=["s"], remove_secrecy=["s"])
    seen, reports, made = [], [], []
    routing = []  # (source, endpoint name) of each route in progress
    armed = {k: [] for k in range(SINKS)}

    def make_handler(k):
        def handler(component, endpoint, message):
            seen.append((component.name, endpoint.name, message.msg_id - base,
                         tuple(sorted(message.values))))
            if armed[k]:
                act(armed[k].pop(0))
        return handler

    def context(i):
        return SecurityContext.of(["s"] if secret[i] else [], [])

    sources = []
    for i in range(SOURCES):
        source = Component(f"src{i}", context(i), privileges, owner="op")
        for name in ENDPOINTS:
            source.add_endpoint(name, EndpointKind.SOURCE, READING)
        sources.append(bus.register(source))
    sinks = []
    for k in range(SINKS):
        sink = Component(f"sink{k}", context(SOURCES + k), privileges,
                         owner="op")
        sink.add_endpoint("in", EndpointKind.SINK, READING,
                          handler=make_handler(k))
        sinks.append(bus.register(sink))
    components = sources + sinks

    def values(note):
        return {"value": 1.0, "note": "n"} if note else {"value": 1.0}

    def connect_(source, ep, k):
        try:
            made.append(bus.connect("op", source, ep, sinks[k], "in"))
        except FlowError:
            seen.append("flow-error")

    def routed(s, ep, call):
        routing.append((sources[s], ep))
        try:
            reports.append(call())
        finally:
            routing.pop()

    def act(op):
        kind = op[0]
        if kind == "connect":
            __, s, ep, k = op
            connect_(sources[s], ep, k)
        elif kind == "connect-here":
            connect_(*routing[-1], op[1])
        elif kind == "teardown":
            if made:
                made[op[1] % len(made)].teardown("script")
        elif kind == "teardown-here":
            source, ep = routing[-1]
            here = [c for c in made if c.alive and c.source is source
                    and c.source_endpoint.name == ep]
            if here:
                here[op[1] % len(here)].teardown("mid-route")
        elif kind == "relabel":
            component = components[op[1]]
            if "s" in component.context.secrecy:
                component.remove_secrecy("s")
            else:
                component.add_secrecy("s")
        elif kind == "deregister":
            component = components[op[1]]
            bus.deregister(component)
            bus.register(component)
        elif kind == "publish":
            __, s, ep, note = op
            routed(s, ep, lambda: bus.publish(sources[s], ep, **values(note)))
        elif kind == "route":
            __, s, ep = op
            message = sources[s].make_message(ep, value=2.0)
            routed(s, ep, lambda: bus.route(sources[s], ep, message))
        elif kind == "arm":
            armed[op[1]].append(op[2])

    for op in script:
        act(op)
        if bus_cls is MessageBus:
            check_index(bus)
    return {
        "seen": seen,
        "reports": [vars(r) for r in reports],
        "stats": vars(bus.stats),
        "channels": [(c.source.name, c.source_endpoint.name, c.sink.name,
                      c.state) for c in bus.channels],
        "audit": [(r.kind, r.actor, r.subject) for r in audit],
    }


def check_index(bus):
    """Outside a route the index is exactly ``channels`` grouped by
    source endpoint, every list non-empty and in connect order."""
    assert all(c.alive for c in bus.channels)
    grouped = {}
    for channel in bus.channels:
        key = (id(channel.source), id(channel.source_endpoint))
        grouped.setdefault(key, []).append(channel)
    assert bus._routes == grouped
    assert not bus._compact_pending


@settings(max_examples=300, deadline=None)
@given(
    mode=st.sampled_from(list(EnforcementMode)),
    secret=st.lists(st.booleans(), min_size=SOURCES + SINKS,
                    max_size=SOURCES + SINKS),
    wiring=st.lists(connect, min_size=3, max_size=10),
    steps=st.lists(step, min_size=10, max_size=40),
)
# A channel suspended at the start of a run of publishes resumes mid-run
# (sink0's handler relabels sink1) and must carry the rest of the run.
@example(
    mode=EnforcementMode.AC_AND_IFC,
    secret=[False, False, True, False, False],
    wiring=[("connect", 0, "out", 0), ("connect", 0, "out", 1)],
    steps=[("relabel", 0), ("arm", 0, ("relabel", 3)),
           ("publish", 0, "out", False), ("publish", 0, "out", False),
           ("publish", 0, "out", False)],
)
def test_route_index_delivers_what_the_scan_delivers(
    mode, secret, wiring, steps
):
    script = wiring + steps
    assert play(MessageBus, mode, secret, script) == play(
        ScanRouteBus, mode, secret, script
    )
