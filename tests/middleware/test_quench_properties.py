"""Property: mask-native quenching agrees with the retired ``Label``
methods (``tests/reference/label_quench.py``) on every delivery path.

Hypothesis draws a schema with 0-4 attributes carrying extra secrecy
(in a random declaration order, beside two plain attributes), which
optional attributes a message leaves out, a carried context and up to
three receiver contexts — receivers whose secrecy does not cover the
carried one included.  The ``Message`` methods, the substrate (``send``,
``send_batch`` with one and with many rows, the tag-set fallback) and
the bus (``route``, one ``publish`` and a run of them) must each deliver
the kept values the oracle keeps, list the attributes it drops, and
audit the effective context it computes for what was delivered.

The schema's tags are fresh names per example, so the property also
sees that declaring a schema interns none of them: tag bits follow
first-use order, and the wire tables and gossip bytes with them.
"""

import itertools

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import AuditLog, RecordKind
from repro.cloud import Machine
from repro.errors import FlowError
from repro.ifc import SecurityContext
from repro.ifc.interner import global_interner
from repro.ifc.tags import as_tags
from repro.middleware import (
    Component,
    EndpointKind,
    Message,
    MessageBus,
    MessagingSubstrate,
)
from repro.middleware.message import AttributeSpec, MessageType
from repro.net import Network
from repro.sim import Simulator
from tests.reference import label_quench as oracle

#: Extra-secrecy attribute names; drawn in a random declaration order.
RISKY = ("d", "b", "c", "a")
#: Plain attributes, declared first and last.
PLAIN = ("x", "z")
POOL = 4
INTEGRITY = ("qi:0", "qi:1")
_fresh = itertools.count()

tag_ixs = st.frozensets(st.integers(0, POOL - 1))
integrity_ixs = st.frozensets(st.integers(0, len(INTEGRITY) - 1))
contexts = st.tuples(tag_ixs, integrity_ixs)
schemas = st.tuples(
    st.permutations(RISKY).flatmap(
        lambda names: st.integers(0, len(names)).map(lambda k: names[:k])
    ),
    st.lists(st.frozensets(st.integers(0, POOL - 1), min_size=1),
             min_size=len(RISKY), max_size=len(RISKY)),
    # Per attribute (plain first): optional?  and, if so, present?
    st.lists(st.tuples(st.booleans(), st.booleans()),
             min_size=len(RISKY) + len(PLAIN),
             max_size=len(RISKY) + len(PLAIN)),
)


def build(schema, carried, receivers):
    """A fresh-tag schema, one valid message's values, and the contexts.

    Checks on the way that declaring the schema interned none of its
    tags.
    """
    risky, extras, flags = schema
    pool = [f"qp{next(_fresh)}:t{i}" for i in range(POOL)]
    names = [PLAIN[0], *risky, PLAIN[1]]
    specs, values = [], {}
    for i, name in enumerate(names):
        optional, present = flags[i]
        extra = (
            frozenset(as_tags([pool[j] for j in extras[i - 1]]))
            if name in risky else frozenset()
        )
        specs.append(AttributeSpec(name, str, required=not optional,
                                   extra_secrecy=extra))
        if present or not optional:
            values[name] = f"v-{name}"
    mtype = MessageType("quenched", specs)
    interner = global_interner()
    assert not any(tag in interner for tag in pool)

    def context(ixs):
        secrecy, integrity = ixs
        return SecurityContext.of([pool[j] for j in sorted(secrecy)],
                                  [INTEGRITY[j] for j in sorted(integrity)])

    return mtype, values, context(carried), [context(r) for r in receivers]


def allowed(source, target):
    """The flow rule on tag sets."""
    return (source.secrecy.tags <= target.secrecy.tags
            and target.integrity.tags <= source.integrity.tags)


def expect(message, receivers):
    """Per receiver: None if denied, else (kept items, dropped, effective)
    as the reference computes them."""
    out = []
    for receiver in receivers:
        if not allowed(message.context, receiver):
            out.append(None)
            continue
        quenched = oracle.quenched_for(message, receiver)
        out.append((
            tuple(quenched.values.items()),
            oracle.dropped_attributes(message, receiver),
            oracle.effective_context(quenched),
        ))
    return out


def essence(deliveries, records, receivers):
    """What one run did: per delivery, in order, (receiver, kept items,
    dropped, effective) from what the handler got and what the audit
    trail says; and the receivers of the denials, in order."""
    names = [f"r{k}" for k in range(len(receivers))]
    allowed_ = [r for r in records if r.kind == RecordKind.FLOW_ALLOWED]
    assert len(allowed_) == len(deliveries)
    out = []
    for (k, items), record in zip(deliveries, allowed_):
        assert record.subject == names[k]
        out.append((k, items, record.detail.get("quenched", []),
                    record.source_context))
    denied = [names.index(r.subject) for r in records
              if r.kind == RecordKind.FLOW_DENIED]
    return out, denied


def flatten(expected_per_message):
    """:func:`expect` per message, in the shape :func:`essence` returns."""
    got, denied = [], []
    for per_receiver in expected_per_message:
        for k, outcome in enumerate(per_receiver):
            if outcome is None:
                denied.append(k)
            else:
                got.append((k, *outcome))
    return got, denied


@settings(max_examples=300, deadline=None)
@given(schemas, contexts, st.lists(contexts, min_size=1, max_size=3))
def test_message_methods_match_reference(schema, carried, receivers):
    mtype, values, ctx, receiver_ctxs = build(schema, carried, receivers)
    message = Message(mtype, values, ctx)
    assert message.effective_context() == oracle.effective_context(message)
    for receiver in receiver_ctxs:
        want = oracle.quenched_for(message, receiver)
        got = message.quenched_for(receiver)
        assert tuple(got.values.items()) == tuple(want.values.items())
        assert got.context is message.context
        assert got.msg_id == message.msg_id
        assert message.dropped_attributes(receiver) == (
            oracle.dropped_attributes(message, receiver)
        )
        assert got.effective_context() == oracle.effective_context(want)


def substrate_runs(mtype, values, ctx, receiver_ctxs):
    """Yield (mode, expected, seen) for every substrate send path."""
    sim = Simulator(seed=0)
    net = Network(sim)
    machines = [Machine(f"qh{i}", clock=sim.now) for i in range(3)]
    masked = MessagingSubstrate(machines[0], net)
    tagset = MessagingSubstrate(machines[1], net, wire_masks=False)
    receiving = MessagingSubstrate(machines[2], net)
    delivered = []
    sinks = []
    for k, receiver in enumerate(receiver_ctxs):
        process = machines[2].launch(f"r{k}", receiver)
        receiving.register(
            process,
            lambda addr, m, k=k: delivered.append((k, tuple(m.values.items()))),
        )
        sinks.append((receiving, f"r{k}"))
    senders = []
    for sub, machine in ((masked, machines[0]), (tagset, machines[1])):
        process = machine.launch("src", ctx)
        sub.register(process, lambda addr, m: None)
        senders.append((sub, process))
    # Complete the wire handshake before anything is compared.
    masked.send(senders[0][1], receiving, "r0", Message(mtype, values, ctx))
    sim.drain()

    def run(mode, sub, process, batched, n, to=None):
        """Ship ``n`` messages to the first ``to`` sinks (all when None)
        by ``send`` loop or one ``send_batch``; return what was seen."""
        targets = sinks[:to]
        messages = [Message(mtype, dict(values), ctx) for __ in range(n)]
        del delivered[:]
        seen_from = sum(1 for __ in machines[2].audit)
        if batched:
            sub.send_batch(process, targets, messages)
        else:
            for message in messages:
                for peer, name in targets:
                    sub.send(process, peer, name, message)
        sim.drain()
        records = list(machines[2].audit)[seen_from:]
        want = flatten([expect(m, receiver_ctxs[:to]) for m in messages])
        return mode, want, essence(delivered, records, receiver_ctxs)

    sub, process = senders[0]
    before = sub.stats.sent_masked, sub.stats.sent_tagset
    yield run("send", sub, process, False, 1)
    yield run("send_batch one row", sub, process, True, 1, to=1)
    yield run("send_batch many rows", sub, process, True, 3)
    assert sub.stats.sent_tagset == before[1]
    assert sub.stats.sent_masked > before[0]
    sub, process = senders[1]
    yield run("tag-set send", sub, process, False, 1)
    yield run("tag-set send_batch", sub, process, True, 2)
    assert sub.stats.sent_tagset and not sub.stats.sent_masked


@settings(max_examples=60, deadline=None)
@given(schemas, contexts, st.lists(contexts, min_size=1, max_size=3))
def test_substrate_paths_match_reference(schema, carried, receivers):
    mtype, values, ctx, receiver_ctxs = build(schema, carried, receivers)
    for mode, want, seen in substrate_runs(mtype, values, ctx, receiver_ctxs):
        assert seen == want, mode


def bus_world(mtype, source_ctx, receiver_ctxs):
    """A bus with one source endpoint connected to every receiver the
    flow rule admits at connect time."""
    audit = AuditLog()
    bus = MessageBus(audit=audit)
    delivered = []
    source = Component("src", source_ctx, owner="op")
    source.add_endpoint("out", EndpointKind.SOURCE, mtype)
    bus.register(source)
    for k, receiver in enumerate(receiver_ctxs):
        sink = Component(f"r{k}", receiver, owner="op")
        sink.add_endpoint(
            "in", EndpointKind.SINK, mtype,
            handler=lambda c, e, m, k=k: delivered.append(
                (k, tuple(m.values.items()))
            ),
        )
        bus.register(sink)
        try:
            bus.connect("op", source, "out", sink, "in")
        except FlowError:
            pass
    return bus, source, audit, delivered


@settings(max_examples=100, deadline=None)
@given(schemas, contexts, st.lists(contexts, min_size=1, max_size=3))
def test_bus_paths_match_reference(schema, carried, receivers):
    mtype, values, ctx, receiver_ctxs = build(schema, carried, receivers)

    # route: a source every receiver accepts re-emits a message carrying
    # ``ctx``, so the per-message rule denies what does not flow.
    open_ctx = SecurityContext.of([], list(INTEGRITY))
    bus, source, audit, delivered = bus_world(mtype, open_ctx, receiver_ctxs)
    assert len(bus.channels) == len(receiver_ctxs)
    message = Message(mtype, dict(values), ctx)
    bus.route(source, "out", message)
    records = [r for r in audit if r.kind in (RecordKind.FLOW_ALLOWED,
                                              RecordKind.FLOW_DENIED)]
    want = flatten([expect(message, receiver_ctxs)])
    assert essence(delivered, records, receiver_ctxs) == want

    # publish, once and three times: the source carries ``ctx`` itself;
    # what does not flow was refused at connect time.
    for n in (1, 3):
        bus, source, audit, delivered = bus_world(mtype, ctx, receiver_ctxs)
        connected = {int(c.sink.name[1:]) for c in bus.channels}
        for __ in range(n):
            bus.publish(source, "out", **values)
        records = [r for r in audit if r.kind == RecordKind.FLOW_ALLOWED]
        got, __ = essence(delivered, records, receiver_ctxs)
        expected = expect(Message(mtype, dict(values), ctx), receiver_ctxs)
        want = []
        for __ in range(n):
            for k, outcome in enumerate(expected):
                assert (outcome is not None) == (k in connected)
                if outcome is not None:
                    want.append((k, *outcome))
        assert got == want, n
