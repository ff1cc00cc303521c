"""The message bus: component registry, channel management, delivery.

The bus is the middleware core: it registers components, establishes
channels (running the §8.2.2 two-stage AC + IFC check), routes messages
along channels with per-message IFC re-evaluation and message-level
quenching (Fig. 10), and audits everything.  An
:class:`~repro.accesscontrol.pep.EnforcementMode` switch provides the
AC-only baseline used throughout EXPERIMENTS.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

from repro.accesscontrol.pep import EnforcementMode
from repro.audit.log import AuditLog
from repro.audit.records import RecordKind
from repro.audit.spine import bind_source
from repro.errors import AccessDenied, DiscoveryError, FlowError, SchemaError
from repro.ifc.decisions import DecisionPlane
from repro.middleware.channel import Channel
from repro.middleware.component import Component, Endpoint
from repro.middleware.message import Message

#: AC hook: decides whether ``initiator`` may connect source→sink.
#: Default policy is owner-or-controller based; richer deployments plug
#: in certificate/RBAC checks here.
ConnectAuthoriser = Callable[[str, Component, Component], bool]


def default_authoriser(initiator: str, source: Component, sink: Component) -> bool:
    """Allow a connection when the initiator controls either end, or owns
    both.  This is the SBUS-style peer AC regime in miniature."""
    return source.is_controller(initiator) or sink.is_controller(initiator)


@dataclass
class DeliveryReport:
    """What happened when a message was pushed through a channel fan-out."""

    sent: int = 0
    delivered: int = 0
    denied: int = 0
    quenched_attributes: int = 0


class MessageBus:
    """The middleware bus for co-located (intra-domain) components.

    Cross-machine transfer composes this with
    :class:`repro.middleware.substrate.MessagingSubstrate`; the bus alone
    models one administrative domain's middleware instance.

    ``channels`` lists every live channel in connect order.  Delivery
    reads a route index instead: each source endpoint's live channels,
    keyed by the identity of the (component, endpoint) pair and kept in
    connect order, so a publish costs its own fan-out rather than the
    bus's channel count.  Both change only in :meth:`connect`, the
    teardown hook and the compaction that ends the outermost route
    (see ``docs/bus_plane.md``).

    Example::

        bus = MessageBus(audit=log)
        bus.register(sensor)
        bus.register(analyser)
        bus.connect("hospital", sensor, "out", analyser, "in")
        bus.publish(sensor, "out", reading=38.2)
    """

    def __init__(
        self,
        audit: Optional[AuditLog] = None,
        mode: EnforcementMode = EnforcementMode.AC_AND_IFC,
        authoriser: ConnectAuthoriser = default_authoriser,
        clock: Optional[Callable[[], float]] = None,
    ):
        # Given an AuditSpine (or an emitter onto one), deliveries stage
        # records under the "bus" segment and chaining happens off the
        # delivery path; a plain AuditLog keeps synchronous semantics.
        self.audit = bind_source(audit, "bus")
        self.mode = mode
        self.authoriser = authoriser
        self._clock = clock or (lambda: 0.0)
        self.components: Dict[str, Component] = {}
        self.channels: List[Channel] = []
        # (id(source), id(source endpoint)) -> that endpoint's live
        # channels in connect order.  Ids are safe keys: the channels in
        # a list hold both objects, and an entry goes with its last
        # channel.
        self._routes: Dict[Tuple[int, int], List[Channel]] = {}
        self.stats = DeliveryReport()
        # Torn-down channels are compacted out of `channels` and the
        # route index so route() never walks dead entries; removal is
        # deferred while a route is iterating (handlers may tear down
        # channels mid-delivery) and the keys to compact collect here.
        self._route_depth = 0
        self._compact_pending: Set[Tuple[int, int]] = set()
        #: The bus-wide decision plane: every IFC evaluation this bus (and
        #: its channels) performs is evaluated and audited through here.
        self.plane = DecisionPlane(audit=self.audit)

    # -- registry -----------------------------------------------------------------

    def register(self, component: Component) -> Component:
        """Add a component to the bus."""
        if component.name in self.components:
            raise DiscoveryError(f"component already registered: {component.name}")
        self.components[component.name] = component
        return component

    def deregister(self, component: Component) -> None:
        """Remove a component, tearing down its channels."""
        self.components.pop(component.name, None)
        for channel in self.channels_of(component):
            channel.teardown(f"{component.name} deregistered")

    def component(self, name: str) -> Component:
        """Look up a registered component."""
        try:
            return self.components[name]
        except KeyError:
            raise DiscoveryError(f"unknown component: {name}") from None

    def channels_of(self, component: Component) -> List[Channel]:
        """All live (active or suspended) channels touching a component."""
        return [
            c
            for c in self.channels
            if c.alive and (c.source is component or c.sink is component)
        ]

    # -- channel establishment -------------------------------------------------------

    def connect(
        self,
        initiator: str,
        source: Component,
        source_endpoint: str,
        sink: Component,
        sink_endpoint: str,
    ) -> Channel:
        """Establish a channel source:endpoint → sink:endpoint.

        Runs, in order (§8.2.2): endpoint type compatibility, the AC
        regime (via the pluggable authoriser), then the IFC flow rule
        over the two components' security contexts.  All outcomes are
        audited.

        Raises:
            SchemaError: incompatible endpoints.
            AccessDenied: the AC regime refused the initiator.
            FlowError: the components' tags do not accord.
        """
        src_ep = source.endpoint(source_endpoint)
        dst_ep = sink.endpoint(sink_endpoint)
        if not dst_ep.accepts(src_ep):
            raise SchemaError(
                f"endpoint mismatch: {source.name}:{source_endpoint} "
                f"({src_ep.kind.value}/{src_ep.message_type.name}) cannot feed "
                f"{sink.name}:{sink_endpoint} "
                f"({dst_ep.kind.value}/{dst_ep.message_type.name})"
            )

        if self.mode in (EnforcementMode.AC_ONLY, EnforcementMode.AC_AND_IFC):
            if not self.authoriser(initiator, source, sink):
                if self.audit is not None:
                    self.audit.append(
                        RecordKind.ACCESS_DENIED,
                        initiator,
                        f"{source.name}->{sink.name}",
                        {"reason": "connect not authorised"},
                    )
                raise AccessDenied(
                    f"{initiator} may not connect {source.name} to {sink.name}"
                )

        if self.mode in (EnforcementMode.IFC_ONLY, EnforcementMode.AC_AND_IFC):
            decision = self.plane.evaluate(source.context, sink.context)
            if not decision.allowed:
                self.plane.audit_denied(
                    source.name, sink.name, decision.reason,
                    source.context, sink.context,
                )
                raise FlowError(source.name, sink.name, decision.reason)

        channel = Channel(
            source, src_ep, sink, dst_ep, audit=self.audit, plane=self.plane
        )
        channel.on_teardown.append(self._channel_torn_down)
        self.channels.append(channel)
        # Appended in place: a route iterating this list (a handler
        # connecting mid-delivery) serves the new channel too.
        self._routes.setdefault((id(source), id(src_ep)), []).append(channel)
        if self.audit is not None:
            self.audit.append(
                RecordKind.CHANNEL_ESTABLISHED,
                initiator,
                f"{source.name}->{sink.name}",
                {
                    "channel": channel.channel_id,
                    "type": src_ep.message_type.name,
                },
                source_context=source.context,
                target_context=sink.context,
            )
        return channel

    def disconnect(self, channel: Channel, reason: str = "requested") -> None:
        """Tear down a channel."""
        channel.teardown(reason)

    def _channel_torn_down(self, channel: Channel, reason: str) -> None:
        """Teardown hook: drop the channel from ``channels`` and its
        endpoint's route list, and the list itself once it is empty.

        Mid-route teardowns (a handler disconnecting, a context change
        collapsing a channel) must not mutate a list being iterated —
        those compact once the outermost route finishes instead, so a
        long-running bus never accumulates dead channels either way.
        """
        key = (id(channel.source), id(channel.source_endpoint))
        if self._route_depth:
            self._compact_pending.add(key)
            return
        try:
            self.channels.remove(channel)
        except ValueError:
            pass
        routes = self._routes[key]
        routes.remove(channel)
        if not routes:
            del self._routes[key]

    def _channels_from(self, source: Component, src_ep: Endpoint) -> Sequence[Channel]:
        """``src_ep``'s route list: its live channels in connect order.

        The list itself, not a copy — a connect from this endpoint
        during a route appends to what the route is walking.
        """
        return self._routes.get((id(source), id(src_ep)), ())

    def _end_route(self) -> None:
        """Leave one route level; the outermost compacts deferred
        teardowns out of ``channels`` and the touched route lists."""
        self._route_depth -= 1
        if self._route_depth or not self._compact_pending:
            return
        self.channels = [c for c in self.channels if c.alive]
        for key in self._compact_pending:
            live = [c for c in self._routes[key] if c.alive]
            if live:
                self._routes[key] = live
            else:
                del self._routes[key]
        self._compact_pending.clear()

    # -- delivery ---------------------------------------------------------------------

    def publish(self, source: Component, endpoint_name: str, **values) -> DeliveryReport:
        """Emit a message from a source endpoint along all its channels.

        Per-message enforcement (the channel-establishment check is
        necessary but not sufficient — contexts and message-level tags
        vary per message): the message's *effective* context must flow to
        each receiver; otherwise attribute quenching is attempted, and if
        the base context itself cannot flow, delivery is denied and
        audited.
        """
        message = source.make_message(endpoint_name, **values)
        message.sent_at = self._clock()
        return self.route(source, endpoint_name, message)

    def publish_batch(
        self, source: Component, endpoint_name: str, batch: List[Dict]
    ) -> DeliveryReport:
        """Publish many messages from one endpoint: a :meth:`publish`
        per entry, then one audit flush, so the chain hashing of the
        batch's records runs in one chunk (see ``AuditLog.flush``).

        ``batch`` is a list of attribute-value mappings, one per message,
        as would be passed to :meth:`publish` as keyword arguments.
        Returns one aggregated :class:`DeliveryReport`.  An unknown
        ``endpoint_name`` raises even for an empty batch.
        """
        source.endpoint(endpoint_name)
        report = DeliveryReport()
        for values in batch:
            sub = self.publish(source, endpoint_name, **values)
            report.sent += sub.sent
            report.delivered += sub.delivered
            report.denied += sub.denied
            report.quenched_attributes += sub.quenched_attributes
        self.plane.flush()
        return report

    def route(
        self, source: Component, endpoint_name: str, message: Message
    ) -> DeliveryReport:
        """Route a pre-built message (used by gateways re-emitting).

        Walks only the source endpoint's route list, in connect order,
        skipping suspended channels and any torn down earlier in this
        route.  A handler connecting from the same endpoint appends to
        the list being walked, so its channel serves this message too.
        """
        report = DeliveryReport()
        src_ep = source.endpoint(endpoint_name)
        self._route_depth += 1
        try:
            for channel in self._channels_from(source, src_ep):
                if not channel.active:
                    continue
                report.sent += 1
                self._deliver_on(channel, message, report)
        finally:
            self._end_route()
        self._accumulate(report)
        return report

    def _accumulate(self, report: DeliveryReport) -> None:
        self.stats.sent += report.sent
        self.stats.delivered += report.delivered
        self.stats.denied += report.denied
        self.stats.quenched_attributes += report.quenched_attributes

    def _deliver_on(
        self, channel: Channel, message: Message, report: DeliveryReport
    ) -> None:
        """Deliver ``message`` over one channel: the flow rule, Fig. 10
        quenching, the audit record and the handler call."""
        sink = channel.sink
        sink_ctx = sink.context
        context = message.context
        if self.mode == EnforcementMode.AC_ONLY:
            # The paper's baseline: nothing re-checked after the PEP.
            # Deliveries are still logged (message-level audit needs no
            # IFC) so compliance tooling can expose what leaked.
            channel.messages_carried += 1
            self.plane.audit_allowed(
                channel.source.name, sink.name,
                context, sink_ctx,
                {"msg_id": message.msg_id, "mode": "ac-only"},
            )
            sink.deliver(channel.sink_endpoint.name, message)
            report.delivered += 1
            return

        decision = self.plane.evaluate(context, sink_ctx)
        if not decision.allowed:
            report.denied += 1
            self.plane.audit_denied(
                channel.source.name,
                sink.name,
                decision.reason,
                context,
                sink_ctx,
            )
            return

        outgoing = message
        dropped, effective = message.type.quench(
            message.values, context.secrecy.mask, sink_ctx.secrecy.mask
        )
        if dropped:
            outgoing = Message._of(
                message.type,
                {k: v for k, v in message.values.items() if k not in dropped},
                context,
                message.msg_id,
                message.sent_at,
            )
            report.quenched_attributes += len(dropped)
        if self.plane.audit is not None:
            detail = {"msg_id": message.msg_id, "type": message.type.name}
            if dropped:
                detail["quenched"] = dropped
            # Audit the effective context of what was actually delivered:
            # base context plus the extra secrecy of the attributes the
            # receiver really got (quenched ones excluded) — the quenched
            # case is exactly when the trail must show the reduced view.
            self.plane.audit_allowed(
                channel.source.name, sink.name,
                message.type.widen(context, effective),
                sink_ctx, detail,
            )
        channel.messages_carried += 1
        sink.deliver(channel.sink_endpoint.name, outgoing)
        report.delivered += 1
