"""The cross-machine messaging substrate (Fig. 9, §8.2.2).

"Transfers across machines are therefore managed by a trusted substrate
... each communicating entity (application process) is associated with a
messaging substrate process for external transfers.  A substrate process
is aware of the security context of the application process it serves,
and enforces IFC in its dealings with the substrate processes of other
applications."

A :class:`MessagingSubstrate` binds to one machine; applications
register their kernel processes with it and obtain *remote bindings* to
(host, process) pairs elsewhere.  Sending runs: (1) kernel-side check
that the application may hand data to its substrate, (2) optional remote
attestation of the peer platform (Challenge 5), (3) the IFC flow rule
between application contexts — including message-level tags with
quenching (Fig. 10), (4) network transfer, (5) receiver-side re-check
on delivery (the receiving substrate trusts no one blindly).

Wire formats (see ``docs/wire_plane.md``): security contexts cross the
wire either as serialised tag sets (:class:`TagSetEnvelope`, the
pre-handshake fallback) or — once the peers have exchanged tag tables
through the :class:`~repro.ifc.wire.WireCodec` handshake — as plain int
masks in the *sender's* numbering (:class:`MaskEnvelope`), which the
receiver remaps through its per-peer translation table.  The receiver
re-derives full :class:`~repro.ifc.labels.SecurityContext` objects
either way, so the receive-side re-check is identical for both formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.audit.log import AuditLog
from repro.audit.records import RecordKind
from repro.audit.spine import bind_source
from repro.cloud.kernel import Process
from repro.cloud.machine import Machine
from repro.crypto.attestation import AttestationVerifier
from repro.errors import AttestationError, FlowError, NetworkError
from repro.ifc.decisions import DecisionPlane
from repro.ifc.labels import SecurityContext
from repro.ifc.wire import WireCodec, WireControl, control_wire_size
from repro.middleware.message import Message, MessageType
from repro.net.network import Datagram, Network

#: Application-level delivery callback: (sender_addr, message).
SubstrateHandler = Callable[[str, Message], None]


@dataclass
class SubstrateEnvelope:
    """An in-process transfer carrying a whole :class:`Message`.

    The legacy path, kept for tooling: in-process callers may hand one
    straight to a substrate, which receives it, like every wire
    envelope, as a batch of one row.
    """

    source_host: str
    source_process: str
    dest_host: str
    dest_process: str
    message: Message
    source_context: SecurityContext


def _context_wire_tags(ctx: SecurityContext) -> Tuple[Tuple[str, ...], Tuple[str, ...]]:
    """Serialise a context as (secrecy, integrity) qualified tag names."""
    return (
        tuple(t.qualified for t in ctx.secrecy.tags),
        tuple(t.qualified for t in ctx.integrity.tags),
    )


@dataclass
class TagSetEnvelope:
    """Pre-handshake wire format: contexts as serialised tag names.

    This is what the seed shipped on every message — each label spelled
    out as qualified tag strings, re-interned on receipt.  It stays as
    the fallback for peers that have not completed the tag-table
    handshake (and for any message whose label contains a tag the peer
    has not yet confirmed, see :class:`MaskEnvelope`).
    """

    source_host: str
    source_process: str
    dest_host: str
    dest_process: str
    type: MessageType
    values: Dict
    msg_id: int
    sent_at: float
    msg_secrecy: Tuple[str, ...]
    msg_integrity: Tuple[str, ...]
    src_secrecy: Tuple[str, ...]
    src_integrity: Tuple[str, ...]


@dataclass
class MaskEnvelope:
    """Post-handshake wire format: contexts as int masks.

    Masks are in the *sender's* interner numbering and may only use bit
    positions the receiver has confirmed holding (the codec enforces
    this at encode time), so the receiver can always remap them through
    its per-peer translation table.  ``table_version`` records the
    sender-table length the masks were encoded against, for diagnostics
    and defensive decoding.
    """

    source_host: str
    source_process: str
    dest_host: str
    dest_process: str
    type: MessageType
    values: Dict
    msg_id: int
    sent_at: float
    msg_secrecy_mask: int
    msg_integrity_mask: int
    src_secrecy_mask: int
    src_integrity_mask: int
    table_version: int


@dataclass
class MaskBatchEnvelope:
    """Post-handshake batched wire format: one datagram, many messages.

    :meth:`MessagingSubstrate.send_batch` groups messages by destination
    host and ships one of these per ``(host, message-context)`` group —
    the fields every message shares (routing header, the four context
    masks, the table version) are encoded once, and each message
    contributes only a *row*: ``(dest_process, values, msg_id,
    sent_at)``.  The receiver decodes the shared header once and runs
    the ordinary per-message receive protocol (decision, quenching,
    audit) over the rows with the fixed costs hoisted.

    This is a substrate wire-format choice exactly like
    :class:`MaskEnvelope` was: one batch envelope is one datagram, so
    network-level loss drops the whole batch (the transparent
    network-outbox coalescing in ``repro.net`` keeps strict per-datagram
    loss instead; see ``docs/transport_plane.md``).
    """

    source_host: str
    source_process: str
    dest_host: str
    type: MessageType
    msg_secrecy_mask: int
    msg_integrity_mask: int
    src_secrecy_mask: int
    src_integrity_mask: int
    table_version: int
    #: One entry per message: (dest_process, values, msg_id, sent_at).
    rows: Tuple[Tuple[str, Dict, int, float], ...]


@dataclass
class SubstrateStats:
    """Counters for the cross-machine benchmarks (F9/F10)."""

    sent: int = 0
    delivered: int = 0
    denied_local: int = 0
    denied_remote: int = 0
    quenched_attributes: int = 0
    attestation_failures: int = 0
    #: Envelopes shipped as int masks vs the tag-set fallback.
    sent_masked: int = 0
    sent_tagset: int = 0
    #: Coalesced batch envelopes shipped by send_batch.
    sent_batches: int = 0
    #: Envelopes addressed to a process this substrate does not serve.
    dropped_unroutable: int = 0
    #: Mask envelopes whose bits exceeded our translation table
    #: (reordered/lost control traffic) — dropped, never guessed at.
    dropped_undecodable: int = 0
    #: Table re-syncs triggered by post-handshake tag growth.
    table_syncs: int = 0


class MessagingSubstrate:
    """The per-machine CamFlow-Messaging process.

    One substrate per :class:`Machine`; it registers as the machine's
    network receiver.  ``enforce=False`` builds the baseline substrate
    for overhead comparisons (same transfer path, no IFC evaluation).
    ``wire_masks=False`` pins the substrate to the tag-set wire format
    (no handshake), for A/B benchmarking of the wire plane itself.
    """

    def __init__(
        self,
        machine: Machine,
        network: Network,
        enforce: bool = True,
        verifier: Optional[AttestationVerifier] = None,
        wire_masks: bool = True,
    ):
        self.machine = machine
        self.network = network
        self.enforce = enforce
        self.verifier = verifier
        self.wire_masks = wire_masks
        # Audit stages into the machine spine's "substrate" segment —
        # nothing on the send/receive path chains digests synchronously.
        self.audit = bind_source(machine.audit, "substrate")
        # The machine's decision shard is shared with the kernel LSM:
        # one memo table per machine, not one per enforcement site
        # (context_cache keeps the private-vocabulary guard).
        self.plane = DecisionPlane(
            audit=self.audit, cache=machine.shard.context_cache
        )
        self.stats = SubstrateStats()
        self.wire = WireCodec()
        self._local: Dict[str, Tuple[Process, SubstrateHandler]] = {}
        self._attested_hosts: Dict[str, bool] = {}
        # Federation: a mesh node receiving kind="gossip" datagrams
        # (repro.federation.GossipMesh.join_substrate sets this).
        self._gossip_node = None
        network.add_host(machine.hostname, self._receive)
        # Fig. 9: the substrate is itself a process on the machine.
        self.process = machine.kernel.spawn(f"substrate@{machine.hostname}")

    # -- registration -------------------------------------------------------------

    def register(self, process: Process, handler: SubstrateHandler) -> str:
        """Associate an application process with this substrate.

        Returns the address ``host/process-name`` peers use to reach it.
        """
        address = f"{self.machine.hostname}/{process.name}"
        self._local[process.name] = (process, handler)
        return address

    def deregister(self, process: Process) -> None:
        """Detach an application process."""
        self._local.pop(process.name, None)

    def attach_gossip(self, node) -> None:
        """Route federation gossip datagrams to a mesh node.

        The substrate stays the machine's single network receiver;
        gossip traffic is recognised by its datagram ``kind`` so the
        substrate needs no dependency on the federation plane.
        """
        self._gossip_node = node

    # -- attestation ----------------------------------------------------------------

    def _peer_trusted(self, peer: "MessagingSubstrate") -> bool:
        """Attest the peer platform once per host (cached).

        The wire-plane handshake piggybacks here: attestation is the
        substrate's first round-trip with an unfamiliar host, so the
        tag-table HELLO rides out together with it (see :meth:`_ship`).
        """
        if self.verifier is None:
            return True
        host = peer.machine.hostname
        cached = self._attested_hosts.get(host)
        if cached is not None:
            return cached
        ok = peer.machine.attest_to(self.verifier)
        self._attested_hosts[host] = ok
        if self.audit is not None:
            self.audit.append(
                RecordKind.ATTESTATION,
                self.machine.hostname,
                host,
                {"result": "trusted" if ok else "REJECTED"},
            )
        return ok

    def invalidate_attestation(self, host: str) -> None:
        """Drop the cached attestation of a host (e.g. after an alert)."""
        self._attested_hosts.pop(host, None)

    # -- sending ---------------------------------------------------------------------

    def send(
        self,
        process: Process,
        peer: "MessagingSubstrate",
        peer_process_name: str,
        message: Message,
    ) -> bool:
        """Send a message from a local process to a remote one.

        Returns True when the message was handed to the network.  Denials
        (IFC, attestation) return False and are audited — the substrate
        never raises for policy denials on the send path, mirroring how a
        messaging layer reports rather than crashes.
        """
        if process.name not in self._local:
            # Not a send at all: an unregistered process has no binding
            # to this substrate, so nothing must reach the counters the
            # F9/F10 denial ratios are computed from.
            raise NetworkError(
                f"{process.name} is not registered with this substrate"
            )
        self.stats.sent += 1

        if self.enforce:
            if not self._peer_trusted(peer):
                self.stats.attestation_failures += 1
                return False
            # The substrate knows its application's kernel-level context;
            # the message carries that context across the wire.
            decision = self.plane.evaluate(process.security, message.context)
            # Message context must at least cover the process's own; the
            # common case is equality (message created by the process).
            if not decision.allowed:
                self.stats.denied_local += 1
                self.plane.audit_denied(
                    process.name,
                    f"{peer.machine.hostname}/{peer_process_name}",
                    f"message labelled below its producer: {decision.reason}",
                    process.security,
                    message.context,
                )
                return False

        self._ship(process, peer, peer_process_name, message)
        return True

    def send_batch(
        self,
        process: Process,
        sinks: Sequence[Tuple["MessagingSubstrate", str]],
        messages: Sequence[Message],
    ) -> int:
        """Send every message to every sink, amortising the per-message
        fixed costs — the substrate twin of
        :meth:`~repro.middleware.bus.MessageBus.publish_batch`.

        Hoisted per batch: the attestation check per peer host, the
        local flow decision per distinct message context (identity-
        keyed, exactly the staleness rule the bus plan uses), the wire
        handshake drive and the :class:`MaskBatchEnvelope` header per
        ``(host, context)`` group.  Per (message, sink) the counters,
        denial audits and delivery semantics are identical to a
        :meth:`send` loop; per-host delivery order is the send-loop
        order.  Sinks whose peer cannot take masks yet fall back to
        per-message tag-set envelopes, exactly as :meth:`send` would.

        Returns how many (message, sink) transfers were handed to the
        network (denials and attestation failures are excluded, as in
        :meth:`send`).
        """
        if process.name not in self._local:
            raise NetworkError(
                f"{process.name} is not registered with this substrate"
            )
        if not sinks or not messages:
            return 0
        host = self.machine.hostname
        src_sec = process.security
        enforce = self.enforce
        evaluate = self.plane.evaluate
        # decision per message-context, by identity (contexts are shared
        # objects on the hot path; an unshared equal context just costs
        # one extra memoized evaluate).
        decisions: Dict[int, object] = {}
        # (peer_host, id(ctx), id(type)) → (masks-or-None, ctx, type):
        # the hoisted envelope header; plus the rows accumulating on it.
        group_meta: Dict[Tuple[str, int, int], Tuple] = {}
        groups: Dict[Tuple[str, int, int], List] = {}
        greeted: set = set()
        src_tags: Optional[Tuple] = None  # lazy: fallback sends only
        accepted = 0

        trusted: Dict[str, bool] = {}
        for peer, __ in sinks:
            peer_host = peer.machine.hostname
            if peer_host not in trusted:
                trusted[peer_host] = (not enforce) or self._peer_trusted(peer)

        for message in messages:
            ctx = message.context
            ctx_key = id(ctx)
            decision = None
            if enforce:
                decision = decisions.get(ctx_key)
                if decision is None:
                    decision = evaluate(src_sec, ctx)
                    decisions[ctx_key] = decision
            for peer, peer_process_name in sinks:
                peer_host = peer.machine.hostname
                self.stats.sent += 1
                if enforce:
                    if not trusted[peer_host]:
                        self.stats.attestation_failures += 1
                        continue
                    if not decision.allowed:
                        self.stats.denied_local += 1
                        self.plane.audit_denied(
                            process.name,
                            f"{peer_host}/{peer_process_name}",
                            "message labelled below its producer: "
                            f"{decision.reason}",
                            src_sec,
                            ctx,
                        )
                        continue
                accepted += 1
                if self.wire_masks:
                    if peer_host not in greeted:
                        greeted.add(peer_host)
                        hello = self.wire.greet(peer_host)
                        if hello is not None:
                            self.network.send(
                                host, peer_host, hello, kind="handshake",
                                size=control_wire_size(hello),
                            )
                    group_key = (peer_host, ctx_key, id(message.type))
                    meta = group_meta.get(group_key)
                    if meta is None:
                        masks = self.wire.encode_masks(
                            peer_host,
                            ctx.secrecy.mask,
                            ctx.integrity.mask,
                            src_sec.secrecy.mask,
                            src_sec.integrity.mask,
                        )
                        if masks is None:
                            # Handshaked but behind: ship the table
                            # delta once (resync self-suppresses while
                            # one is in flight), fall back below.
                            update = self.wire.resync(peer_host)
                            if update is not None:
                                self.stats.table_syncs += 1
                                self.network.send(
                                    host, peer_host, update, kind="handshake",
                                    size=control_wire_size(update),
                                )
                                if self.audit is not None:
                                    self.audit.append(
                                        RecordKind.TABLE_SYNC,
                                        host,
                                        peer_host,
                                        {"base": update.base,
                                         "tags": len(update.tags)},
                                    )
                        meta = (masks, message.type)
                        group_meta[group_key] = meta
                    if meta[0] is not None:
                        groups.setdefault(group_key, []).append(
                            (peer_process_name, message.values,
                             message.msg_id, message.sent_at)
                        )
                        continue
                # Fallback (wire_masks off, or the peer cannot take
                # masks yet): per-message tag-set envelope, as send()
                # would ship.
                if src_tags is None:
                    src_tags = _context_wire_tags(src_sec)
                self._ship_tagset(
                    process.name, src_tags[0], src_tags[1],
                    peer_host, peer_process_name, message,
                )

        for group_key, rows in groups.items():
            peer_host = group_key[0]
            masks, msg_type = group_meta[group_key]
            self.stats.sent_masked += len(rows)
            self.stats.sent_batches += 1
            self.network.send(
                host,
                peer_host,
                MaskBatchEnvelope(
                    source_host=host,
                    source_process=process.name,
                    dest_host=peer_host,
                    type=msg_type,
                    msg_secrecy_mask=masks[0],
                    msg_integrity_mask=masks[1],
                    src_secrecy_mask=masks[2],
                    src_integrity_mask=masks[3],
                    table_version=self.wire.peer(peer_host).confirmed,
                    rows=tuple(rows),
                ),
            )
        return accepted

    def _ship(
        self,
        process: Process,
        peer: "MessagingSubstrate",
        peer_process_name: str,
        message: Message,
    ) -> None:
        """Encode and transmit one message, driving the wire handshake."""
        host = self.machine.hostname
        peer_host = peer.machine.hostname

        if self.wire_masks:
            hello = self.wire.greet(peer_host)
            if hello is not None:
                self.network.send(
                    host, peer_host, hello, kind="handshake",
                    size=control_wire_size(hello),
                )
            masks = self.wire.encode_masks(
                peer_host,
                message.context.secrecy.mask,
                message.context.integrity.mask,
                process.security.secrecy.mask,
                process.security.integrity.mask,
            )
            if masks is not None:
                self.stats.sent_masked += 1
                self.network.send(
                    host,
                    peer_host,
                    MaskEnvelope(
                        source_host=host,
                        source_process=process.name,
                        dest_host=peer_host,
                        dest_process=peer_process_name,
                        type=message.type,
                        values=message.values,
                        msg_id=message.msg_id,
                        sent_at=message.sent_at,
                        msg_secrecy_mask=masks[0],
                        msg_integrity_mask=masks[1],
                        src_secrecy_mask=masks[2],
                        src_integrity_mask=masks[3],
                        table_version=self.wire.peer(peer_host).confirmed,
                    ),
                )
                return
            # The peer is handshaked but a label used a tag it has not
            # confirmed: ship the table delta, fall back to tag sets for
            # this message — a re-sync, never a mislabel.
            update = self.wire.resync(peer_host)
            if update is not None:
                self.stats.table_syncs += 1
                self.network.send(
                    host, peer_host, update, kind="handshake",
                    size=control_wire_size(update),
                )
                if self.audit is not None:
                    self.audit.append(
                        RecordKind.TABLE_SYNC,
                        host,
                        peer_host,
                        {"base": update.base, "tags": len(update.tags)},
                    )

        src_secrecy, src_integrity = _context_wire_tags(process.security)
        self._ship_tagset(
            process.name, src_secrecy, src_integrity,
            peer_host, peer_process_name, message,
        )

    def _ship_tagset(
        self,
        process_name: str,
        src_secrecy: Tuple[str, ...],
        src_integrity: Tuple[str, ...],
        peer_host: str,
        peer_process_name: str,
        message: Message,
    ) -> None:
        """Ship one message in the tag-set fallback format."""
        self.stats.sent_tagset += 1
        msg_secrecy, msg_integrity = _context_wire_tags(message.context)
        self.network.send(
            self.machine.hostname,
            peer_host,
            TagSetEnvelope(
                source_host=self.machine.hostname,
                source_process=process_name,
                dest_host=peer_host,
                dest_process=peer_process_name,
                type=message.type,
                values=message.values,
                msg_id=message.msg_id,
                sent_at=message.sent_at,
                msg_secrecy=msg_secrecy,
                msg_integrity=msg_integrity,
                src_secrecy=src_secrecy,
                src_integrity=src_integrity,
            ),
        )

    # -- receiving --------------------------------------------------------------------

    def _handle_control(self, source_host: str, payload: WireControl) -> None:
        reply, event = self.wire.handle_control(source_host, payload)
        if reply is not None:
            self.network.send(
                self.machine.hostname, source_host, reply, kind="handshake",
                size=control_wire_size(reply),
            )
        if event is not None and self.audit is not None:
            step = event.get("step", "")
            kind = (
                RecordKind.TABLE_SYNC
                if step.startswith("update")
                else RecordKind.WIRE_HANDSHAKE
            )
            self.audit.append(kind, self.machine.hostname, source_host, event)

    def _decode(self, datagram: Datagram) -> Optional[Tuple]:
        """Decode a wire payload into one batch ``(source address,
        message context, message type, rows)``, each row
        ``(dest_process, values, msg_id, sent_at)``.

        A :class:`MaskBatchEnvelope` carries its rows; every other
        envelope is a batch of one row.  Masks beyond our translation
        table are dropped and audited here (None).
        """
        payload = datagram.payload
        if isinstance(payload, SubstrateEnvelope):
            message = payload.message  # legacy in-process path
            return (
                f"{payload.source_host}/{payload.source_process}",
                message.context,
                message.type,
                ((payload.dest_process, message.values, message.msg_id,
                  message.sent_at),),
            )
        if isinstance(payload, TagSetEnvelope):
            return (
                f"{payload.source_host}/{payload.source_process}",
                SecurityContext.of(payload.msg_secrecy, payload.msg_integrity),
                payload.type,
                ((payload.dest_process, payload.values, payload.msg_id,
                  payload.sent_at),),
            )
        if isinstance(payload, MaskBatchEnvelope):
            rows = payload.rows
            what = {"rows": len(rows)}
        elif isinstance(payload, MaskEnvelope):
            rows = ((payload.dest_process, payload.values, payload.msg_id,
                     payload.sent_at),)
            what = {"msg_id": payload.msg_id}
        else:
            return None
        # Key the translation table by the transport-level source — the
        # same field handshake state is keyed by — never by the
        # sender-controlled envelope header: masks remapped through the
        # wrong peer's table would silently relabel data.
        host = datagram.source
        if not self.wire.can_decode(
            host,
            payload.msg_secrecy_mask,
            payload.msg_integrity_mask,
            payload.src_secrecy_mask,
            payload.src_integrity_mask,
        ):
            # Masks beyond our translation table: control traffic was
            # lost or reordered.  Dropping (audited) is the only safe
            # move — guessing at unknown bits would mislabel data.
            self.stats.dropped_undecodable += len(rows)
            if self.audit is not None:
                self.audit.append(
                    RecordKind.TABLE_SYNC,
                    self.machine.hostname,
                    host,
                    {"step": "undecodable", **what,
                     "table_version": payload.table_version},
                )
            return None
        return (
            f"{payload.source_host}/{payload.source_process}",
            self.wire.decode_context(
                host, payload.msg_secrecy_mask, payload.msg_integrity_mask
            ),
            payload.type,
            rows,
        )

    def _receive(self, datagram: Datagram) -> None:
        """The one receive loop: control and gossip traffic aside, every
        envelope decodes to rows sharing a source, context and type.

        Per row: the registry is re-read (a handler deregistering a
        process turns its later rows unroutable), the flow rule is
        re-checked against the receiver's context — hoisted per
        destination while that context object is unchanged — and
        attribute values the receiver may not see are quenched
        (Fig. 10).  Every outcome is counted and audited.
        """
        if datagram.kind == "gossip":
            if self._gossip_node is not None:
                self._gossip_node.receive(datagram)
            return
        if isinstance(datagram.payload, WireControl):
            self._handle_control(datagram.source, datagram.payload)
            return
        batch = self._decode(datagram)
        if batch is None:
            return
        source_addr, msg_ctx, mtype, rows = batch
        base = msg_ctx.secrecy.mask
        enforce = self.enforce
        local = self._local
        stats = self.stats
        plane = self.plane
        # dest_process → (receiver context, decision).
        decisions: Dict[str, Tuple] = {}

        for dest_process, values, msg_id, sent_at in rows:
            entry = local.get(dest_process)
            if entry is None:
                # Misdelivery: audited and counted, so compliance tooling
                # can see envelopes that reached the wrong substrate.
                stats.dropped_unroutable += 1
                if self.audit is not None:
                    self.audit.append(
                        RecordKind.MISDELIVERY,
                        source_addr,
                        f"{self.machine.hostname}/{dest_process}",
                        {"msg_id": msg_id,
                         "reason": "no such process on this substrate"},
                    )
                continue
            process, handler = entry
            if enforce:
                security = process.security
                hoisted = decisions.get(dest_process)
                if hoisted is None or hoisted[0] is not security:
                    hoisted = (security, plane.evaluate(msg_ctx, security))
                    decisions[dest_process] = hoisted
                decision = hoisted[1]
                if not decision.allowed:
                    stats.denied_remote += 1
                    plane.audit_denied(
                        source_addr, process.name, decision.reason,
                        msg_ctx, security,
                    )
                    continue
                dropped, effective = mtype.quench(
                    values, base, security.secrecy.mask
                )
                if dropped:
                    stats.quenched_attributes += len(dropped)
                    values = {
                        k: v for k, v in values.items() if k not in dropped
                    }
                # As on the bus: audit the effective context of what was
                # actually delivered — base context plus the extra
                # secrecy of the attributes the receiver really got.
                plane.audit_allowed(
                    source_addr,
                    process.name,
                    mtype.widen(msg_ctx, effective),
                    security,
                    {"msg_id": msg_id, "quenched": dropped}
                    if dropped
                    else {"msg_id": msg_id},
                )
            stats.delivered += 1
            handler(
                source_addr, Message._of(mtype, values, msg_ctx, msg_id, sent_at)
            )
