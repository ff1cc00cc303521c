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
masks in the *sender's* numbering (:class:`MaskBatchEnvelope`), which
the receiver remaps through its per-peer translation table.  The receiver
re-derives full :class:`~repro.ifc.labels.SecurityContext` objects
either way, so the receive-side re-check is identical for both formats.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence, Tuple

from repro.audit.records import RecordKind
from repro.audit.spine import bind_source
from repro.cloud.kernel import Process
from repro.cloud.machine import Machine
from repro.crypto.attestation import AttestationVerifier
from repro.errors import NetworkError
from repro.ifc.decisions import DecisionPlane
from repro.ifc.labels import SecurityContext
from repro.ifc.wire import WireCodec, WireControl, control_wire_size
from repro.middleware.message import Message, MessageType
from repro.net.network import Datagram, Network

#: Application-level delivery callback: (sender_addr, message).
SubstrateHandler = Callable[[str, Message], None]


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
    has not yet confirmed, see :class:`MaskBatchEnvelope`).
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
class MaskBatchEnvelope:
    """Post-handshake wire format: one datagram, one or more messages.

    Masks are in the *sender's* interner numbering and may only use bit
    positions the receiver has confirmed holding (the codec enforces
    this at encode time), so the receiver can always remap them through
    its per-peer translation table.  ``table_version`` records the
    sender-table length the masks were encoded against, for diagnostics.

    :meth:`MessagingSubstrate.send_batch` ships one of these per run of
    consecutive messages bound for one host with one context and type —
    a single :meth:`~MessagingSubstrate.send` is a run of one.  The
    shared fields (routing header, the four context masks, the table
    version) are encoded once, and each message contributes only a
    *row*: ``(dest_process, values, msg_id, sent_at)``.  The receiver
    decodes the shared header once and runs the ordinary per-message
    receive protocol (decision, quenching, audit) over the rows.

    One envelope is one datagram, so network-level loss drops all its
    rows (the transparent network-outbox coalescing in ``repro.net``
    keeps strict per-datagram loss instead; see
    ``docs/transport_plane.md``).
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
    #: MaskBatchEnvelopes shipped, single sends included (one per run
    #: of rows sharing a host, context and type).
    sent_batches: int = 0
    #: Rows addressed to a process this substrate does not serve, and
    #: gossip datagrams reaching a substrate with no mesh node.
    dropped_unroutable: int = 0
    #: Mask rows whose bits exceeded our translation table
    #: (reordered/lost control traffic) — dropped, never guessed at —
    #: and payloads of no known wire format.
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
        self.plane = DecisionPlane(audit=self.audit)
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
        tag-table HELLO rides out together with it (see :meth:`send_batch`).
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
        """Send a message from a local process to a remote one: a batch
        of one row (see :meth:`send_batch`).

        Returns True when the message was handed to the network.  Denials
        (IFC, attestation) return False and are audited — the substrate
        never raises for policy denials on the send path, mirroring how a
        messaging layer reports rather than crashes.
        """
        return self.send_batch(
            process, ((peer, peer_process_name),), (message,)
        ) == 1

    def send_batch(
        self,
        process: Process,
        sinks: Sequence[Tuple["MessagingSubstrate", str]],
        messages: Sequence[Message],
    ) -> int:
        """Send every message to every sink — the one send path.

        Per (message, sink), message-major: the peer's attestation
        (cached per host), the flow rule from the process to the message
        context (evaluated once per message), the wire handshake drive
        and the encoding.  Consecutive mask rows bound for one host with
        one context and type ride one :class:`MaskBatchEnvelope`;
        anything else bound for that host (a row of another context, a
        tag-set fallback, a table re-sync) ships the open run first, so
        every host receives exactly what a loop of single sends would
        deliver, in the same order.

        Returns how many (message, sink) transfers were handed to the
        network (denials and attestation failures are excluded).
        """
        if process.name not in self._local:
            # Not a send at all: an unregistered process has no binding
            # to this substrate, so nothing must reach the counters the
            # F9/F10 denial ratios are computed from.
            raise NetworkError(
                f"{process.name} is not registered with this substrate"
            )
        stats = self.stats
        src_sec = process.security
        enforce = self.enforce
        wire = self.wire if self.wire_masks else None
        # peer host → its open run: (context, type, masks, rows).
        runs: Dict[str, tuple] = {}
        accepted = 0
        for message in messages:
            ctx = message.context
            decision = None
            for peer, peer_process_name in sinks:
                peer_host = peer.machine.hostname
                stats.sent += 1
                if enforce:
                    if not self._peer_trusted(peer):
                        stats.attestation_failures += 1
                        continue
                    if decision is None:
                        decision = self.plane.evaluate(src_sec, ctx)
                    if not decision.allowed:
                        stats.denied_local += 1
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
                row = (peer_process_name, message.values, message.msg_id,
                       message.sent_at)
                run = runs.get(peer_host)
                if run is not None:
                    if run[0] is ctx and run[1] is message.type:
                        run[3].append(row)
                        continue
                    self._ship_run(process.name, peer_host, runs.pop(peer_host))
                if wire is not None:
                    hello = wire.greet(peer_host)
                    if hello is not None:
                        self._send_control(peer_host, hello)
                    masks = wire.encode_masks(
                        peer_host,
                        ctx.secrecy.mask,
                        ctx.integrity.mask,
                        src_sec.secrecy.mask,
                        src_sec.integrity.mask,
                    )
                    if masks is not None:
                        runs[peer_host] = (ctx, message.type, masks, [row])
                        continue
                    self._resync(peer_host)
                self._ship_tagset(process, peer_host, peer_process_name, message)
        for peer_host, run in runs.items():
            self._ship_run(process.name, peer_host, run)
        return accepted

    def _ship_run(self, process_name: str, peer_host: str, run: tuple) -> None:
        """Ship one run of mask rows as a :class:`MaskBatchEnvelope`."""
        __, msg_type, masks, rows = run
        self.stats.sent_masked += len(rows)
        self.stats.sent_batches += 1
        host = self.machine.hostname
        self.network.send(
            host,
            peer_host,
            MaskBatchEnvelope(
                source_host=host,
                source_process=process_name,
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

    def _resync(self, peer_host: str) -> None:
        """The peer is handshaked but a label used a tag it has not
        confirmed: ship the table delta — a re-sync, never a mislabel.
        The codec suppresses a second delta while one is in flight."""
        update = self.wire.resync(peer_host)
        if update is None:
            return
        self.stats.table_syncs += 1
        self._send_control(peer_host, update)
        if self.audit is not None:
            self.audit.append(
                RecordKind.TABLE_SYNC,
                self.machine.hostname,
                peer_host,
                {"base": update.base, "tags": len(update.tags)},
            )

    def _send_control(self, peer_host: str, payload: WireControl) -> None:
        self.network.send(
            self.machine.hostname, peer_host, payload, kind="handshake",
            size=control_wire_size(payload),
        )

    def _ship_tagset(
        self,
        process: Process,
        peer_host: str,
        peer_process_name: str,
        message: Message,
    ) -> None:
        """Ship one message in the tag-set fallback format."""
        self.stats.sent_tagset += 1
        src_secrecy, src_integrity = _context_wire_tags(process.security)
        msg_secrecy, msg_integrity = _context_wire_tags(message.context)
        self.network.send(
            self.machine.hostname,
            peer_host,
            TagSetEnvelope(
                source_host=self.machine.hostname,
                source_process=process.name,
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
            self._send_control(source_host, reply)
        if event is not None and self.audit is not None:
            step = event.get("step", "")
            kind = (
                RecordKind.TABLE_SYNC
                if step.startswith("update")
                else RecordKind.WIRE_HANDSHAKE
            )
            self.audit.append(kind, self.machine.hostname, source_host, event)

    def _misdelivered(self, datagram: Datagram, reason: str) -> None:
        """Audit a datagram nothing on this substrate can take, naming
        its payload type, so compliance tooling sees every drop."""
        if self.audit is not None:
            self.audit.append(
                RecordKind.MISDELIVERY,
                datagram.source,
                self.machine.hostname,
                {"payload": type(datagram.payload).__name__,
                 "reason": reason},
            )

    def _unroutable(self, source_addr: str, dest_process: str, msg_id: int) -> None:
        """Count and audit a row for a process this substrate does not
        host, so compliance tooling sees envelopes that reached the
        wrong substrate."""
        self.stats.dropped_unroutable += 1
        if self.audit is not None:
            self.audit.append(
                RecordKind.MISDELIVERY,
                source_addr,
                f"{self.machine.hostname}/{dest_process}",
                {"msg_id": msg_id,
                 "reason": "no such process on this substrate"},
            )

    def _decode(self, datagram: Datagram) -> Optional[Tuple]:
        """Decode a wire payload into one batch ``(source address,
        message context, message type, rows)``, each row
        ``(dest_process, values, msg_id, sent_at)``.

        A :class:`MaskBatchEnvelope` carries its rows; a
        :class:`TagSetEnvelope` is a batch of one row.  Anything else,
        masks beyond our translation table, and a tag-set row for a
        process we do not host are counted, audited and dropped here
        (None).
        """
        payload = datagram.payload
        if isinstance(payload, TagSetEnvelope):
            source_addr = f"{payload.source_host}/{payload.source_process}"
            # Route before decoding: the peer's tag names reach the
            # process-global interner only for a row we will deliver or
            # deny, never for one nothing here can take.
            if payload.dest_process not in self._local:
                self._unroutable(
                    source_addr, payload.dest_process, payload.msg_id
                )
                return None
            return (
                source_addr,
                SecurityContext.of(payload.msg_secrecy, payload.msg_integrity),
                payload.type,
                ((payload.dest_process, payload.values, payload.msg_id,
                  payload.sent_at),),
            )
        if not isinstance(payload, MaskBatchEnvelope):
            self.stats.dropped_undecodable += 1
            self._misdelivered(datagram, "no such wire format")
            return None
        rows = payload.rows
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
                    {"step": "undecodable", "rows": len(rows),
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
            else:
                self.stats.dropped_unroutable += 1
                self._misdelivered(datagram, "gossip with no mesh node")
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
                self._unroutable(source_addr, dest_process, msg_id)
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
