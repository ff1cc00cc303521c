"""Anti-entropy gossip of wire vocabularies across federated substrates.

The wire plane (``repro/ifc/wire.py``, ``docs/wire_plane.md``) lets two
substrates agree a tag↔bit vocabulary through a pairwise 3-step
handshake.  Federations of N administrative domains would need
N(N−1)/2 such handshakes, each shipping whole tag tables — the O(N²)
cost the ROADMAP queues for replacement.  This module disseminates the
same state *transitively*: versioned digests, pull-on-mismatch, and
compressed deltas, in the anti-entropy style semantic/context
middleware uses to scale metadata agreement (Perera et al.;
Vahdat-Nejad).

What gossips (all monotone, so max-merge is sound):

* **tables** — each substrate is the *origin* of its own tag table
  (append-only); nodes relay third-party tables they hold, so content
  reaches everyone in O(log N) rounds without all pairs ever talking;
* **holdings** — a node → origin → version matrix ("node X holds v of
  origin Y's table").  A row reaching origin Y lets Y's codec confirm
  X (:meth:`~repro.ifc.wire.WireCodec.note_confirmed`) and start
  masking to X — the handshake's ACK, learned third-hand;
* **checkpoint claims** — each domain's audit-spine head
  (:class:`~repro.audit.distributed.CheckpointClaim`), pinned by every
  other domain's :class:`~repro.audit.distributed.FederationPinboard`
  so no domain can silently rewrite or truncate pruned history.

All three legs of an exchange ride the network as ``kind="gossip"``
datagrams, so when a member host has the coalescing transport enabled
(``Network.configure_transport`` / :meth:`GossipMesh.configure_transport`;
``docs/transport_plane.md``) its DIGEST/REPLY/DELTA traffic flows
through the same per-``(source, destination, kind)`` outbox as data —
anti-entropy rounds then cost one scheduled delivery event per
``(peer, window)`` instead of one per datagram.

One round, per node pair ``(A, B)`` selected by dimension exchange
(round ``r`` partners each node with the one ``2^(r-1 mod ⌈log₂N⌉)``
positions around the sorted host ring):

```
A -- GossipDigest(holdings, claims) --------------------------> B
A <- GossipReply(holdings, wants, blocks I'm ahead on, claims) - B
A -- GossipDelta(blocks B asked for, holdings) ----------------> B
```

Deltas ship :class:`~repro.ifc.wire.TagBlock` compressed slices, so a
10k-tag vocabulary costs bytes proportional to its *structure*, not its
string length.  When a node pushes blocks it optimistically marks the
receiver as holding them; on a lossless simulated network that is exact
by the end of the round, and under control-datagram loss it is
self-healing: the receiver's own ``wants`` are always computed from
what it *really* stores, so the next round re-pulls the content, and a
mask sent early is dropped-and-audited by the receiver
(``dropped_undecodable``) — delayed delivery, never a mislabel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

from repro.audit.distributed import CheckpointClaim, FederationPinboard
from repro.audit.records import RecordKind
from repro.audit.spine import bind_source
from repro.ifc.wire import TagBlock, WireCodec

#: node → origin → table version held (the gossiped knowledge matrix).
Holdings = Mapping[str, Mapping[str, int]]


def _holdings_size(holdings: Holdings) -> int:
    size = 4
    for node, row in holdings.items():
        size += len(node) + 2
        for origin in row:
            size += len(origin) + 2 + 4
    return size


def _claims_size(claims: Sequence[CheckpointClaim]) -> int:
    # domain (length-prefixed) + position + issued_at + 32-byte digest.
    return sum(len(c.domain) + 2 + 4 + 8 + 32 for c in claims)


# -- control payloads (ride the network as kind="gossip" datagrams) ----------


@dataclass(frozen=True)
class GossipControl:
    """Base class for gossip datagram payloads (dispatch marker)."""


@dataclass(frozen=True)
class GossipDigest(GossipControl):
    """Round opener: the sender's knowledge matrix and freshest claims."""

    sender: str
    holdings: Holdings
    claims: Tuple[CheckpointClaim, ...] = ()

    @property
    def wire_size(self) -> int:
        return len(self.sender) + 2 + _holdings_size(self.holdings) + _claims_size(self.claims)


@dataclass(frozen=True)
class GossipReply(GossipControl):
    """Push-pull answer: blocks the responder is ahead on, pulls
    (``wants``: origin → version held) for where it is behind."""

    sender: str
    holdings: Holdings
    wants: Mapping[str, int]
    blocks: Mapping[str, TagBlock]
    claims: Tuple[CheckpointClaim, ...] = ()

    @property
    def wire_size(self) -> int:
        size = len(self.sender) + 2 + _holdings_size(self.holdings)
        size += _claims_size(self.claims)
        size += sum(len(o) + 2 + 4 for o in self.wants)
        size += sum(len(o) + 2 + b.wire_size for o, b in self.blocks.items())
        return size


@dataclass(frozen=True)
class GossipDelta(GossipControl):
    """Round closer: the blocks the reply pulled, plus the sender's
    post-application holdings (it has absorbed the reply's pushes)."""

    sender: str
    holdings: Holdings
    blocks: Mapping[str, TagBlock]

    @property
    def wire_size(self) -> int:
        size = len(self.sender) + 2 + _holdings_size(self.holdings)
        size += sum(len(o) + 2 + b.wire_size for o, b in self.blocks.items())
        return size


@dataclass
class NodeStats:
    """Per-node gossip counters."""

    digests_sent: int = 0
    replies_sent: int = 0
    deltas_sent: int = 0
    bytes_sent: int = 0
    blocks_applied: int = 0
    tags_learned: int = 0
    delta_gaps: int = 0
    claims_pinned: int = 0
    claim_conflicts: int = 0


class MeshNode:
    """One federated substrate's end of the gossip mesh.

    Wraps the substrate's :class:`~repro.ifc.wire.WireCodec` (the node
    is the authoritative *origin* for that codec's interner) plus the
    relay store of third-party tables, the knowledge matrix, and the
    domain's :class:`~repro.audit.distributed.FederationPinboard`.

    Handlers (:meth:`handle_digest` / :meth:`handle_reply` /
    :meth:`handle_delta`) are transport-free — they return the payload
    to send back, or ``None`` — so property tests can drive arbitrary
    interleavings, duplications and drops directly; :meth:`receive`
    adapts them to network datagrams.
    """

    def __init__(
        self,
        host: str,
        codec: WireCodec,
        spine=None,
        mesh: Optional["GossipMesh"] = None,
        audit=None,
        pin_retain_every: Optional[int] = None,
    ):
        self.host = host
        self.codec = codec
        self.spine = spine
        self.mesh = mesh
        self.audit = audit if audit is not None else bind_source(spine, "federation")
        self.pinboard = FederationPinboard(host, retain_every=pin_retain_every)
        self.stats = NodeStats()
        #: The vocabulary this member *brought* to the federation (its
        #: interner length at join).  Convergence is defined over
        #: baselines: learning a peer's tags grows the local interner
        #: (``merge_table``), so "everyone holds everyone's current
        #: table" is a moving target — tags interned after joining ride
        #: the ordinary delta machinery instead, exactly like
        #: post-handshake growth in the pairwise wire plane.
        self.baseline = len(codec.interner)
        #: origin → relayed tag tuple (own origin lives in the interner).
        self._store: Dict[str, Tuple[str, ...]] = {}
        #: node → origin → version (remote rows, max-merged from gossip).
        self._knowledge: Dict[str, Dict[str, int]] = {}
        #: domain → freshest accepted claim (for re-gossip).
        self._claims: Dict[str, CheckpointClaim] = {}

    def __repr__(self) -> str:
        return f"<MeshNode {self.host} origins={len(self.origins())}>"

    # -- local state -------------------------------------------------------

    def origins(self) -> List[str]:
        """Every origin this node holds table content for."""
        known = set(self._store)
        known.add(self.host)
        return sorted(known)

    def tags_known(self, origin: str) -> Tuple[str, ...]:
        """The slice of ``origin``'s table this node holds."""
        if origin == self.host:
            return self.codec.interner.export_table()
        return self._store.get(origin, ())

    def version_of(self, origin: str) -> int:
        if origin == self.host:
            return len(self.codec.interner)
        return len(self._store.get(origin, ()))

    def _own_row(self) -> Dict[str, int]:
        return {origin: self.version_of(origin) for origin in self.origins()}

    def _matrix(self) -> Dict[str, Dict[str, int]]:
        matrix = {node: dict(row) for node, row in self._knowledge.items()}
        matrix[self.host] = self._own_row()
        return matrix

    def _claims_out(self) -> Tuple[CheckpointClaim, ...]:
        if self.spine is not None:
            own = CheckpointClaim.of(
                self.host, self.spine, issued_at=self._now()
            )
            self._claims[self.host] = own
        return tuple(self._claims[d] for d in sorted(self._claims))

    def _now(self) -> float:
        if self.mesh is not None:
            return self.mesh.sim.now()
        return 0.0

    # -- absorption --------------------------------------------------------

    def _note_origin(self, origin: str) -> None:
        """Register an origin we heard of through gossip.

        Even a zero-tag origin gets a store entry and an (empty)
        translator — the same state a pairwise handshake's ``_learn``
        leaves behind — so our holdings row explicitly claims version 0
        of it (confirming empty-table peers, where ``confirmed=0`` and
        ``None`` differ) and its all-clear mask 0 decodes.
        """
        if origin == self.host or origin in self._store:
            return
        self._store[origin] = ()
        self.codec.learn_table(origin, 0, ())

    def _absorb_holdings(self, holdings: Holdings) -> None:
        """Max-merge remote rows; a row about *us* is ignored (we are
        authoritative), a row's entry about our origin confirms the row's
        node for masking."""
        for node, row in holdings.items():
            self._note_origin(node)
            if node == self.host:
                continue
            mine = self._knowledge.setdefault(node, {})
            for origin, version in row.items():
                self._note_origin(origin)
                if origin not in mine or version > mine[origin]:
                    mine[origin] = version
            if self.host in mine:
                # The wire-plane invariant: masks only use bits the peer
                # holds.  Tables are append-only so the claim is monotone.
                self.codec.note_confirmed(node, mine[self.host])

    def _absorb_claims(self, claims: Sequence[CheckpointClaim]) -> None:
        for claim in claims:
            if claim.domain == self.host:
                continue
            fresh = self._claims.get(claim.domain)
            if self.pinboard.pin(claim):
                self.stats.claims_pinned += 1
                if fresh is None or claim.position > fresh.position:
                    self._claims[claim.domain] = claim
                if fresh is None and self.audit is not None:
                    self.audit.append(
                        RecordKind.FEDERATION_PIN,
                        self.host,
                        claim.domain,
                        {"position": claim.position,
                         "head": claim.head_digest[:16]},
                    )
            else:
                # Equivocation: the domain showed someone a different
                # history for a position we already pinned.
                self.stats.claim_conflicts += 1
                if self.audit is not None:
                    self.audit.append(
                        RecordKind.FEDERATION_PIN,
                        self.host,
                        claim.domain,
                        {"conflict": True, "position": claim.position},
                    )

    def _apply_block(self, origin: str, block: TagBlock) -> None:
        """Extend our slice of ``origin``'s table with a gossiped delta."""
        if origin == self.host:
            return  # we are the origin; nobody teaches us our own table
        have = self.version_of(origin)
        if block.base > have:
            # A gap: an earlier delta is missing.  Our wants are always
            # computed from what we actually store, so the next round
            # re-pulls from our true version — drop, don't guess.
            self.stats.delta_gaps += 1
            return
        tags = block.tags()
        new = tags[have - block.base :]
        if not new:
            return
        self._store[origin] = self._store.get(origin, ()) + tuple(new)
        # Keep the codec's per-peer translator in lock-step: data masks
        # arriving from `origin` must remap through these positions.
        self.codec.learn_table(origin, have, new)
        self.stats.blocks_applied += 1
        self.stats.tags_learned += len(new)

    def _blocks_for(
        self,
        their_row: Mapping[str, int],
        origins: Iterable[str],
        optimistic_for: Optional[str],
    ) -> Dict[str, TagBlock]:
        """Compressed deltas for each of ``origins`` we are ahead of
        ``their_row`` on, each starting at the version the row says they
        hold (0 when it is silent).  An origin outside ``origins`` costs
        nothing: no slice, no compression.  ``optimistic_for`` marks the
        receiving node as holding what we push (exact on lossless
        transport; self-healing otherwise — see module docstring)."""
        blocks: Dict[str, TagBlock] = {}
        for origin in origins:
            mine = self.version_of(origin)
            theirs = their_row.get(origin, 0)
            if mine > theirs:
                slice_ = self.tags_known(origin)[theirs:]
                blocks[origin] = TagBlock.compress(slice_, base=theirs)
                if optimistic_for is not None:
                    row = self._knowledge.setdefault(optimistic_for, {})
                    if mine > row.get(origin, 0):
                        row[origin] = mine
        return blocks

    # -- the exchange ------------------------------------------------------

    def make_digest(self) -> GossipDigest:
        """Open an exchange: our whole knowledge matrix plus claims."""
        self.stats.digests_sent += 1
        return GossipDigest(
            sender=self.host,
            holdings=self._matrix(),
            claims=self._claims_out(),
        )

    def handle_digest(self, digest: GossipDigest) -> GossipReply:
        """Absorb a digest; answer with pushes (their row is behind ours)
        and pulls (``wants`` where ours is behind theirs)."""
        self._absorb_claims(digest.claims)
        sender_row = digest.holdings.get(digest.sender, {})
        blocks = self._blocks_for(
            sender_row, self.origins(), optimistic_for=digest.sender
        )
        self._absorb_holdings(digest.holdings)
        wants = {
            origin: self.version_of(origin)
            for origin, version in sender_row.items()
            if version > self.version_of(origin)
        }
        self.stats.replies_sent += 1
        return GossipReply(
            sender=self.host,
            holdings=self._matrix(),
            wants=wants,
            blocks=blocks,
            claims=self._claims_out(),
        )

    def handle_reply(self, reply: GossipReply) -> GossipDelta:
        """Apply the reply's pushes, then serve its pulls.

        The delta carries a block only for an origin in ``reply.wants``,
        starting at the version the peer said it holds; every other
        origin is left alone, so an exchange between converged nodes
        compresses nothing.  The delta is sent even without blocks: its
        holdings matrix is how the peer learns what we absorbed from
        the reply, and skipping it slows convergence.
        """
        self._absorb_claims(reply.claims)
        for origin, block in reply.blocks.items():
            self._apply_block(origin, block)
        blocks = self._blocks_for(
            reply.wants, reply.wants, optimistic_for=reply.sender
        )
        self._absorb_holdings(reply.holdings)
        self.stats.deltas_sent += 1
        return GossipDelta(
            sender=self.host, holdings=self._matrix(), blocks=blocks
        )

    def handle_delta(self, delta: GossipDelta) -> None:
        """Close the exchange: apply the pulled blocks."""
        for origin, block in delta.blocks.items():
            self._apply_block(origin, block)
        self._absorb_holdings(delta.holdings)

    # -- transport adaptation ---------------------------------------------

    def receive(self, datagram) -> None:
        """Network entry point: dispatch a gossip datagram, sending any
        response back through the mesh."""
        payload = datagram.payload
        reply: Optional[GossipControl] = None
        if isinstance(payload, GossipDigest):
            reply = self.handle_digest(payload)
        elif isinstance(payload, GossipReply):
            reply = self.handle_reply(payload)
        elif isinstance(payload, GossipDelta):
            self.handle_delta(payload)
        if reply is not None and self.mesh is not None:
            self.mesh._send(self, datagram.source, reply)


@dataclass
class MeshStats:
    """Mesh-wide counters (sum of node sends plus round bookkeeping)."""

    rounds: int = 0
    introductions: int = 0

    def merge_nodes(self, nodes) -> Dict[str, int]:
        total = {
            "digests": 0, "replies": 0, "deltas": 0,
            "bytes": 0, "tags_learned": 0,
        }
        for node in nodes:
            total["digests"] += node.stats.digests_sent
            total["replies"] += node.stats.replies_sent
            total["deltas"] += node.stats.deltas_sent
            total["bytes"] += node.stats.bytes_sent
            total["tags_learned"] += node.stats.tags_learned
        return total


class GossipMesh:
    """The federation plane: N substrates gossiping vocabulary deltas and
    audit checkpoints over the simulated network.

    Rounds are scheduled on the simulation's own event queue
    (:meth:`start` uses ``Simulator.schedule_every``), so anti-entropy
    runs as deterministic background traffic exactly like the audit
    spine's clock-tick drains.  Partner selection is dimension exchange
    on the sorted host ring: round ``r`` pairs each node with the one
    ``2^((r-1) mod ⌈log₂ N⌉)`` positions ahead, which converges content
    in ⌈log₂ N⌉ rounds instead of the N−1 a naive ring needs.

    Example::

        mesh = GossipMesh(network, sim, interval=0.5)
        for substrate in substrates:
            mesh.join_substrate(substrate)
        rounds = mesh.run_until_converged()
        assert mesh.converged()
    """

    def __init__(self, network, sim, interval: float = 1.0, name: str = "mesh"):
        self.network = network
        self.sim = sim
        self.interval = interval
        self.name = name
        self.stats = MeshStats()
        self._nodes: Dict[str, MeshNode] = {}
        self._cancel = None

    # -- membership --------------------------------------------------------

    def nodes(self) -> List[MeshNode]:
        return [self._nodes[h] for h in sorted(self._nodes)]

    def node(self, host: str) -> MeshNode:
        return self._nodes[host]

    def join(
        self,
        host: str,
        codec: WireCodec,
        spine=None,
        register_host: bool = True,
        pin_retain_every: Optional[int] = None,
    ) -> MeshNode:
        """Add a member.  ``register_host`` adds a network host whose
        receiver is the node itself (codec-only members, e.g. benches);
        substrates instead route ``kind="gossip"`` datagrams to the node
        from their own receiver (:meth:`join_substrate`).
        ``pin_retain_every`` sets the member pinboard's retention policy
        (see :class:`~repro.audit.distributed.FederationPinboard`)."""
        if host in self._nodes:
            return self._nodes[host]
        node = MeshNode(
            host, codec, spine=spine, mesh=self,
            pin_retain_every=pin_retain_every,
        )
        self._nodes[host] = node
        if register_host:
            self.network.add_host(host, node.receive)
        return node

    def join_substrate(
        self, substrate, pin_retain_every: Optional[int] = None
    ) -> MeshNode:
        """Enrol a :class:`~repro.middleware.substrate.MessagingSubstrate`:
        its codec becomes the node's origin table, its machine's audit
        spine is claimed/pinned, and the substrate forwards gossip
        datagrams to the node."""
        node = self.join(
            substrate.machine.hostname,
            substrate.wire,
            spine=substrate.machine.audit,
            register_host=False,
            pin_retain_every=pin_retain_every,
        )
        substrate.attach_gossip(node)
        return node

    def configure_transport(
        self, coalesce_window: float = 0.0, max_batch: int = 64
    ) -> None:
        """Enable the network's coalescing outbox for every current
        member host, so gossip DIGEST/REPLY/DELTA datagrams (and the
        member's data traffic) batch per ``(source, destination, kind)``
        flight window.  ``coalesce_window`` should stay well below the
        round ``interval`` — a window approaching the interval delays a
        round's replies into the next round.
        """
        for host in self._nodes:
            self.network.configure_transport(
                coalesce_window, max_batch, host=host
            )

    # -- rounds ------------------------------------------------------------

    def _send(self, node: MeshNode, destination: str, payload: GossipControl) -> None:
        size = payload.wire_size
        node.stats.bytes_sent += size
        self.network.send(node.host, destination, payload, kind="gossip", size=size)

    def _round(self) -> None:
        """One anti-entropy round: every node opens one exchange with its
        dimension-exchange partner for this round."""
        hosts = sorted(self._nodes)
        n = len(hosts)
        if n < 2:
            return
        self.stats.rounds += 1
        dims = max(1, math.ceil(math.log2(n)))
        step = 1 << ((self.stats.rounds - 1) % dims)
        for index, host in enumerate(hosts):
            partner = hosts[(index + step) % n]
            node = self._nodes[host]
            self._send(node, partner, node.make_digest())

    def start(self) -> None:
        """Schedule recurring rounds on the simulator (idempotent)."""
        if self._cancel is None:
            self._cancel = self.sim.schedule_every(
                self.interval, self._round, label=f"{self.name}:round"
            )

    def stop(self) -> None:
        if self._cancel is not None:
            self._cancel()
            self._cancel = None

    def run_until_converged(self, max_rounds: int = 64) -> int:
        """Drive rounds synchronously (advancing the simulator to deliver
        each round's datagrams) until :meth:`converged`; returns the
        rounds used.  Raises ``RuntimeError`` past ``max_rounds``."""
        rounds = 0
        while not self.converged():
            if rounds >= max_rounds:
                raise RuntimeError(
                    f"mesh not converged after {max_rounds} rounds"
                )
            self._round()
            self.sim.run_for(self.interval)
            rounds += 1
        return rounds

    def introduce(self, querier_host: str, found_hosts) -> int:
        """Discovery piggyback: the querier immediately opens exchanges
        with the hosts it just discovered, instead of waiting for the
        next scheduled round (the 'handshake folded into discovery').
        Returns how many exchanges were opened."""
        node = self._nodes.get(querier_host)
        if node is None:
            return 0
        opened = 0
        for host in sorted(set(found_hosts)):
            if host == querier_host or host not in self._nodes:
                continue
            self._send(node, host, node.make_digest())
            self.stats.introductions += 1
            opened += 1
        return opened

    # -- observation -------------------------------------------------------

    def converged(self) -> bool:
        """Full federation-vocabulary convergence, every pair masking.

        For every ordered pair ``(A, B)``: A can translate everything B
        *brought* to the federation (A's slice of B's table covers B's
        baseline), and A may mask its own brought vocabulary to B (B
        confirmed ≥ A's baseline).  Tags interned after joining —
        including a node's interner growing as it learns peers' tags —
        re-sync through deltas/resyncs, as post-handshake growth always
        has.
        """
        nodes = self.nodes()
        for node in nodes:
            for other in nodes:
                if node is other:
                    continue
                if node.version_of(other.host) < other.baseline:
                    return False
                state = node.codec.peer(other.host)
                if state.confirmed is None:
                    return False
                if state.confirmed < node.baseline:
                    return False
        return True

    def control_bytes(self) -> int:
        """Total gossip bytes shipped so far (all nodes)."""
        return sum(node.stats.bytes_sent for node in self.nodes())

    def pinboards(self) -> Dict[str, FederationPinboard]:
        return {host: node.pinboard for host, node in sorted(self._nodes.items())}

    def verify_federation(
        self,
        mode: Optional[str] = None,
        workers: Optional[int] = None,
    ) -> Dict[str, Dict[str, str]]:
        """Every pinboard's verdict over every *other* member's live spine
        — the cross-domain tamper check (see
        :meth:`~repro.audit.distributed.FederationPinboard.verify`).

        ``mode`` (``"incremental"`` / ``"deep"``) optionally adds each
        spine's own watermark-aware chain check to the pin comparison;
        incremental is cheap enough to run every round.
        """
        spines = {
            host: node.spine
            for host, node in self._nodes.items()
            if node.spine is not None
        }
        return {
            host: node.pinboard.verify(spines, mode=mode, workers=workers)
            for host, node in sorted(self._nodes.items())
        }
