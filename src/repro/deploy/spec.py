"""Declarative deployment specifications.

A :class:`DeploymentSpec` is the whole federation on paper: the world
parameters (seed, enforcement mode, network latency, mesh cadence) plus
one :class:`NodeSpec` per member.  Specs are plain data — build them in
config code, generate them in benchmarks, or let the fluent
:class:`~repro.deploy.builder.Deployment` API accumulate them — and
hand them to :meth:`Deployment.from_spec
<repro.deploy.builder.Deployment.from_spec>` to get a running, fully
cross-wired deployment.

The defaults encode the paper's intended stack: IFC enforcement on,
masked wire envelopes on, one audit spine per node with every plane
writing its own segment, and (where a mesh is requested) gossip rounds
on the simulation's own event queue.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from repro.accesscontrol.pep import EnforcementMode
from repro.cloud.machine import MachineConfig


@dataclass
class SpillSpec:
    """Tiered audit storage for one node's spine (``docs/audit_storage.md``).

    Attributes:
        path: base spill directory; each node spills into
            ``<path>/<hostname>`` so co-deployed nodes never share
            segment files.
        hot_segments: sealed segments kept in memory per source before
            older ones demote to disk.
        seal_every: records per sealed segment (the seal cadence — also
            the granularity of the per-segment query indexes).
    """

    path: str
    hot_segments: int = 2
    seal_every: int = 1024

    def __post_init__(self) -> None:
        if not self.path:
            raise ValueError("spill path must be non-empty")
        if self.seal_every < 1:
            raise ValueError(
                f"seal_every must be >= 1, got {self.seal_every}"
            )
        if self.hot_segments < 0:
            raise ValueError(
                f"hot_segments must be >= 0, got {self.hot_segments}"
            )


@dataclass
class TransportSpec:
    """Coalescing transport for one node's sends (``docs/transport_plane.md``).

    Attributes:
        coalesce_window: simulated seconds an outbox stays open for
            joiners after its first datagram (0.0 still coalesces
            same-instant sends at exactly the uncoalesced delivery
            time).
        max_batch: datagrams per batch before the outbox closes to
            joiners.
    """

    coalesce_window: float = 0.0
    max_batch: int = 64

    def __post_init__(self) -> None:
        if self.coalesce_window < 0:
            raise ValueError(
                f"coalesce_window must be >= 0, got {self.coalesce_window}"
            )
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")


@dataclass
class NodeSpec:
    """One deployment member, declaratively.

    Attributes:
        name: the node's deployment-unique name.
        hostname: the network hostname (defaults to ``name``); this is
            what the machine, substrate and mesh membership key on.
        machine: build a :class:`~repro.cloud.machine.Machine` (kernel +
            TPM + audit spine) for this node.  Off, the
            node is bus-only (just a domain).
        machine_config: optional :class:`~repro.cloud.machine.
            MachineConfig` (enforcement, boot chain, spine cadence).
        substrate: bind a :class:`~repro.middleware.substrate.
            MessagingSubstrate` to the machine (requires ``machine``).
        enforce: substrate-level IFC enforcement (off for baseline
            benchmarking, mirroring ``MessagingSubstrate(enforce=)``).
        wire_masks: masked wire envelopes after vocabulary agreement
            (off pins the substrate to the tag-set format).
        attested: run remote attestation against the deployment's
            shared verifier before first contact with each peer.
        domain: name of the :class:`~repro.iot.domain.
            AdministrativeDomain` this node operates (``None`` for
            machine-only nodes, e.g. pure relays or benches).
        domain_mode: enforcement mode override for the domain (defaults
            to the world's mode).
        spine_backed: when the node has both a machine and a domain,
            route the domain's whole audit stack into the machine's
            spine (one tamper-evident chain per node).  Off keeps the
            historical detached per-domain ``AuditLog``.
        mesh: enrol the node's substrate in the deployment's
            :class:`~repro.federation.GossipMesh`.
        pinboard_retain_every: pin-retention policy for the node's
            :class:`~repro.audit.distributed.FederationPinboard`
            (``None`` keeps every pin; implies ``mesh``).
        directory: serve the deployment's federation directory (a
            mesh-attached :class:`~repro.middleware.discovery.
            ResourceDiscovery`) from this node.
        spill: tiered audit storage (:class:`SpillSpec`): seal the
            machine spine's segments on a cadence and demote old ones
            to disk under ``spill.path/<hostname>`` (implies
            ``machine``).  ``None`` keeps the all-in-memory spine.
        transport: coalescing transport (:class:`TransportSpec`) for
            this node's network sends — datagrams to one ``(destination,
            kind)`` inside the flight window share one scheduled
            delivery batch (implies ``machine``).  ``None`` keeps
            per-datagram scheduling.
    """

    name: str
    hostname: str = ""
    machine: bool = True
    machine_config: Optional[MachineConfig] = None
    substrate: bool = True
    enforce: bool = True
    wire_masks: bool = True
    attested: bool = False
    domain: Optional[str] = None
    domain_mode: Optional[EnforcementMode] = None
    spine_backed: bool = True
    mesh: bool = False
    pinboard_retain_every: Optional[int] = None
    directory: bool = False
    spill: Optional[SpillSpec] = None
    transport: Optional[TransportSpec] = None

    def __post_init__(self) -> None:
        if not self.hostname:
            self.hostname = self.name
        if self.spill is not None:
            self.machine = True
        if self.transport is not None:
            self.machine = True
        if self.pinboard_retain_every is not None:
            self.mesh = True
        if self.mesh:
            self.substrate = True
        if not self.machine:
            # An explicit bus-only override: a substrate cannot exist
            # without a machine, so machine=False turns the (default-on)
            # substrate off — unless the spec explicitly asked for mesh
            # membership, which implies the full machine stack.
            if self.mesh:
                self.machine = True
            else:
                self.substrate = False
        if self.substrate:
            self.machine = True
        if not self.machine and self.domain is None:
            # A spec that builds nothing is a latent bug in config code.
            self.domain = self.name


@dataclass
class DeploymentSpec:
    """A whole federation, declaratively.

    Attributes:
        name: deployment name (prefixes the mesh name).
        seed: simulation seed (ignored when a world is supplied).
        mode: world-wide enforcement mode.
        default_latency: network latency (``None`` = the network's own
            default).
        mesh_interval: seconds between scheduled gossip rounds.
        nodes: the member :class:`NodeSpec`\\ s.
    """

    name: str = "deployment"
    seed: int = 0
    mode: EnforcementMode = EnforcementMode.AC_AND_IFC
    default_latency: Optional[float] = None
    mesh_interval: float = 60.0
    nodes: List[NodeSpec] = field(default_factory=list)

    def node(self, name: str, **overrides) -> NodeSpec:
        """Append a :class:`NodeSpec` (declarative counterpart of the
        fluent ``Deployment.node``)."""
        spec = NodeSpec(name=name, **overrides)
        self.nodes.append(spec)
        return spec
