"""The declarative deployment façade (``docs/deploy_api.md``).

The paper's pitch is middleware *applications* program against: policy-
driven IFC should be ambient, not hand-assembled.  Before this façade
every app, example and benchmark wired its own stack — ``Machine`` +
``MessagingSubstrate`` + ``AdministrativeDomain`` + ``GossipMesh.
join_substrate`` + ``FederationPinboard`` + discovery, with the audit
plumbing glued together case by case.  :class:`Deployment` is the one
place that wiring lives now:

    deploy = Deployment(seed=7)
    city = deploy.node("city", hostname="city-hq").with_domain("city").with_mesh()
    d1 = deploy.node("district-1").with_domain().with_mesh().with_pinboard(retain_every=4)
    deploy.run(hours=2)
    verdicts = deploy.verify()        # federation-wide verdict matrix
    rollup = deploy.stats()           # per-plane counters

Every node gets the correct defaults cross-wired: one machine per node
sharing the world's simulated clock (so its audit spine drains on clock
ticks), a substrate registered as the machine's network receiver,
spine-backed domains (the whole domain stack — bus, channels, policy
engine, reconfigurator, discovery — writes per-source segments of the
machine's one tamper-evident chain, via the
:class:`~repro.audit.sink.AuditSink` contract), mesh membership with
pinboards, and a mesh-attached federation directory that piggybacks
vocabulary offers on discovery answers.

Construction is lazy: ``with_*`` calls only record intent on the node's
:class:`~repro.deploy.spec.NodeSpec`; touching a built artefact
(``node.machine``, ``node.domain``, ...) or calling
:meth:`Deployment.build` materialises it.  The same specs can be built
declaratively via :meth:`Deployment.from_spec`.
"""

from __future__ import annotations

from pathlib import Path
from typing import Dict, List, Optional

from repro.accesscontrol.pep import EnforcementMode
from repro.audit.distributed import AuditCollector
from repro.audit.spine import _deep_of, bind_source
from repro.cloud.machine import (
    APPROVED_BOOT_CHAIN,
    BOOT_PCR,
    Machine,
    MachineConfig,
    trusted_verifier,
)
from repro.crypto.attestation import AttestationVerifier
from repro.deploy.spec import DeploymentSpec, NodeSpec, SpillSpec, TransportSpec
from repro.errors import DiscoveryError
from repro.federation import GossipMesh, MeshNode
from repro.ifc.labels import SecurityContext
from repro.ifc.privileges import PrivilegeSet
from repro.iot.domain import AdministrativeDomain
from repro.iot.world import IoTWorld
from repro.middleware.discovery import ResourceDiscovery
from repro.middleware.substrate import MessagingSubstrate, SubstrateHandler


class DeploymentNode:
    """One member of a :class:`Deployment`: fluent spec + built planes.

    Before :meth:`build`, the ``with_*`` methods shape the node's
    :class:`~repro.deploy.spec.NodeSpec`; after it (triggered
    explicitly, by the deployment, or by touching any built attribute)
    the spec is frozen and the planes are live objects.
    """

    def __init__(self, deployment: "Deployment", spec: NodeSpec):
        self.deployment = deployment
        self.spec = spec
        self._machine: Optional[Machine] = None
        self._substrate: Optional[MessagingSubstrate] = None
        self._mesh_node: Optional[MeshNode] = None
        self._domain: Optional[AdministrativeDomain] = None
        self._built = False

    def __repr__(self) -> str:
        state = "built" if self._built else "spec"
        return f"<DeploymentNode {self.spec.name} [{state}]>"

    # -- fluent configuration (pre-build) ----------------------------------

    def _mutable(self) -> NodeSpec:
        if self._built:
            raise RuntimeError(
                f"node {self.spec.name!r} is already built; "
                "configure nodes before first use"
            )
        return self.spec

    def with_machine(
        self,
        config: Optional[MachineConfig] = None,
        hostname: Optional[str] = None,
    ) -> "DeploymentNode":
        """Give the node a machine (kernel + TPM + audit spine)."""
        spec = self._mutable()
        spec.machine = True
        if config is not None:
            spec.machine_config = config
        if hostname is not None:
            spec.hostname = hostname
        return self

    def with_substrate(
        self,
        enforce: bool = True,
        wire_masks: bool = True,
        attested: bool = False,
    ) -> "DeploymentNode":
        """Bind a messaging substrate (implies a machine)."""
        spec = self._mutable()
        spec.machine = spec.substrate = True
        spec.enforce = enforce
        spec.wire_masks = wire_masks
        spec.attested = attested
        return self

    def with_domain(
        self,
        name: Optional[str] = None,
        mode: Optional[EnforcementMode] = None,
        spine_backed: bool = True,
    ) -> "DeploymentNode":
        """Give the node an administrative domain (defaults to the
        node's name).  ``spine_backed`` routes the domain's audit stack
        into the machine spine — one tamper-evident chain per node."""
        spec = self._mutable()
        spec.domain = name or spec.name
        spec.domain_mode = mode
        spec.spine_backed = spine_backed
        return self

    def with_mesh(self) -> "DeploymentNode":
        """Enrol the substrate in the deployment's gossip mesh."""
        spec = self._mutable()
        spec.mesh = spec.substrate = spec.machine = True
        return self

    def with_pinboard(
        self, retain_every: Optional[int] = None
    ) -> "DeploymentNode":
        """Configure the node's federation pinboard (implies mesh).

        ``retain_every=k`` keeps every k-th pinned checkpoint position
        plus the newest (:class:`~repro.audit.distributed.
        FederationPinboard`)."""
        spec = self._mutable()
        spec.mesh = spec.substrate = spec.machine = True
        spec.pinboard_retain_every = retain_every
        return self

    def with_discovery(self) -> "DeploymentNode":
        """Serve the deployment's federation directory from this node."""
        self._mutable().directory = True
        return self

    def with_spill(
        self,
        path,
        hot_segments: int = 2,
        seal_every: int = 1024,
    ) -> "DeploymentNode":
        """Give the node's audit spine a tiered cold store (implies a
        machine; ``docs/audit_storage.md``).

        The spine seals a segment every ``seal_every`` records, keeps
        the ``hot_segments`` newest sealed segments per source in
        memory, and spills older ones to ``<path>/<hostname>`` in the
        fixed-stride, mmap-able record format — chains, checkpoints,
        receipts and pinboard verdicts are identical to the in-memory
        spine, and :class:`~repro.audit.query.AuditQuery` answers from
        the per-segment indexes across both tiers.
        """
        spec = self._mutable()
        spec.machine = True
        spec.spill = SpillSpec(
            path=str(path), hot_segments=hot_segments, seal_every=seal_every
        )
        return self

    def with_transport(
        self,
        coalesce_window: float = 0.0,
        max_batch: int = 64,
    ) -> "DeploymentNode":
        """Enable the coalescing transport for this node's sends
        (implies a machine; ``docs/transport_plane.md``).

        Datagrams this node sends to one ``(destination, kind)`` within
        ``coalesce_window`` simulated seconds share one scheduled
        batch-delivery event (up to ``max_batch`` datagrams); send-time
        semantics — partition blocks, link drops, the per-datagram loss
        roll, ``sent_at`` stamps — are per datagram and identical to the
        uncoalesced path.  A window of 0.0 coalesces same-instant sends
        at exactly the uncoalesced delivery time.  The rollup appears
        under ``stats()["transport"]``.
        """
        spec = self._mutable()
        spec.machine = True
        spec.transport = TransportSpec(
            coalesce_window=coalesce_window, max_batch=max_batch
        )
        return self

    # -- build -------------------------------------------------------------

    def build(self) -> "DeploymentNode":
        """Materialise every configured plane (idempotent)."""
        if self._built:
            return self
        self._built = True
        spec = self.spec
        deployment = self.deployment
        world = deployment.world
        if spec.machine:
            self._machine = Machine(
                spec.hostname,
                config=spec.machine_config,
                clock=world.sim.clock if deployment.tick_drain
                else world.sim.now,
            )
            deployment._register_machine(self._machine)
            if spec.spill is not None:
                # Per-node spill directory: co-deployed nodes must not
                # share segment files.
                self._machine.audit.configure_spill(
                    Path(spec.spill.path) / spec.hostname,
                    hot_segments=spec.spill.hot_segments,
                    seal_every=spec.spill.seal_every,
                )
        if spec.transport is not None:
            world.network.configure_transport(
                coalesce_window=spec.transport.coalesce_window,
                max_batch=spec.transport.max_batch,
                host=spec.hostname,
            )
        if spec.substrate:
            self._substrate = MessagingSubstrate(
                self._machine,
                world.network,
                enforce=spec.enforce,
                verifier=deployment.verifier if spec.attested else None,
                wire_masks=spec.wire_masks,
            )
        if spec.mesh:
            self._mesh_node = deployment.mesh.join_substrate(
                self._substrate,
                pin_retain_every=spec.pinboard_retain_every,
            )
        if spec.domain is not None:
            audit = None
            if spec.machine and spec.spine_backed:
                audit = self._machine.audit
                deployment._spine_backed_domains.add(spec.domain)
            self._domain = world.create_domain(
                spec.domain, audit=audit, mode=spec.domain_mode
            )
        if spec.directory:
            deployment.directory(self)
        return self

    # -- built artefacts ---------------------------------------------------

    @property
    def hostname(self) -> str:
        return self.spec.hostname

    @property
    def machine(self) -> Optional[Machine]:
        """The node's machine (builds on first access; None when the
        node is bus-only)."""
        self.build()
        return self._machine

    @property
    def substrate(self) -> Optional[MessagingSubstrate]:
        """The node's messaging substrate (builds on first access)."""
        self.build()
        return self._substrate

    @property
    def mesh_node(self) -> Optional[MeshNode]:
        """The node's mesh membership (builds on first access; None
        when the node is not federated)."""
        self.build()
        return self._mesh_node

    @property
    def domain(self) -> AdministrativeDomain:
        """The node's administrative domain (builds on first access)."""
        self.build()
        if self._domain is None:
            raise DiscoveryError(
                f"node {self.spec.name!r} has no domain; add .with_domain()"
            )
        return self._domain

    @property
    def pinboard(self):
        """The node's federation pinboard (builds on first access)."""
        self.build()
        if self.mesh_node is None:
            raise DiscoveryError(
                f"node {self.spec.name!r} is not in the mesh; add .with_mesh()"
            )
        return self.mesh_node.pinboard

    @property
    def spine(self):
        """The audit chain this node *presents* to the federation."""
        self.build()
        if self.mesh_node is not None:
            return self.mesh_node.spine
        if self.machine is not None:
            return self.machine.audit
        return self.domain.audit

    def launch(
        self,
        name: str,
        security: Optional[SecurityContext] = None,
        privileges: Optional[PrivilegeSet] = None,
        handler: Optional[SubstrateHandler] = None,
    ):
        """Launch an application process on this node's machine and —
        when a ``handler`` is given — register it with the substrate for
        cross-machine delivery.  Returns the kernel process."""
        self.build()
        if self.machine is None:
            raise DiscoveryError(
                f"node {self.spec.name!r} has no machine; add .with_machine()"
            )
        process = self.machine.launch(name, security, privileges)
        if handler is not None:
            if self.substrate is None:
                raise DiscoveryError(
                    f"node {self.spec.name!r} has no substrate; "
                    "add .with_substrate()"
                )
            self.substrate.register(process, handler)
        return process


class VerdictMatrix(dict):
    """The :meth:`Deployment.verify` result: the federation verdict
    matrix, dict-compatible, with the analysis gate's findings attached.

    ``matrix[observer][subject]`` behaves exactly as before; when the
    pre-deploy analysis gate ran, ``matrix["analysis"]`` is its
    per-assertion verdict row and :attr:`analysis` holds the full
    :class:`~repro.analysis.gate.AnalysisReport` (``None`` otherwise).
    :meth:`ok` folds both planes into one go/no-go answer.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.analysis = None

    def ok(self) -> bool:
        """Every federation verdict is ``"ok"``/``"unpinned"`` and the
        analysis gate (when it ran) found no violations."""
        for observer, row in self.items():
            if observer == "analysis":
                continue
            for verdict in row.values():
                if verdict not in ("ok", "unpinned"):
                    return False
        return self.analysis is None or self.analysis.ok()


class Deployment:
    """A federated IFC deployment behind one declarative façade.

    Wraps (or creates) an :class:`~repro.iot.world.IoTWorld` and owns
    the cross-node planes: the gossip mesh, the shared attestation
    verifier, and the federation directory.  Nodes are added with
    :meth:`node` (fluent) or :meth:`from_spec` (declarative); bus-only
    domains with :meth:`domain`.  :meth:`run` starts the mesh and
    advances simulated time; :meth:`verify` returns the federation-wide
    verdict matrix; :meth:`stats` the per-plane rollup.
    """

    def __init__(
        self,
        world: Optional[IoTWorld] = None,
        *,
        seed: int = 0,
        mode: EnforcementMode = EnforcementMode.AC_AND_IFC,
        name: str = "deployment",
        mesh_interval: float = 60.0,
        default_latency: Optional[float] = None,
        tick_drain: bool = True,
    ):
        self.name = name
        self.world = world if world is not None else IoTWorld(
            seed=seed, mode=mode, default_latency=default_latency
        )
        self.mesh_interval = mesh_interval
        #: Attach every machine spine to the simulated clock so staged
        #: audit records drain on ticks (the deployment default).
        #: ``False`` gives machines a timestamp-only clock — what
        #: micro-benchmarks want, so the timed loop measures the plane
        #: under test and not background drain work.
        self.tick_drain = tick_drain
        self._nodes: Dict[str, DeploymentNode] = {}
        self._mesh: Optional[GossipMesh] = None
        self._mesh_started = False
        self._verifier: Optional[AttestationVerifier] = None
        self._directory: Optional[ResourceDiscovery] = None
        self._directory_node: Optional[DeploymentNode] = None
        self._spine_backed_domains: set = set()
        self._machines: List[Machine] = []
        self._gateways: List = []
        self._flow_assertions: List = []
        self._analysis_counters: Dict[str, float] = {
            "compiles": 0, "gates": 0, "assertions_checked": 0,
            "violations": 0, "queries": 0,
            "wall_s": 0.0,
        }

    def __repr__(self) -> str:
        return f"<Deployment {self.name} nodes={len(self._nodes)}>"

    # -- convenience views -------------------------------------------------

    @property
    def sim(self):
        return self.world.sim

    @property
    def network(self):
        return self.world.network

    # -- membership --------------------------------------------------------

    def node(self, name: str, **overrides) -> DeploymentNode:
        """The fluent entry point: get-or-create a named node.

        ``overrides`` seed the new node's :class:`~repro.deploy.spec.
        NodeSpec` fields (``hostname=...``, ``enforce=False``, ...); a
        second call with overrides for an existing node is an error —
        reconfigure through the ``with_*`` methods instead.
        """
        existing = self._nodes.get(name)
        if existing is not None:
            if overrides:
                raise ValueError(
                    f"node {name!r} already exists; use its with_* methods"
                )
            return existing
        handle = DeploymentNode(self, NodeSpec(name=name, **overrides))
        self._nodes[name] = handle
        return handle

    def apply(self, spec: NodeSpec) -> DeploymentNode:
        """Add (and build) a declaratively specified node."""
        if spec.name in self._nodes:
            raise ValueError(f"node {spec.name!r} already exists")
        handle = DeploymentNode(self, spec)
        self._nodes[spec.name] = handle
        return handle.build()

    @classmethod
    def of(cls, world_or_deployment, **kwargs) -> "Deployment":
        """Adapt either an :class:`~repro.iot.world.IoTWorld` or an
        existing :class:`Deployment` to a deployment — what the app
        layer uses so scenario classes accept both.  ``kwargs`` only
        apply when a bare world is wrapped."""
        if isinstance(world_or_deployment, cls):
            return world_or_deployment
        return cls(world_or_deployment, **kwargs)

    @classmethod
    def from_spec(
        cls, spec: DeploymentSpec, world: Optional[IoTWorld] = None
    ) -> "Deployment":
        """Build a whole deployment from a :class:`DeploymentSpec`."""
        deployment = cls(
            world,
            seed=spec.seed,
            mode=spec.mode,
            name=spec.name,
            mesh_interval=spec.mesh_interval,
            default_latency=spec.default_latency,
        )
        for node_spec in spec.nodes:
            deployment.apply(node_spec)
        return deployment

    def nodes(self) -> List[DeploymentNode]:
        """Every node, in insertion order."""
        return list(self._nodes.values())

    def domain(
        self, name: str, mode: Optional[EnforcementMode] = None
    ) -> AdministrativeDomain:
        """A bus-only administrative domain (no machine, no substrate)
        — the single-bus apps' shortcut.  Returns the existing domain
        when already created through this world; asking for a
        *different* enforcement mode than the existing domain runs
        under is a configuration conflict and raises."""
        existing = self.world.domains.get(name)
        if existing is not None:
            if mode is not None and existing.bus.mode != mode:
                raise ValueError(
                    f"domain {name!r} already runs in mode "
                    f"{existing.bus.mode.value!r}, not {mode.value!r}"
                )
            return existing
        return self.world.create_domain(name, mode=mode)

    # -- cross-node planes -------------------------------------------------

    @property
    def mesh(self) -> GossipMesh:
        """The deployment's gossip mesh (created on first use)."""
        if self._mesh is None:
            self._mesh = GossipMesh(
                self.world.network,
                self.world.sim,
                interval=self.mesh_interval,
                name=f"{self.name}-mesh",
            )
            if self._directory is not None:
                self._directory.attach_federation(self._mesh)
        return self._mesh

    def configure_mesh(self, interval: float) -> None:
        """Set the gossip round cadence (before the mesh exists)."""
        if self._mesh is not None:
            raise RuntimeError("mesh already created; set mesh_interval earlier")
        self.mesh_interval = interval

    @property
    def verifier(self) -> AttestationVerifier:
        """The deployment-wide attestation verifier.  Every machine
        built through the façade gets a golden value for the *approved*
        boot chain, so a tampered platform fails attestation."""
        if self._verifier is None:
            self._verifier = trusted_verifier(self._machines)
        return self._verifier

    def _register_machine(self, machine: Machine) -> None:
        self._machines.append(machine)
        if self._verifier is not None:
            self._verifier.golden_for_measurements(
                machine.hostname, BOOT_PCR, APPROVED_BOOT_CHAIN
            )

    def directory(
        self, node: Optional[DeploymentNode] = None
    ) -> ResourceDiscovery:
        """The federation directory: one mesh-attached
        :class:`~repro.middleware.discovery.ResourceDiscovery` for the
        whole deployment, audited into the serving ``node``'s spine
        (given on first call).  There is exactly one directory per
        deployment — asking a *different* node to serve it after the
        fact raises rather than silently leaving the new node's chain
        without the discovery records it was configured to hold."""
        if self._directory is None:
            audit = None
            if node is not None:
                node.build()
                if self._directory is not None:
                    # node.build() created the directory itself (the
                    # node had with_discovery()); don't build a second.
                    if node is not self._directory_node:
                        raise ValueError(
                            "the deployment directory was claimed during "
                            f"build by another node; {node.spec.name!r} "
                            "cannot take it over"
                        )
                    return self._directory
                if node.machine is not None:
                    audit = node.machine.audit
            self._directory = ResourceDiscovery(audit=audit)
            self._directory_node = node
            if self._mesh is not None:
                self._directory.attach_federation(self._mesh)
        elif node is not None and node is not self._directory_node:
            if self._directory_node is None:
                # The directory was created unserved (a bare
                # deploy.directory() read); the first node to ask
                # adopts it — late-binding its audit rather than
                # bricking every later with_discovery() build.
                node.build()
                self._directory_node = node
                if self._directory.audit is None and node.machine is not None:
                    self._directory.audit = bind_source(
                        node.machine.audit, "discovery"
                    )
            else:
                raise ValueError(
                    f"the deployment directory is already served by "
                    f"{self._directory_node.spec.name!r}; "
                    f"node {node.spec.name!r} cannot take it over"
                )
        return self._directory

    # -- lifecycle ---------------------------------------------------------

    def build(self) -> "Deployment":
        """Materialise every node added so far (idempotent)."""
        for handle in list(self._nodes.values()):
            handle.build()
        return self

    def start(self) -> "Deployment":
        """Build everything and schedule recurring mesh rounds."""
        self.build()
        if self._mesh is not None and not self._mesh_started:
            self._mesh.start()
            self._mesh_started = True
        return self

    def run(self, hours: float = 0.0, seconds: float = 0.0) -> int:
        """Start (if needed) and advance simulated time; returns the
        number of events processed."""
        self.start()
        return self.world.run(seconds=seconds, hours=hours)

    def converge(self, max_rounds: int = 64) -> int:
        """Drive gossip rounds synchronously until the federation
        vocabulary converges; returns the rounds used."""
        self.build()
        return self.mesh.run_until_converged(max_rounds=max_rounds)

    # -- observation -------------------------------------------------------

    def spines(self) -> Dict[str, object]:
        """Every machine node's live audit spine, by hostname."""
        self.build()
        return {
            handle.spec.hostname: handle.machine.audit
            for handle in self._nodes.values()
            if handle.machine is not None
        }

    # -- the analysis plane (repro.analysis; docs/analysis_plane.md) -------

    def register_gateway(self, gateway) -> "Deployment":
        """Declare a :class:`~repro.ifc.gateways.Gateway` (declassifier
        or endorser) as part of this deployment's policy, so the
        analysis plane models its privileged crossing.  Gateways are
        policy artefacts, not built planes — registration is valid
        before or after :meth:`build`."""
        if gateway not in self._gateways:
            self._gateways.append(gateway)
        return self

    def with_gateways(self, *gateways) -> "Deployment":
        """Fluent plural of :meth:`register_gateway`."""
        for gateway in gateways:
            self.register_gateway(gateway)
        return self

    def with_flow_assertions(self, assertions) -> "Deployment":
        """Register pre-deploy flow assertions (:class:`~repro.analysis.
        gate.Forbid` / :class:`~repro.analysis.gate.Require`).  Once any
        are registered, :meth:`verify` runs the analysis gate and the
        verdict matrix grows an ``"analysis"`` row."""
        self._flow_assertions.extend(assertions)
        return self

    def flow_assertions(self) -> List:
        """The registered pre-deploy assertions, in registration order."""
        return list(self._flow_assertions)

    def analysis_graph(self, obligations=()):
        """Compile this deployment (with its registered gateways) into
        the analysis plane's :class:`~repro.analysis.graph.FlowGraph`."""
        from repro.analysis import compile_deployment

        graph = compile_deployment(self, obligations=obligations)
        self._analysis_counters["compiles"] += 1
        return graph

    def _analysis_audit(self):
        """Where gate findings are recorded: an ``"analysis"`` segment
        of the first machine's spine (machineless deployments skip
        audit emission — there is no chain to write)."""
        for handle in self._nodes.values():
            if handle.machine is not None:
                return bind_source(handle.machine.audit, "analysis")
        return None

    def run_analysis_gate(self, assertions=None, obligations=()):
        """Run the pre-deploy gate and return its
        :class:`~repro.analysis.gate.AnalysisReport`.

        ``assertions`` defaults to the registered
        :meth:`with_flow_assertions` set plus any derived from
        ``obligations``' structured ``forbidden_flows``.  Findings are
        emitted as ``RecordKind.ANALYSIS`` audit records.
        """
        from repro.analysis import assertions_from_obligations, run_gate

        checks = list(
            self._flow_assertions if assertions is None else assertions
        )
        checks += assertions_from_obligations(obligations)
        graph = self.analysis_graph(obligations=obligations)
        report = run_gate(graph, checks, audit=self._analysis_audit())
        counters = self._analysis_counters
        counters["gates"] += 1
        counters["assertions_checked"] += len(report.findings)
        counters["violations"] += len(report.violations())
        counters["queries"] += report.queries
        counters["wall_s"] += report.wall_s
        return report

    def verify(
        self,
        mode: str = "incremental",
        analysis: Optional[bool] = None,
    ) -> "VerdictMatrix":
        """The federation-wide verdict matrix.

        ``matrix[observer][subject]`` is the observer's verdict on the
        subject's audit chain: for mesh members, every peer pinboard's
        cross-domain verdict (``"ok"`` / ``"tampered"`` /
        ``"truncated"`` / ``"unverifiable"`` / ``"unpinned"``, see
        :meth:`~repro.audit.distributed.FederationPinboard.verify`);
        on the diagonal, each member's *local* chain verification of
        the history it presents — which is exactly why cross-pinning
        exists: a censored replay passes its own diagonal and fails
        every peer's row.  Bus-only domains (detached logs) appear on
        the diagonal under their domain name.

        ``mode="incremental"`` (the default) rides the verification
        plane's watermark cursors: each diagonal check re-verifies hot
        tails and anything whose watermark dropped, skipping cold
        segments already deep-verified — steady-state cost is O(new
        records), which is what makes running the matrix every round
        affordable.  ``mode="deep"`` recomputes every chain in full.
        Both modes flip the same verdicts on every tamper class
        (``docs/audit_storage.md``).

        ``analysis`` controls the pre-deploy gate (``repro.analysis``):
        ``None`` (default) runs it iff flow assertions were registered
        via :meth:`with_flow_assertions`; ``True`` forces a run (also
        with zero assertions, for the graph compile); ``False`` skips
        it.  When it runs, the result grows an ``"analysis"`` row of
        per-assertion verdicts and carries the full report on
        ``matrix.analysis`` — static findings exposed uniformly with
        the federation verdicts.
        """
        deep = _deep_of(mode)  # validate before any chain work
        self.build()
        matrix = VerdictMatrix()
        if self._mesh is not None and self._mesh.nodes():
            matrix.update(self._mesh.verify_federation())
        def diagonal(key: str, ok: bool) -> None:
            # A key may carry two chains (a machine spine plus a
            # detached domain log under the same name): the diagonal is
            # "ok" only if every chain presented under it verifies.
            row = matrix.setdefault(key, {})
            if not ok:
                row[key] = "tampered"
            else:
                row.setdefault(key, "ok")

        for handle in self._nodes.values():
            if handle.machine is None:
                continue
            diagonal(
                handle.spec.hostname,
                handle.spine.verify(mode=mode),
            )
        for name, domain in self.world.domains.items():
            if name in self._spine_backed_domains:
                continue
            diagonal(name, domain.audit.verify(mode=mode))
        run_gate = analysis if analysis is not None else bool(
            self._flow_assertions
        )
        if run_gate:
            report = self.run_analysis_gate()
            matrix.analysis = report
            matrix["analysis"] = report.rows()
        return matrix

    def stats(self) -> Dict[str, Dict]:
        """Per-plane rollup across every node (the observability face
        of the façade; plane docs under ``docs/``)."""
        self.build()
        machines = [h.machine for h in self._nodes.values() if h.machine]
        substrates = [h.substrate for h in self._nodes.values() if h.substrate]
        flows = self.world.total_flows()

        substrate = {
            "sent": 0, "delivered": 0, "denied_local": 0,
            "denied_remote": 0, "sent_masked": 0, "sent_tagset": 0,
            "sent_batches": 0,
            "dropped_unroutable": 0, "dropped_undecodable": 0,
            "quenched_attributes": 0, "table_syncs": 0,
        }
        for sub in substrates:
            for key in substrate:
                substrate[key] += getattr(sub.stats, key)

        audit = {"records": 0, "pending": 0, "drains": 0,
                 "checkpoints": 0, "segments": 0, "ring_overflows": 0,
                 "hot_records": 0, "cold_records": 0,
                 "cold_segments": 0, "spill_bytes": 0}
        for machine in machines:
            spine = machine.audit
            audit["records"] += len(spine)
            audit["pending"] += spine.pending
            audit["drains"] += spine.stats_drains
            audit["checkpoints"] += spine.stats_checkpoints
            audit["segments"] += len(spine.sources())
            audit["ring_overflows"] += spine.stats_ring_overflows
            tier_fn = getattr(spine, "tier_stats", None)
            if callable(tier_fn):
                tier = tier_fn()
                audit["hot_records"] += tier["hot_records"]
                audit["cold_records"] += tier["cold_records"]
                audit["cold_segments"] += tier["cold_segments"]
                audit["spill_bytes"] += tier["spill_bytes"]

        federation: Dict[str, object] = {"members": 0}
        if self._mesh is not None:
            nodes = self._mesh.nodes()
            federation = {
                "members": len(nodes),
                "rounds": self._mesh.stats.rounds,
                "introductions": self._mesh.stats.introductions,
                "control_bytes": self._mesh.control_bytes(),
                "converged": self._mesh.converged(),
                "pins": sum(len(n.pinboard) for n in nodes),
                "pin_conflicts": sum(len(n.pinboard.conflicts) for n in nodes),
                "pins_retired": sum(n.pinboard.stats_retired for n in nodes),
            }

        verify = {
            "verifies": 0, "segments_verified": 0, "segments_skipped": 0,
            "records_verified": 0, "bytes_hashed": 0, "watermark_hits": 0,
            "watermark_invalidations": 0, "checkpoints_verified": 0,
            "checkpoints_skipped": 0, "wall_s": 0.0,
        }
        for machine in machines:
            stats_fn = getattr(machine.audit, "verify_stats", None)
            if not callable(stats_fn):
                continue
            rollup = stats_fn()
            for key in verify:
                verify[key] += rollup.get(key, 0)
        verify["wall_s"] = round(verify["wall_s"], 6)

        net = self.world.network.stats
        network = {
            "sent": net.sent,
            "delivered": net.delivered,
            "dropped": net.dropped,
            "blocked_partition": net.blocked_partition,
            "handshake_sent": net.handshake_sent,
            "gossip_sent": net.gossip_sent,
            "bytes_by_kind": dict(net.bytes_by_kind),
            "bytes_delivered_by_kind": dict(net.bytes_delivered_by_kind),
        }
        analysis = dict(self._analysis_counters)
        analysis["wall_s"] = round(analysis["wall_s"], 6)

        transport = self.world.network.transport_stats.snapshot()
        return {
            "flows": flows,
            "substrate": substrate,
            "audit": audit,
            "federation": federation,
            "network": network,
            "transport": transport,
            "verify": verify,
            "analysis": analysis,
        }

    def collect_audit(self, key: str = "deployment-collector") -> AuditCollector:
        """Submit every node spine (by hostname) and every detached
        domain log (by domain name) to a fresh collector.

        Tier-aware: submission verifies each spine across its hot/cold
        boundary (cold spill files are replayed against the committed
        digests), and each :class:`~repro.audit.distributed.
        OffloadReceipt` records how many cold segments the verification
        crossed."""
        self.build()
        collector = AuditCollector(key=key)
        for handle in self._nodes.values():
            if handle.machine is not None:
                collector.submit(handle.spec.hostname, handle.machine.audit)
        for name, domain in self.world.domains.items():
            if name in self._spine_backed_domains:
                continue
            collector.submit(name, domain.audit)
        return collector
