"""S-FED — federation plane scale: gossip vs pairwise handshakes.

The wire plane (PR 2) negotiates vocabularies pairwise: N federated
substrates would run N(N−1)/2 three-step handshakes, each shipping raw
tag tables.  The federation plane (``repro/federation``,
``docs/federation_plane.md``) replaces that with anti-entropy gossip —
versioned digests, pull-on-mismatch, compressed deltas — scheduled on
the simulation's event queue.  This bench measures the new scale axis
(number of federated substrates) three ways:

* **convergence** — rounds and control bytes to full federation-
  vocabulary convergence (every pair masking) at 4/8/16 substrates
  sharing a 10k-tag vocabulary, against the ⌈log₂N⌉+2 round bound and
  the N(N−1)/2-pairwise byte budget;
* **compression** — the delta+prefix/range table encoding vs raw
  strings (the 10k-tag HELLO satellite);
* **post-convergence enforcing throughput** — cross-substrate sends
  with enforcement and audit on, all masked, zero handshake datagrams;
* **checkpoint pinning** — the federated smart-city scenario detects a
  censored audit-spine replay from every peer's pinboard.

A machine-readable summary goes to ``BENCH_federation.json``.
``FED_BENCH_TAGS`` / ``FED_BENCH_MSGS`` reduce scale for CI smoke runs;
every assert here is functional/deterministic (simulated rounds, byte
counts), so none are demoted in CI.
"""

import math
import os
import time
from pathlib import Path

import pytest

from repro.apps import FederatedSmartCity, censored_replay
from repro.deploy import Deployment
from repro.federation import GossipMesh
from repro.ifc import (
    SecurityContext,
    TagBlock,
    TagInterner,
    WireCodec,
    raw_table_size,
)
from repro.middleware import Message, MessageType
from repro.net import Network
from repro.sim import Simulator

_SUMMARY = Path(__file__).resolve().parent.parent / "BENCH_federation.json"
_results = {}

TOTAL_TAGS = int(os.environ.get("FED_BENCH_TAGS", "10000"))
N_MSGS = int(os.environ.get("FED_BENCH_MSGS", "2000"))

REPORT = MessageType.simple("fed-report", value=float)


def _vocab_mesh(n_substrates, total_tags, seed=11):
    """N codec-only members over private interners: substrate ``i``
    brings its share of a ``total_tags``-tag federation vocabulary
    (machine-generated names, as real deployments intern them)."""
    sim = Simulator(seed=seed)
    net = Network(sim, default_latency=0.001)
    mesh = GossipMesh(net, sim, interval=0.5, name="bench-mesh")
    share = total_tags // n_substrates
    for i in range(n_substrates):
        interner = TagInterner()
        for t in range(share):
            interner.intern(f"sub{i:02d}:sensor-{t}")
        mesh.join(f"fed-host-{i:02d}", WireCodec(interner))
    return mesh, sim, net, share


def _pairwise_handshake_bytes(mesh):
    """What the PR 2 wire plane would ship instead: every pair runs
    HELLO(table) / ACK(table) / FIN with *raw* (uncompressed) tables —
    the format the seed and PR 2 used."""
    tables = [
        raw_table_size(node.tags_known(node.host)) for node in mesh.nodes()
    ]
    total = 0
    for i in range(len(tables)):
        for j in range(i + 1, len(tables)):
            total += tables[i] + tables[j] + 4  # hello + ack + fin
    return total


@pytest.mark.parametrize("n_substrates", [4, 8, 16])
def test_sfed_convergence(report, n_substrates):
    """Rounds and bytes to every-pair-masking at 10k federation tags."""
    mesh, sim, net, share = _vocab_mesh(n_substrates, TOTAL_TAGS)
    bound = math.ceil(math.log2(n_substrates)) + 2
    start = time.perf_counter()
    rounds = mesh.run_until_converged(max_rounds=4 * bound)
    elapsed = time.perf_counter() - start
    assert mesh.converged()

    gossip_bytes = mesh.control_bytes()
    pairwise_bytes = _pairwise_handshake_bytes(mesh)
    # Delivered bytes, not attempted: a lossless mesh delivers every
    # gossip byte it accounts for, and the delivered ledger is the one
    # that stays honest once loss/partition benches reuse this helper.
    assert net.stats.bytes_delivered_by_kind["gossip"] == gossip_bytes
    assert net.stats.bytes_by_kind["gossip"] == gossip_bytes
    totals = mesh.stats.merge_nodes(mesh.nodes())
    _results[f"convergence_{n_substrates}s"] = {
        "substrates": n_substrates,
        "federation_tags": share * n_substrates,
        "rounds": rounds,
        "round_bound": bound,
        "gossip_bytes": gossip_bytes,
        "pairwise_handshake_bytes": pairwise_bytes,
        "byte_ratio": round(pairwise_bytes / gossip_bytes, 2),
        "digests": totals["digests"],
        "replies": totals["replies"],
        "deltas": totals["deltas"],
        "wall_s": round(elapsed, 3),
    }
    report.row(
        f"{n_substrates} substrates x {share * n_substrates} tags",
        rounds=f"{rounds} (bound {bound})",
        gossip=f"{gossip_bytes/1e3:.0f}kB",
        pairwise=f"{pairwise_bytes/1e3:.0f}kB",
        ratio=f"{pairwise_bytes/gossip_bytes:.1f}x",
    )
    # The acceptance bounds: logarithmic rounds, sub-pairwise bytes.
    assert rounds <= bound
    assert gossip_bytes < pairwise_bytes


def test_sfed_table_compression(report):
    """The 10k-tag vocabulary offer: compressed block vs raw strings."""
    tags = tuple(f"city:sensor-{i}" for i in range(TOTAL_TAGS))
    raw = raw_table_size(tags)
    start = time.perf_counter()
    block = TagBlock.compress(tags)
    compress_s = time.perf_counter() - start
    assert block.tags() == tags  # lossless
    ratio = raw / block.wire_size
    _results["table_compression"] = {
        "tags": len(tags),
        "raw_bytes": raw,
        "compressed_bytes": block.wire_size,
        "ratio": round(ratio, 1),
        "compress_ms": round(compress_s * 1e3, 2),
    }
    report.row(
        f"{len(tags)} generated tags",
        raw=f"{raw/1e3:.0f}kB",
        compressed=f"{block.wire_size}B",
        ratio=f"{ratio:.0f}x",
    )
    # The satellite's size win, asserted: a 10k-tag offer must not ship
    # anything like 10k raw strings.
    assert ratio > 20


@pytest.mark.parametrize("n_substrates", [4, 8, 16])
def test_sfed_post_convergence_throughput(report, n_substrates):
    """Enforcing cross-substrate sends after gossip convergence: every
    envelope masked, no 3-step handshakes ever run.  The N substrates
    are built through the deployment façade (one fluent line each)."""
    deploy = Deployment(
        seed=7, name="tput", mesh_interval=0.5, default_latency=0.0001,
        tick_drain=False,
    )
    sim, net = deploy.sim, deploy.network
    tags = [f"fedtp{i}" for i in range(16)]
    ctx = SecurityContext.of(tags, tags[:8])
    nodes = [
        deploy.node(f"tput-{n_substrates}-{i}").with_mesh()
        for i in range(n_substrates)
    ]
    subs = [node.substrate for node in nodes]
    rounds = deploy.converge(max_rounds=32)

    processes = [
        node.launch("app", ctx, handler=lambda a, m: None) for node in nodes
    ]

    message = Message(REPORT, {"value": 1.0}, context=ctx)
    per_pair = N_MSGS
    start = time.perf_counter()
    for i, substrate in enumerate(subs):
        dst = subs[(i + 1) % n_substrates]
        for __ in range(per_pair):
            substrate.send(processes[i], dst, "app", message)
    sim.drain()
    elapsed = time.perf_counter() - start

    total = per_pair * n_substrates
    rate = total / elapsed
    for substrate in subs:
        assert substrate.stats.sent_masked == per_pair
        assert substrate.stats.sent_tagset == 0
        assert substrate.stats.delivered == per_pair
    assert net.stats.handshake_sent == 0
    _results[f"throughput_{n_substrates}s"] = {
        "substrates": n_substrates,
        "messages": total,
        "msgs_per_s": round(rate),
        "convergence_rounds": rounds,
        "handshake_datagrams": 0,
    }
    report.row(
        f"{n_substrates} substrates ring x {per_pair} msgs",
        throughput=f"{rate/1e3:.1f}k/s",
        masked="100%",
        handshakes=0,
    )


def test_sfed_scenario_pinboard_detection(report):
    """The federated smart city: a district's censored audit replay is
    caught by every peer's pinboard (the acceptance scenario), with the
    whole federation assembled through the deployment façade."""
    deploy = Deployment(seed=11, name="city", mesh_interval=60.0)
    city = FederatedSmartCity(deploy, district_count=3)
    city.run(hours=2)
    assert city.mesh.converged()
    pre = city.verify_federation()
    assert all(
        v == "ok" for view in pre.values() for v in view.values()
    ), pre

    victim = city.mesh.node("district-1-hub")
    forged = censored_replay(victim.spine)
    assert forged.verify()  # locally consistent forgery
    victim.spine = forged
    post = city.verify_federation()
    detectors = [
        host
        for host, view in post.items()
        if view.get("district-1-hub") == "tampered"
    ]
    assert len(detectors) == 3  # every other member catches it
    _results["scenario_pinboard"] = {
        "members": len(city.mesh.nodes()),
        "forgery_locally_consistent": True,
        "detected_by": detectors,
        "gossip_rounds": city.mesh.stats.rounds,
    }
    report.row(
        "censored replay of district-1-hub",
        detected_by=len(detectors),
        forgery_verifies_locally=True,
    )


def test_sfed_partition_healing(report):
    """Gossip across a ``Network.partition`` boundary: no cross-boundary
    progress while split, re-convergence after heal with no recovery
    code — the anti-entropy self-healing property at bench scale."""
    n = 8
    mesh, sim, net, share = _vocab_mesh(n, TOTAL_TAGS, seed=13)
    left = {f"fed-host-{i:02d}" for i in range(n // 2)}
    right = {f"fed-host-{i:02d}" for i in range(n // 2, n)}
    net.partition(left, right)
    partitioned_rounds = 6
    for __ in range(partitioned_rounds):
        mesh._round()
        sim.run_for(mesh.interval)
    assert not mesh.converged()
    blocked = net.stats.blocked_partition
    assert blocked > 0
    bytes_during_partition = mesh.control_bytes()

    net.heal_partitions()
    start = time.perf_counter()
    heal_rounds = mesh.run_until_converged(max_rounds=32)
    elapsed = time.perf_counter() - start
    assert mesh.converged()
    bound = math.ceil(math.log2(n)) + 2
    # Healing must not cost more than a cold start: each half already
    # converged internally, so only cross-boundary content remains.
    assert heal_rounds <= bound
    _results["partition_healing"] = {
        "substrates": n,
        "federation_tags": share * n,
        "partitioned_rounds": partitioned_rounds,
        "datagrams_blocked": blocked,
        "rounds_to_reconverge": heal_rounds,
        "round_bound": bound,
        "gossip_bytes_total": mesh.control_bytes(),
        "gossip_bytes_while_split": bytes_during_partition,
        "wall_s": round(elapsed, 3),
    }
    report.row(
        f"{n} substrates split {n // 2}|{n // 2}",
        blocked=blocked,
        reconverge=f"{heal_rounds} rounds (bound {bound})",
        converged=mesh.converged(),
    )


def test_sfed_write_summary(report, write_summary):
    """Runs last in this module: persist the summary JSON."""
    assert _results, "federation benchmarks must run before the summary"
    written = write_summary(_SUMMARY, _results)
    report.row("summary", path=_SUMMARY.name, written=written,
               entries=len(_results))
