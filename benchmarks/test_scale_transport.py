"""S-TP — transport plane scale: coalesced vs per-datagram delivery.

The coalescing transport (``docs/transport_plane.md``) attacks the two
per-datagram fixed costs the e2e profile shows dominating cross-machine
traffic: the simulator event per delivery (one heap push + one closure
per datagram) and the per-message envelope work on both substrate ends
(encode, decode, flow plan).  The coalesced stack is
``with_transport`` (outbox batching, slotted flush events) plus
``send_batch`` (one :class:`~repro.middleware.MaskBatchEnvelope` per
run of rows sharing a host, context and type); the baseline is a
``send`` loop on the per-datagram network — one datagram, one event,
one one-row envelope per message.  Two A/B axes:

* **e2e enforcing publish** — ring traffic across 2/8/16 machines,
  enforcement + audit + wire masks on, identical message counts both
  arms; the acceptance gate is >=2x throughput at 8+ machines;
* **federation convergence under load** — 16/32 mesh substrates
  converging their vocabulary by gossip while every node streams
  enforcing messages at its neighbour (the realistic regime: gossip
  and application traffic share the event queue); gate >=1.5x
  wall-clock at 16 substrates.

Both arms must agree on every functional counter (delivered, masked) —
coalescing that loses or reorders traffic would show up here first.
Summary lands in ``BENCH_transport.json``.

Env knobs: ``TRANSPORT_BENCH_MSGS`` (ring messages per machine, default
2000), ``TRANSPORT_BENCH_LOAD`` (load messages per mesh node, default
1500), ``TRANSPORT_BENCH_REPEATS`` (best-of-N timing runs, default 3),
``BENCH_STRICT`` (0 demotes the wall-clock ratio gates to report-only,
1 forces them; unset = strict only when the module runs alone — see
``strict_gate`` in ``benchmarks/conftest.py``).
"""

import os
import time
from pathlib import Path

import pytest

from repro.deploy import Deployment
from repro.ifc import SecurityContext
from repro.middleware import Message, MessageType

_SUMMARY = Path(__file__).resolve().parent.parent / "BENCH_transport.json"
_results = {}

N_MSGS = int(os.environ.get("TRANSPORT_BENCH_MSGS", "2000"))
LOAD_MSGS = int(os.environ.get("TRANSPORT_BENCH_LOAD", "1500"))
#: The wall-clock ratio gates follow ``strict_gate`` in
#: ``benchmarks/conftest.py``.  The functional asserts — delivery
#: counts, masked counts, batch accounting, equal gossip rounds —
#: always gate.
#: Wall-clock ratios are gated on the best of N fresh-world runs per
#: arm — single-shot timings on a busy box are too noisy to gate on.
REPEATS = int(os.environ.get("TRANSPORT_BENCH_REPEATS", "5"))
CHUNK = 64  # messages per send_batch call / outbox max_batch

REPORT = MessageType.simple("tp-report", value=float)


def _ring(n_machines, coalesced, name, seed=7):
    """A converged n-machine mesh ring; returns (deploy, nodes, procs)."""
    deploy = Deployment(
        seed=seed, name=name, mesh_interval=0.5, default_latency=0.0001,
        tick_drain=False,
    )
    tags = [f"stp{i}" for i in range(16)]
    ctx = SecurityContext.of(tags, tags[:8])
    nodes = []
    for i in range(n_machines):
        node = deploy.node(f"{name}-{i}").with_mesh()
        if coalesced:
            node.with_transport(coalesce_window=0.0005, max_batch=CHUNK)
        nodes.append(node)
    deploy.converge(max_rounds=64)
    procs = [
        node.launch("app", ctx, handler=lambda a, m: None) for node in nodes
    ]
    return deploy, nodes, procs, ctx


def _publish_run(n_machines, coalesced):
    deploy, nodes, procs, ctx = _ring(
        n_machines, coalesced,
        name=f"stp-{'co' if coalesced else 'pd'}-{n_machines}",
    )
    sim = deploy.sim
    subs = [node.substrate for node in nodes]
    messages = [
        Message(REPORT, {"value": float(k)}, context=ctx) for k in range(N_MSGS)
    ]
    start = time.perf_counter()
    for i, sub in enumerate(subs):
        dst = subs[(i + 1) % n_machines]
        if coalesced:
            sink = [(dst, "app")]
            for lo in range(0, N_MSGS, CHUNK):
                sub.send_batch(procs[i], sink, messages[lo:lo + CHUNK])
        else:
            for message in messages:
                sub.send(procs[i], dst, "app", message)
    sim.drain()
    elapsed = time.perf_counter() - start

    delivered = sum(s.stats.delivered for s in subs)
    assert delivered == n_machines * N_MSGS  # no message lost either arm
    for sub in subs:
        assert sub.stats.sent_masked == N_MSGS  # all post-convergence masked
    if coalesced:
        transport = deploy.stats()["transport"]
        assert transport["batches"] > 0
        assert transport["mean_batch_size"] > 1
    return elapsed, deploy


def _ab_best_of(run, *args):
    """Best wall-clock of ``REPEATS`` fresh-world runs *per arm*, arms
    interleaved base/coalesced within each repeat so a transient noise
    burst on the box inflates samples of both arms rather than wiping
    out one arm's whole block.  Returns ``(base_best, coal_best,
    last_base_extras, last_coal_extras)``."""
    base_best = coal_best = None
    base_extras = coal_extras = None
    for __ in range(REPEATS):
        base_s, *base_extras = run(*args, False)
        coal_s, *coal_extras = run(*args, True)
        if base_best is None or base_s < base_best:
            base_best = base_s
        if coal_best is None or coal_s < coal_best:
            coal_best = coal_s
    return base_best, coal_best, base_extras, coal_extras


@pytest.mark.parametrize("n_machines", [2, 8, 16])
def test_stp_e2e_publish(report, strict_gate, n_machines):
    """Enforcing ring publish, coalesced stack vs per-datagram seed path."""
    base_s, coal_s, __, (deploy,) = _ab_best_of(_publish_run, n_machines)
    gated = strict_gate and n_machines >= 8
    if gated and base_s / coal_s < 2.0:
        # One re-measure absorbs a noise burst that straddled a whole
        # repeat block (same policy as the query-plane bench).
        b2, c2, __, (d2,) = _ab_best_of(_publish_run, n_machines)
        if b2 / c2 > base_s / coal_s:
            base_s, coal_s, deploy = b2, c2, d2
    total = n_machines * N_MSGS
    ratio = base_s / coal_s
    transport = deploy.stats()["transport"]
    _results[f"publish_{n_machines}m"] = {
        "machines": n_machines,
        "messages": total,
        "per_datagram_s": round(base_s, 3),
        "coalesced_s": round(coal_s, 3),
        "per_datagram_msgs_per_s": round(total / base_s),
        "coalesced_msgs_per_s": round(total / coal_s),
        "speedup": round(ratio, 2),
        "mean_batch_size": transport["mean_batch_size"],
        "strict": strict_gate,
    }
    report.row(
        f"{n_machines} machines x {N_MSGS} msgs",
        per_datagram=f"{total / base_s / 1e3:.1f}k/s",
        coalesced=f"{total / coal_s / 1e3:.1f}k/s",
        speedup=f"{ratio:.2f}x",
        batch=f"{transport['mean_batch_size']:.0f}",
    )
    if strict_gate and n_machines >= 8:
        # The tentpole acceptance gate: >=2x e2e at 8+ machines.
        assert ratio >= 2.0, f"{n_machines} machines: only {ratio:.2f}x"


def _converge_under_load(n_subs, coalesced):
    name = f"stpc-{'co' if coalesced else 'pd'}-{n_subs}"
    deploy = Deployment(
        seed=11, name=name, mesh_interval=0.1, default_latency=0.001,
        tick_drain=False,
    )
    sim = deploy.sim
    tags = [f"stpl{i}" for i in range(16)]
    ctx = SecurityContext.of(tags, tags[:8])
    nodes = []
    for i in range(n_subs):
        node = deploy.node(f"{name}-{i}").with_mesh()
        if coalesced:
            node.with_transport(coalesce_window=0.0005, max_batch=CHUNK)
        nodes.append(node)
    deploy.build()
    procs = [
        node.launch("app", ctx, handler=lambda a, m: None) for node in nodes
    ]
    subs = [node.substrate for node in nodes]
    messages = [
        Message(REPORT, {"value": float(k)}, context=ctx) for k in range(CHUNK)
    ]

    # Every node streams enforcing chunks at its ring neighbour while
    # the mesh gossips on the same event queue — convergence under load.
    quotas = [LOAD_MSGS] * n_subs
    cancels = []

    def pump_for(i):
        sub, proc = subs[i], procs[i]
        dst = subs[(i + 1) % n_subs]
        sink = [(dst, "app")]

        def pump():
            if quotas[i] <= 0:
                return
            chunk = messages[: min(CHUNK, quotas[i])]
            quotas[i] -= len(chunk)
            if coalesced:
                sub.send_batch(proc, sink, chunk)
            else:
                for message in chunk:
                    sub.send(proc, dst, "app", message)

        return pump

    start = time.perf_counter()
    for i in range(n_subs):
        cancels.append(sim.schedule_every(0.05, pump_for(i)))
    rounds = deploy.converge(max_rounds=128)
    while any(quotas):  # finish the load after convergence
        sim.run_for(0.5)
    for cancel in cancels:  # disarm the pumps, then drain deliveries
        cancel()
    sim.drain()
    elapsed = time.perf_counter() - start

    delivered = sum(s.stats.delivered for s in subs)
    assert delivered == n_subs * LOAD_MSGS
    return elapsed, rounds, deploy


@pytest.mark.parametrize("n_subs", [16, 32])
def test_stp_convergence_under_load(report, strict_gate, n_subs):
    """Mesh convergence wall-clock while every node streams load."""
    base_s, coal_s, (base_rounds, __), (coal_rounds, deploy) = _ab_best_of(
        _converge_under_load, n_subs
    )
    assert coal_rounds == base_rounds  # coalescing must not slow gossip
    if strict_gate and n_subs == 16 and base_s / coal_s < 1.5:
        # One re-measure absorbs a noise burst (query-bench policy).
        b2, c2, __, (r2, d2) = _ab_best_of(_converge_under_load, n_subs)
        if b2 / c2 > base_s / coal_s:
            base_s, coal_s, coal_rounds, deploy = b2, c2, r2, d2
    ratio = base_s / coal_s
    _results[f"convergence_{n_subs}s"] = {
        "substrates": n_subs,
        "load_messages": n_subs * LOAD_MSGS,
        "rounds": coal_rounds,
        "per_datagram_s": round(base_s, 3),
        "coalesced_s": round(coal_s, 3),
        "speedup": round(ratio, 2),
        "strict": strict_gate,
    }
    report.row(
        f"{n_subs} substrates x {LOAD_MSGS} load msgs",
        per_datagram=f"{base_s:.2f}s",
        coalesced=f"{coal_s:.2f}s",
        rounds=coal_rounds,
        speedup=f"{ratio:.2f}x",
    )
    if strict_gate and n_subs == 16:
        # The acceptance gate: >=1.5x convergence wall-clock at 16.
        assert ratio >= 1.5, f"{n_subs} substrates: only {ratio:.2f}x"


def test_stp_gossip_rides_the_outbox(report):
    """Functional: a transport-enabled mesh coalesces its own gossip
    datagrams — the anti-entropy legs transit the same outbox."""
    deploy = Deployment(
        seed=3, name="stp-gossip", mesh_interval=0.1, default_latency=0.001,
        tick_drain=False,
    )
    for i in range(8):
        deploy.node(f"g{i}").with_mesh().with_transport(
            coalesce_window=0.0005, max_batch=16
        )
    deploy.converge(max_rounds=64)
    stats = deploy.stats()
    assert stats["network"]["gossip_sent"] > 0
    assert stats["transport"]["batches"] > 0
    # Every send-time-cleared datagram transited an outbox batch: the
    # lossless mesh delivers exactly what the transport batched.
    assert stats["transport"]["datagrams"] == stats["network"]["delivered"]
    report.row(
        "8 transport-enabled mesh nodes",
        gossip_datagrams=stats["network"]["gossip_sent"],
        batches=stats["transport"]["batches"],
        mean_batch=stats["transport"]["mean_batch_size"],
    )


def test_stp_write_summary(report, write_summary):
    """Runs last in this module: persist the summary JSON."""
    assert _results, "transport benchmarks must run before the summary"
    written = write_summary(_SUMMARY, _results)
    report.row("summary", path=_SUMMARY.name, written=written,
               entries=len(_results))
