"""Runs one workload and turns it into the benchmark's metrics.

An untraced run measures the end-to-end metrics: set-up (built
:data:`SETUPS` times, median reported), the timed rounds, the reads
between them and :data:`DEEP_VERIFIES` deep verifies (median).  A traced run (``trace=True``) builds
once with :class:`~bench_trace.Tracer` installed and reports the
per-layer metrics instead; tracing overhead is the traced
``trace.msgs_per_s`` against the untraced ``msgs_per_s``.

Run length is fixed work, not a wall-clock deadline: ``seconds`` sets
the round count through :data:`ROUNDS_PER_SECOND` (calibrated so one
run of the baseline takes about ``seconds`` of rounds on a 2-CPU box),
so the parent and a change always execute identical inputs, and
workloads whose state grows (clinic_bus's channel list) grow the same.

Speed scaling: the reference box is a shared 2-CPU VM whose interpreter
throughput drifts by up to 1.5x over seconds (a fixed loop timed back
to back reads 520-920 µs).  Every timed value is therefore scaled to a
reference machine speed: :func:`probe` (a fixed interpreter loop
independent of the program) runs before every round and around every
set-up and deep verify, and a
value measured at probe time ``p`` is reported as
``value * PROBE_REF_S / p`` (``p`` is the median probe of the
surrounding rounds).  The report prints the raw wall times and the
median speed factor beside every scaled metric.
"""

from __future__ import annotations

import gc
import os
import platform
import resource
import shutil
import statistics
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np

from bench_trace import Tracer, layer_of
from bench_workloads import WORKLOADS, Workload

#: Rounds per requested second of measurement, per workload.
ROUNDS_PER_SECOND = {"ward_stream": 20, "clinic_bus": 20, "vitals_history": 30}
#: At least ten samples must lie beyond the p95 round time.
MIN_ROUNDS = 200
#: Set-ups per untraced run (``setup_s`` is their median).
SETUPS = 3
#: Deep verifies at the end of a run (``deep_verify_s`` is their median).
DEEP_VERIFIES = 3
#: Every this many rounds a full garbage collection runs between rounds
#: and the survivors are frozen.  Left to the automatic schedule, a full
#: collection traverses the whole grown heap inside whichever round
#: crosses the threshold (up to 100 ms on clinic_bus), which swung
#: round_p95_ms by a quarter between seeds.  The collections' time
#: counts in msgs_per_s but not in the round percentiles.
COLLECT_EVERY = 20
#: Where spill directories and trace files go (git-ignored).
OUT = Path(__file__).resolve().parent / "out"
#: Iterations of the speed probe's loop.
PROBE_LOOPS = 6000
#: The probe's typical duration on the reference box (the speed every
#: reported time is scaled to).
PROBE_REF_S = 0.0008
#: Rounds either side whose probes set one round's speed factor.
PROBE_HALF_WINDOW = 5


def rounds_for(workload: str, seconds: float) -> int:
    return max(MIN_ROUNDS, round(seconds * ROUNDS_PER_SECOND[workload]))


def percentile(values: List[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def probe() -> float:
    """Time one fixed, allocation-free interpreter loop (so no GC lands
    in it); its working set fits in L1, so what the program leaves in
    the caches does not change the reading."""
    start = time.perf_counter()
    table = {}
    acc = 0
    for i in range(PROBE_LOOPS):
        table[i & 63] = acc
        acc = (acc + i) & 255
    return time.perf_counter() - start


def probed(fn):
    """Run ``fn()``; return (result, wall seconds, speed factor), the
    factor from five probes either side."""
    probes = [probe() for _ in range(5)]
    start = time.perf_counter()
    result = fn()
    wall = time.perf_counter() - start
    probes += [probe() for _ in range(5)]
    return result, wall, PROBE_REF_S / statistics.median(probes)


def speed_factors(probes: List[float]) -> List[float]:
    """Per-round speed factor: reference over the windowed median probe."""
    half = PROBE_HALF_WINDOW
    return [
        PROBE_REF_S / statistics.median(probes[max(0, i - half):i + half + 1])
        for i in range(len(probes))
    ]


#: The end-to-end metrics every workload reports (name → unit).
END_TO_END = {
    "setup_s": "s",
    "msgs_per_s": "msg/s",
    "round_p50_ms": "ms",
    "round_p95_ms": "ms",
    "deep_verify_s": "s",
    "peak_rss_mb": "MB",
}


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name == "trace.msgs_per_s":
        return "msg/s"
    if name == "trace.window_s":
        return "s"
    if name.endswith(("share", "hit_rate")):
        return "fraction"
    if "_per_" in name:
        return "ratio"
    if name.startswith("net.sim_delay"):
        return "sim_ms"
    return "count"


def report(result: dict, trace: bool) -> dict:
    """Print the human-readable report; return the JSON metrics."""
    stamp = result["stamp"]
    check = result["check"]
    rounds = result["round_s"]
    raw = result["round_raw_s"]
    print(
        f"# perfbench {result['workload']} seed={stamp['seed']} "
        f"rounds={stamp['rounds']} setups={stamp['setups']} "
        f"nproc={stamp['nproc']} python={stamp['python']} "
        f"git={stamp['git_sha'][:12]} trace={int(trace)} "
        f"speed={stamp['speed']:.3f} (times scaled to a "
        f"{PROBE_REF_S * 1e6:.0f} us probe)"
    )
    beyond = sum(1 for value in rounds if value > percentile(rounds, 95))
    rows = [
        ("setup_s", result["setup_s"], "s",
         f"median of {len(result['setup_raw_s'])} set-ups; raw "
         + " ".join(f"{x:.4f}" for x in result["setup_raw_s"])),
        ("msgs_per_s", result["msgs_per_s"], "msg/s",
         f"{result['msgs']} enforced outcomes; raw "
         f"{result['msgs'] / (sum(raw) + sum(result['gc_raw_s'])):.1f}; "
         f"{len(result['gc_s'])} full collections took "
         f"{sum(result['gc_s']):.4f} s"),
        ("round_p50_ms", statistics.median(rounds) * 1000.0, "ms",
         f"{len(rounds)} rounds; raw {statistics.median(raw) * 1000.0:.4f}"),
        ("round_p95_ms", percentile(rounds, 95) * 1000.0, "ms",
         f"{beyond} rounds beyond it; raw "
         f"{percentile(raw, 95) * 1000.0:.4f}"),
        ("deep_verify_s", result["deep_verify_s"], "s",
         f"median of {len(result['deep_verify_raw_s'])}; raw "
         + " ".join(f"{x:.4f}" for x in result["deep_verify_raw_s"])),
        ("peak_rss_mb", result["peak_rss_mb"], "MB", "ru_maxrss"),
        ("error_rate", check.failed / max(1, check.attempted), "fraction",
         f"{check.failed} of {check.attempted} operations wrong"),
    ]
    reads = result["reads"]
    for kind, quantiles in (
        ("dashboard", (50, 95)), ("forensic", (50,)), ("verify", (50,))
    ):
        samples = reads.get(kind, [])
        for q in quantiles if samples else ():
            rows.append((
                f"{kind}_p{q}_ms", percentile(samples, q) * 1000.0, "ms",
                f"{len(samples)} samples",
            ))
    for name, value, unit, note in rows:
        print(f"#   {name:<16} {value:>14.4f} {unit:<8} {note}")
    for problem in check.problems:
        print(f"#   WRONG: {problem}")
    if not trace:
        return {
            name: {"value": value, "unit": END_TO_END[name]}
            for name, value, _, _ in rows
            if name in END_TO_END
        }
    layers = result["layers"]
    for name, value in layers.items():
        print(f"#   {name:<40} {value:>14.6g} {layer_unit(name)}")
    for name in result["absent"]:
        print(f"#   absent entry point (its metrics read 0): {name}")
    return {
        name: {"value": value, "unit": layer_unit(name)}
        for name, value in layers.items()
    }


def snapshot(wl: Workload) -> Dict[str, float]:
    """Counters of every plane, read through public stats only (any
    field a later version drops reads as 0)."""
    deploy = wl.deploy
    stats = deploy.stats()

    def get(section: str, key: str) -> float:
        return stats.get(section, {}).get(key, 0) or 0

    snap = {
        "sim.events": deploy.sim.events_processed,
        "net.sent": get("network", "sent"),
        "net.dropped": get("network", "dropped"),
        "net.batches": get("transport", "batches"),
        "net.batched": get("transport", "datagrams"),
        "substrate.sent": get("substrate", "sent"),
        "substrate.masked": get("substrate", "sent_masked"),
        "substrate.tagset": get("substrate", "sent_tagset"),
        "substrate.denied": get("substrate", "denied_local")
        + get("substrate", "denied_remote"),
        "substrate.quenched": get("substrate", "quenched_attributes"),
        "substrate.dropped": get("substrate", "dropped_unroutable")
        + get("substrate", "dropped_undecodable"),
        "bus.delivered": get("flows", "delivered"),
        "bus.denied": get("flows", "denied"),
        "bus.quenched": 0,
        "bus.channels": 0,
        "decision.hits": get("decisions", "hits"),
        "decision.misses": get("decisions", "misses"),
        "spine.drains": get("audit", "drains"),
        "spine.checkpoints": get("audit", "checkpoints"),
        "spine.ring_overflows": get("audit", "ring_overflows"),
        "storage.spill_bytes": get("audit", "spill_bytes"),
        "storage.cold_records": get("audit", "cold_records"),
        "storage.seals": 0,
        "storage.demotions": 0,
        "storage.cold_loads": 0,
        "verify.verifies": get("verify", "verifies"),
        "verify.records": get("verify", "records_verified"),
        "verify.segments_skipped": get("verify", "segments_skipped"),
        "verify.bytes_hashed": get("verify", "bytes_hashed"),
        "gossip.rounds": get("federation", "rounds"),
        "gossip.bytes": get("federation", "control_bytes"),
    }
    for domain in deploy.world.domains.values():
        bus = domain.bus
        snap["bus.quenched"] += bus.stats.quenched_attributes
        snap["bus.channels"] += len(bus.channels)
        snap["decision.hits"] += getattr(bus.plane, "hits", 0)
        snap["decision.misses"] += getattr(bus.plane, "misses", 0)
    for spine in deploy.spines().values():
        tier_stats = getattr(spine, "tier_stats", None)
        if callable(tier_stats):
            tier = tier_stats()
            for key in ("seals", "demotions", "cold_loads"):
                snap[f"storage.{key}"] += tier.get(key, 0)
    return snap


def git_sha(root: Path) -> str:
    """HEAD of the checkout, read without running git (``unknown`` in a
    plain source tree)."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (root / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def run(
    workload: str,
    seed: int,
    seconds: float = 10.0,
    trace: bool = False,
    rounds: Optional[int] = None,
    setups: Optional[int] = None,
    scratch: Optional[Path] = None,
    sizes: Optional[Dict] = None,
) -> Dict:
    """Run one workload; returns metrics, checks, counts and a stamp."""
    cls = WORKLOADS[workload]
    rounds = rounds or rounds_for(workload, seconds)
    setups = setups or (1 if trace else SETUPS)
    scratch = scratch or OUT
    scratch.mkdir(parents=True, exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix=f"{workload}-", dir=scratch))
    tracer = Tracer().install() if trace else None
    wl: Optional[Workload] = None
    try:
        setup_raw: List[float] = []
        setup_scaled: List[float] = []
        setup_marks = (0, 0)
        for _ in range(setups):
            if wl is not None:
                wl.close()
                wl = None
                gc.collect()
            wl = cls(seed, rounds, run_dir, **(sizes or {}))
            first = tracer.mark() if tracer else 0
            _, wall, factor = probed(wl.setup)
            setup_marks = (first, tracer.mark() if tracer else 0)
            setup_raw.append(wall)
            setup_scaled.append(wall * factor)

        gc.collect()
        gc.freeze()
        before = snapshot(wl)
        done_before = wl.outcomes()
        round_s: List[float] = []
        probes: List[float] = []
        read_rounds: Dict[str, List[int]] = {}
        first = tracer.mark() if tracer else 0
        delays_first = len(tracer.sim_delays) if tracer else 0
        counters_before = tracer.counters.copy() if tracer else None
        window_start = time.perf_counter()
        gc_s: List[float] = []
        for r in range(rounds):
            probes.append(probe())
            start = time.perf_counter()
            wl.run_round(r)
            round_s.append(time.perf_counter() - start)
            wl.between_rounds(r)
            for kind, samples in wl.reads.items():
                owners = read_rounds.setdefault(kind, [])
                owners.extend([r] * (len(samples) - len(owners)))
            if (r + 1) % COLLECT_EVERY == 0:
                start = time.perf_counter()
                gc.collect()
                gc.freeze()
                gc_s.append(time.perf_counter() - start)
        window_s = time.perf_counter() - window_start - sum(probes)
        last = tracer.mark() if tracer else 0
        done = wl.outcomes() - done_before
        after = snapshot(wl)
        delays = tracer.sim_delays[delays_first:] if tracer else []
        counters = tracer.counters - counters_before if tracer else None

        deep_raw: List[float] = []
        deep_scaled: List[float] = []
        for _ in range(DEEP_VERIFIES):
            gc.collect()
            deep_ok, wall, factor = probed(
                lambda: wl.verify(mode="deep")
            )
            wl.check.expect("deep verify", deep_ok, True)
            deep_raw.append(wall)
            deep_scaled.append(wall * factor)
        wl.finish()
        wl.oracles()

        factors = speed_factors(probes)
        scaled = [wall * f for wall, f in zip(round_s, factors)]
        gc_scaled = [
            wall * factors[(i + 1) * COLLECT_EVERY - 1]
            for i, wall in enumerate(gc_s)
        ]
        msgs_per_s = done / (sum(scaled) + sum(gc_scaled))
        result = {
            "workload": workload,
            "seed": seed,
            "rounds": rounds,
            "setup_s": statistics.median(setup_scaled),
            "setup_raw_s": setup_raw,
            "msgs_per_s": msgs_per_s,
            "msgs": done,
            "round_s": scaled,
            "round_raw_s": round_s,
            "gc_s": gc_scaled,
            "gc_raw_s": gc_s,
            "deep_verify_s": statistics.median(deep_scaled),
            "deep_verify_raw_s": deep_raw,
            "reads": {
                kind: [
                    wall * factors[r]
                    for wall, r in zip(samples, read_rounds[kind])
                ]
                for kind, samples in wl.reads.items()
            },
            "check": wl.check,
            "counts": wl.counts(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
            "stamp": {
                "nproc": os.cpu_count(),
                "python": platform.python_version(),
                "git_sha": git_sha(OUT.parent.parent),
                "seed": seed,
                "rounds": rounds,
                "setups": setups,
                "speed": statistics.median(factors),
            },
        }
        if tracer is not None:
            rounds_summary = tracer.summary(first, last)
            setup_summary = tracer.summary(*setup_marks)
            result["layers"] = layer_metrics(
                rounds_summary, setup_summary, window_s, setup_raw[-1],
                before, after, wl.query_stats, counters, delays, msgs_per_s,
                last - first,
            )
            result["absent"] = list(tracer.absent)
            result["self_s"] = {
                name: row["self_s"] for name, row in rounds_summary.items()
            }
            tracer.write(scratch / f"trace-{workload}.npz")
        return result
    finally:
        gc.unfreeze()
        if tracer is not None:
            tracer.uninstall()
        if wl is not None:
            wl.close()
        shutil.rmtree(run_dir, ignore_errors=True)


def layer_metrics(
    rounds_summary: Dict, setup_summary: Dict, window_s: float,
    setup_s: float, before: Dict, after: Dict, query_stats, counters,
    delays: List[float], traced_msgs_per_s: float, spans: int,
) -> Dict[str, float]:
    """The per-layer metrics of one traced run (see BENCHMARK.json).

    Shares are self time over the timed window's wall time (rounds plus
    the reads between them); set-up shares are over one set-up's wall
    time.  ``sim_ms`` values are *simulated* delivery delays, apart
    from CPU time.
    """

    def calls(*names: str) -> int:
        return sum(rounds_summary.get(n, {}).get("calls", 0) for n in names)

    def share(*names: str) -> float:
        own = sum(rounds_summary.get(n, {}).get("self_s", 0.0) for n in names)
        return own / window_s

    def setup_share(name: str) -> float:
        total = setup_summary.get(name, {}).get("total_s", 0.0)
        return total / setup_s if setup_s else 0.0

    def delta(key: str) -> float:
        return after.get(key, 0) - before.get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    attributed = sum(
        row["self_s"] for name, row in rounds_summary.items() if layer_of(name)
    )
    masked = delta("substrate.masked")
    decisions = delta("decision.hits") + delta("decision.misses")
    return {
        "deploy.build_share": setup_share("deploy.build"),
        "deploy.converge_share": setup_share("deploy.converge"),
        "sim.events": delta("sim.events"),
        "sim.loop_self_share": share("sim.run_for"),
        "net.datagrams": delta("net.sent"),
        "net.batches": delta("net.batches"),
        "net.datagrams_per_batch": ratio(
            delta("net.batched"), delta("net.batches")
        ),
        "net.send_share": share("net.send"),
        "net.flush_share": share("net.flush", "net.deliver"),
        "net.dropped": delta("net.dropped"),
        "net.sim_delay_p50": percentile(delays, 50) * 1000.0,
        "net.sim_delay_p95": percentile(delays, 95) * 1000.0,
        "substrate.send_share": share("substrate.send"),
        "substrate.send_batch_share": share("substrate.send_batch"),
        "substrate.receive_share": share("substrate.receive"),
        "substrate.msgs": delta("substrate.sent"),
        "substrate.masked_share": ratio(
            masked, masked + delta("substrate.tagset")
        ),
        "substrate.denied": delta("substrate.denied"),
        "substrate.quenched": delta("substrate.quenched"),
        "substrate.dropped": delta("substrate.dropped"),
        "bus.publishes": calls("bus.publish"),
        "bus.route_share": share("bus.route"),
        "bus.channels": after.get("bus.channels", 0),
        "bus.deliveries_per_channel_scanned": ratio(
            delta("bus.delivered"), counters.get("bus.channels_scanned", 0)
        ),
        "bus.denied": delta("bus.denied"),
        "bus.quenched": delta("bus.quenched"),
        "decision.calls": calls("decision.evaluate"),
        "decision.share": share("decision.evaluate"),
        "decision.hit_rate": ratio(delta("decision.hits"), decisions),
        "wire.calls": calls("wire.encode", "wire.decode"),
        "wire.share": share("wire.encode", "wire.decode"),
        "spine.emits": calls("spine.emit"),
        "spine.emit_share": share("spine.emit"),
        "spine.drains": delta("spine.drains"),
        "spine.drain_share": share("spine.drain", "spine.tick"),
        "spine.records_per_drain": ratio(
            counters.get("spine.drained", 0), delta("spine.drains")
        ),
        "spine.checkpoints": delta("spine.checkpoints"),
        "spine.checkpoint_share": share("spine.checkpoint"),
        "spine.ring_overflows": delta("spine.ring_overflows"),
        "log.appends": calls("log.append"),
        "log.append_share": share("log.append"),
        "log.flush_share": share("log.flush"),
        "storage.seals": delta("storage.seals"),
        "storage.demotions": delta("storage.demotions"),
        "storage.share": share(
            "storage.seal", "storage.demote", "storage.records"
        ),
        "storage.spill_bytes_per_record": ratio(
            after.get("storage.spill_bytes", 0),
            after.get("storage.cold_records", 0),
        ),
        "storage.cold_loads": delta("storage.cold_loads"),
        "query.share": share("query.query", "query.spine"),
        "query.records_scanned_per_hit": ratio(
            query_stats["records_scanned"], query_stats["hits"]
        ),
        "query.segments_skipped_share": ratio(
            query_stats["segments_skipped"], query_stats["segments_total"]
        ),
        "query.cold_loads_per_query": ratio(
            query_stats["cold_loads"], query_stats["queries"]
        ),
        "verify.share": share(
            "verify.deploy", "verify.spine", "verify.log", "verify.pinboard"
        ),
        "verify.records_per_call": ratio(
            delta("verify.records"), delta("verify.verifies")
        ),
        "verify.segments_skipped": delta("verify.segments_skipped"),
        "verify.bytes_hashed": delta("verify.bytes_hashed"),
        "gossip.rounds": delta("gossip.rounds"),
        "gossip.share": share("gossip.round", "gossip.receive", "gossip.digest"),
        "gossip.bytes": delta("gossip.bytes"),
        "gossip.compress_share": share("gossip.compress"),
        "policy.events": calls("policy.handle_event"),
        "policy.share": share("policy.handle_event"),
        "reconfig.commands": calls("reconfig.apply"),
        "reconfig.share": share("reconfig.apply"),
        "app.share": share(
            "app.sensor", "app.deliver", "app.handle_alerts"
        ),
        "app.handle_alerts_share": share("app.handle_alerts"),
        "gen.share": share("gen.sample"),
        "unattributed_share": 1.0 - attributed / window_s,
        "trace.msgs_per_s": traced_msgs_per_s,
        "trace.spans": spans,
        "trace.window_s": window_s,
    }
