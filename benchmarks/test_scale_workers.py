"""S-WK — worker scale: enforcing-publish throughput at 1/4/16 workers.

The multi-worker claim (``docs/worker_plane.md``): a node's workers
share one decision shard and one audit spine, yet contend on neither —
decision reads are lock-free snapshot probes, audit emission is one
writer per staging ring.  This bench drives real threads through
``with_workers(n)`` + ``Deployment.run_workers`` and measures enforcing
publish throughput and decision-cache hit rate under two regimes:

* **disjoint** — each worker publishes under its own tag working set
  (its own cache keys, its own spine source): the scaling ceiling.
* **shared** — every worker hammers the *same* context pair (maximum
  cross-worker traffic on the shared cache): the contention probe.

Python's GIL means pure-CPU threads cannot scale on this box; each op
therefore includes a simulated per-op device/network wait (the I/O that
dominates real IoT middleware), which threads genuinely overlap.  The
CPU half of every op — validation, flow decision, quench analysis,
audit staging — stays GIL-serialised, so contention in the shared
planes would show up directly as lost throughput.

Env knobs: ``WORKER_BENCH_OPS`` (ops per worker, default 300),
``WORKER_BENCH_STRICT=0`` demotes the wall-clock scaling asserts (CI
smoke), ``WORKER_BENCH_IO_US`` (per-op I/O wait in µs, default 500).
Summary lands in ``BENCH_worker_scaling.json``.
"""

import os
import time
from pathlib import Path

from repro.deploy import Deployment
from repro.ifc import SecurityContext
from repro.middleware.component import Component, EndpointKind
from repro.middleware.message import MessageType

_SUMMARY = Path(__file__).resolve().parent.parent / "BENCH_worker_scaling.json"
_results = {}

OPS = int(os.environ.get("WORKER_BENCH_OPS", "300"))
STRICT = os.environ.get("WORKER_BENCH_STRICT", "1") != "0"
IO_WAIT = int(os.environ.get("WORKER_BENCH_IO_US", "500")) / 1e6
WORKER_COUNTS = (1, 4, 16)

READING = MessageType.simple("reading", value=float)


def _rig(worker, tags):
    """One source→sink pair on the worker's bus, both in ``tags``."""
    ctx = SecurityContext.of(tags, [])
    source = Component(f"src-{worker.name}", ctx, owner="op")
    source.add_endpoint("out", EndpointKind.SOURCE, READING)
    sink = Component(f"dst-{worker.name}", ctx, owner="op")
    sink.add_endpoint("in", EndpointKind.SINK, READING)
    worker.bus.register(source)
    worker.bus.register(sink)
    worker.bus.connect("op", source, "out", sink, "in")

    def workload(ctx_, me, source=source):
        publish = me.bus.publish
        for n in range(OPS):
            publish(source, "out", value=float(n))
            time.sleep(IO_WAIT)  # the per-op device/network I/O
            ctx_.count()

    worker.workload = workload


def _run_scale(n_workers, regime):
    """One measured run; returns the per-run result dict."""
    deploy = Deployment(seed=7, name=f"wk-{regime}-{n_workers}")
    node = deploy.node("edge", substrate=False).with_workers(n_workers)
    pool = node.workers
    machine = node.machine
    for worker in pool:
        tags = [f"ws{worker.index}"] if regime == "disjoint" else ["shared"]
        _rig(worker, tags)

    cache = machine.shard.context_cache
    hits0, misses0 = cache.hits, cache.misses
    start = time.perf_counter()
    deploy.run_workers()
    wall = time.perf_counter() - start

    total_ops = n_workers * OPS
    hits = cache.hits - hits0
    misses = cache.misses - misses0
    delivered = sum(w.bus.stats.delivered for w in pool)
    verified = machine.audit.verify()
    result = {
        "workers": n_workers,
        "ops": total_ops,
        "delivered": delivered,
        "wall_s": round(wall, 4),
        "throughput_ops_s": round(total_ops / wall, 1),
        "cache_hits": hits,
        "cache_misses": misses,
        "hit_rate": round(hits / (hits + misses), 4) if hits + misses else 0.0,
        "lock_waits": cache.lock_waits,
        "ring_overflows": machine.audit.stats_ring_overflows,
        "spine_verified": verified,
    }
    # Non-negotiable even in smoke mode: every op delivered exactly once
    # and the shared chain survives the concurrency intact.
    assert delivered == total_ops
    assert verified
    assert machine.audit.pending == 0 or machine.audit.drain() >= 0
    return result


def _scale_regime(report, regime):
    runs = {}
    for n_workers in WORKER_COUNTS:
        runs[str(n_workers)] = result = _run_scale(n_workers, regime)
        report.row(
            f"{regime} x{n_workers}",
            thr=f"{result['throughput_ops_s']:.0f}/s",
            wall=f"{result['wall_s']*1e3:.0f}ms",
            hit_rate=f"{result['hit_rate']:.3f}",
            lock_waits=result["lock_waits"],
        )
    base = runs["1"]["throughput_ops_s"]
    runs["speedup_4w"] = round(runs["4"]["throughput_ops_s"] / base, 2)
    runs["speedup_16w"] = round(runs["16"]["throughput_ops_s"] / base, 2)
    _results[regime] = runs
    return runs


def test_swk_disjoint_working_sets(report):
    """The scaling headline: 4 workers on disjoint working sets must
    push at least 2x a single worker's enforcing-publish throughput."""
    runs = _scale_regime(report, "disjoint")
    report.row(
        "disjoint speedups",
        x4=f"{runs['speedup_4w']:.2f}x",
        x16=f"{runs['speedup_16w']:.2f}x",
    )
    # Hit rate must not degrade with worker count: misses scale with the
    # working set (one cold pair per worker), not with contention.
    base_rate = runs["1"]["hit_rate"]
    for n_workers in WORKER_COUNTS[1:]:
        assert abs(runs[str(n_workers)]["hit_rate"] - base_rate) <= 0.05
    if STRICT:
        assert runs["speedup_4w"] >= 2.0
        assert runs["speedup_16w"] >= runs["speedup_4w"]


def test_swk_shared_working_set(report):
    """The contention probe: every worker on one context pair.  Scaling
    may be shallower (one cold miss warms the pair for everyone), but
    shared-state contention must not push throughput *below* a single
    worker, and the cache hit rate should be at least the disjoint one."""
    runs = _scale_regime(report, "shared")
    report.row(
        "shared speedups",
        x4=f"{runs['speedup_4w']:.2f}x",
        x16=f"{runs['speedup_16w']:.2f}x",
    )
    base_rate = runs["1"]["hit_rate"]
    for n_workers in WORKER_COUNTS[1:]:
        assert abs(runs[str(n_workers)]["hit_rate"] - base_rate) <= 0.05
    if STRICT:
        assert runs["speedup_4w"] >= 1.0


def test_swk_write_summary(report, write_summary):
    """Runs last in this module: persist the summary JSON."""
    assert _results, "scaling benchmarks must run before the summary"
    _results["config"] = {
        "ops_per_worker": OPS,
        "io_wait_us": round(IO_WAIT * 1e6),
        "worker_counts": list(WORKER_COUNTS),
        "strict": STRICT,
    }
    written = write_summary(_SUMMARY, _results)
    report.row("summary", path=_SUMMARY.name, written=written,
               regimes=len(_results) - 1)
