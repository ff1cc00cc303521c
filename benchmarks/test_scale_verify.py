"""AVP — the audit verification plane (docs/audit_storage.md).

Measured at a million records (VERIFY_BENCH_RECORDS; CI smoke runs set
it lower): steady-state incremental verification riding watermark
cursors versus a full deep recompute.  The functional gate — tamper
detection in both modes — always asserts; the wall-clock ratio gate
follows ``strict_gate`` in ``benchmarks/conftest.py``.  A
machine-readable summary goes to ``BENCH_audit_verify.json``.
"""

import gc
import os
import shutil
import tempfile
import time
from pathlib import Path

import pytest

from repro.audit import AuditSpine, RecordKind
from repro.errors import IntegrityViolation
from repro.ifc import SecurityContext
from repro.sim import Simulator

CTX = SecurityContext.of(["medical", "ann"], ["hosp-dev"])

_SUMMARY = Path(__file__).resolve().parent.parent / "BENCH_audit_verify.json"
_results = {}
_state = {}

#: Total records in the verified corpus.  CI smoke runs set this lower
#: (VERIFY_BENCH_RECORDS=20000); the functional asserts hold at both
#: scales.
VERIFY_RECORDS = int(os.environ.get("VERIFY_BENCH_RECORDS", "1000000"))

SOURCES = 4
#: Seal cadence scaled so both full and smoke runs seal O(100) segments.
SEAL_EVERY = max(64, VERIFY_RECORDS // 256)
#: Everything sealed goes cold: steady-state incremental verification
#: then recomputes only the open tails (plus the checkpoint chain).
HOT_SEGMENTS = 0


def _fill(spine, n):
    """Emit ``n`` records across SOURCES sources with simulated time
    advancing and periodic checkpoints (so the binding walk has
    retained checkpoints to cover)."""
    sim = Simulator()
    spine._clock = sim.now  # bench-only: rebind after construction
    emitters = [spine.emitter(f"src{i}") for i in range(SOURCES)]
    ckpt_every = max(1, n // 8)
    start = time.perf_counter()
    for i in range(n):
        emitters[i % SOURCES].append(
            RecordKind.FLOW_ALLOWED, f"actor{i % 50}", f"dev{i % 8}",
            None, CTX, CTX,
        )
        if i % 256 == 255:
            sim.clock.advance(1.0)
        if i % SEAL_EVERY == SEAL_EVERY - 1:
            spine.drain()
        if i % ckpt_every == ckpt_every - 1:
            spine.checkpoint()
    spine.drain()
    return time.perf_counter() - start, sim


def test_avp_build_corpus(report):
    """Build the tiered corpus every later bench verifies."""
    spill_dir = Path(tempfile.mkdtemp(prefix="avp-spill-"))
    spine = AuditSpine(ring_capacity=1 << 30, name="audit@verify")
    spine.configure_spill(
        spill_dir, hot_segments=HOT_SEGMENTS, seal_every=SEAL_EVERY
    )
    fill_s, sim = _fill(spine, VERIFY_RECORDS)
    tiers = spine.tier_stats()
    assert len(spine) == VERIFY_RECORDS
    assert tiers["cold_segments"] > 0
    _state["spine"] = spine
    _state["spill_dir"] = spill_dir
    _state["sim"] = sim
    _results["corpus"] = {
        "records": VERIFY_RECORDS,
        "fill_s": round(fill_s, 4),
        "cold_segments": tiers["cold_segments"],
        "spill_mb": round(tiers["spill_bytes"] / 1e6, 2),
        "checkpoints": len(spine.checkpoints()),
    }
    report.row(
        f"corpus {VERIFY_RECORDS} records",
        fill=f"{fill_s:.2f}s",
        cold=f"{tiers['cold_segments']} segs "
             f"({tiers['spill_bytes'] / 1e6:.0f}MB)",
        checkpoints=len(spine.checkpoints()),
    )


def _corpus():
    if "spine" not in _state:
        pytest.skip("corpus bench did not run (deselected)")
    return _state["spine"]


def test_avp_incremental_steady_state(report, strict_gate):
    """Steady-state incremental verification is O(new records):
    watermark cursors skip every deep-checked cold segment.
    Acceptance: >=25x over the full deep recompute."""
    spine = _corpus()
    gc.collect()
    start = time.perf_counter()
    full = spine.verify_strict(deep=True)
    serial_s = time.perf_counter() - start
    assert full.records_verified == VERIFY_RECORDS
    assert full.segments_skipped == 0

    # Let spill-file mtimes age past the racy-stat margin, then one
    # untimed incremental pass records any watermark the deep sweep
    # could not yet note safely.
    time.sleep(0.06)
    spine.verify_strict(deep=False)

    gc.collect()
    start = time.perf_counter()
    stats = spine.verify_strict(deep=False)
    incremental_s = time.perf_counter() - start

    tiers = spine.tier_stats()
    assert stats.segments_skipped == tiers["cold_segments"]
    assert stats.watermark_hits == stats.segments_skipped
    assert stats.cold_verified == 0
    # Hot tails and the checkpoint chain were still recomputed.
    assert stats.records_verified > 0
    assert stats.checkpoints_total > 0

    speedup = serial_s / incremental_s if incremental_s else float("inf")
    _results["incremental_steady_state"] = {
        "full_recompute_s": round(serial_s, 4),
        "incremental_s": round(incremental_s, 6),
        "speedup": round(speedup, 2),
        "segments_skipped": stats.segments_skipped,
        "records_reverified": stats.records_verified,
        "checkpoints_skipped": stats.checkpoints_skipped,
        "gate_active": bool(strict_gate),
    }
    report.row(
        "incremental steady state",
        full=f"{serial_s:.2f}s",
        incremental=f"{incremental_s * 1e3:.1f}ms",
        speedup=f"{speedup:.0f}x",
        skipped=f"{stats.segments_skipped} segs",
    )
    assert not strict_gate or speedup >= 25.0


def test_avp_tamper_detected_in_both_modes(report):
    """The always-on functional gate: with every watermark established,
    a cold-file tamper must flip both modes, and restoring the original
    bytes must restore both verdicts."""
    spine = _corpus()
    spill_dir = _state["spill_dir"]
    victim = sorted(spill_dir.glob("*.seg"))[0]
    original = victim.read_bytes()
    at = original.rfind(b'"dev')
    assert at > 0
    victim.write_bytes(
        original[:at] + b'"EVI' + original[at + 4:]
    )
    detected = {}
    for mode in ("incremental", "deep"):
        detected[mode] = not spine.verify(mode=mode)
        with pytest.raises(IntegrityViolation):
            spine.verify_strict(deep=(mode == "deep"))
    victim.write_bytes(original)
    assert detected == {"incremental": True, "deep": True}
    assert spine.verify(mode="incremental")
    assert spine.verify(mode="deep")
    invalidations = spine.verify_stats()["watermark_invalidations"]
    assert invalidations >= 1  # the tamper dropped the cursor
    _results["tamper_detection"] = {
        "detected": detected,
        "restored_verdict_ok": True,
        "watermark_invalidations": invalidations,
    }
    report.row(
        "cold tamper",
        incremental="detected" if detected["incremental"] else "MISSED",
        deep="detected" if detected["deep"] else "MISSED",
        invalidations=invalidations,
    )


def test_avp_write_summary(report, strict_gate, write_summary):
    """Runs last among the AVP benches: persist BENCH_audit_verify.json."""
    spill_dir = _state.pop("spill_dir", None)
    _state.pop("spine", None)
    gc.collect()
    if spill_dir is not None:
        shutil.rmtree(spill_dir, ignore_errors=True)
    if not _results:
        pytest.skip("no AVP benches ran in this session (deselected)")
    _results["config"] = {
        "records": VERIFY_RECORDS,
        "sources": SOURCES,
        "seal_every": SEAL_EVERY,
        "hot_segments": HOT_SEGMENTS,
        "strict": strict_gate,
    }
    written = write_summary(_SUMMARY, _results)
    report.row("summary", path=_SUMMARY.name, written=written,
               entries=len(_results))
