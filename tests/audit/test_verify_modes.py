"""The verification plane: incremental vs deep modes, watermark
cursors, checkpoint-binding watermarks, and the
consumers that ride them (see the verification-modes section of
docs/audit_storage.md).

The correctness heart is the invalidation rule: any anchor or in-memory
mutation, prune, rebase, re-demote, or spill-file change drops the
watermark — so every tamper class the deep mode catches, the
incremental mode catches too.  The hypothesis property at the bottom
pins exactly that: incremental accepts exactly the histories deep
accepts, under random interleavings of append/drain/seal/demote/prune/
tamper, with tamper injected both before and after a successful verify.
"""

import json
import shutil
import tempfile
import time
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import (
    AuditCollector,
    AuditRecord,
    AuditSpine,
    CheckpointClaim,
    FederationPinboard,
    RecordKind,
    VerifyStats,
)
from repro.audit.log import AuditLog
from repro.errors import IntegrityViolation
from repro.ifc import SecurityContext
from repro.sim import Simulator

CTX = SecurityContext.of(["medical", "ann"], ["hosp-dev"])

#: The racy-stat margin (storage._STAT_MARGIN_NS) plus slack: a
#: watermark is only recorded once the spill file's mtime is safely in
#: the past, so tests sleep this long between demotion and the verify
#: pass that should establish watermarks.
SETTLE = 0.06


def make_spine(**kw):
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, name="audit@test", **kw)
    return sim, spine


def fill(sim, spine, n, source="bus", step=1.0):
    for i in range(n):
        spine.emit(
            source, RecordKind.FLOW_ALLOWED, f"actor{i % 4}", "subj",
            {"i": i}, CTX, CTX,
        )
        sim.clock.advance(step)
    spine.drain()


def cold_spine(tmp_path, n=24, seal_every=8, hot_segments=0):
    sim, spine = make_spine()
    spine.configure_spill(
        tmp_path, hot_segments=hot_segments, seal_every=seal_every
    )
    fill(sim, spine, n)
    assert spine.tier_stats()["cold_segments"] >= 2
    return sim, spine


def settle_and_watermark(spine):
    """Let spill-file mtimes age past the racy-stat margin, then run one
    incremental pass to establish watermarks."""
    time.sleep(SETTLE)
    stats = spine.verify_strict(deep=False)
    assert spine.tier_stats()["watermarked_segments"] > 0
    return stats


class TestWatermarkCursors:
    def test_second_incremental_pass_skips_cold_segments(self, tmp_path):
        __, spine = cold_spine(tmp_path)
        first = settle_and_watermark(spine)
        assert first.segments_skipped == 0
        assert first.cold_verified >= 2
        second = spine.verify_strict(deep=False)
        assert second.mode == "incremental"
        assert second.segments_skipped == first.cold_verified
        assert second.watermark_hits == second.segments_skipped
        assert second.cold_verified == 0
        assert second.records_verified < first.records_verified

    def test_deep_mode_never_skips(self, tmp_path):
        __, spine = cold_spine(tmp_path)
        settle_and_watermark(spine)
        deep = spine.verify_strict(deep=True)
        assert deep.mode == "deep"
        assert deep.segments_skipped == 0
        assert deep.cold_verified >= 2
        assert deep.bytes_hashed > 0

    def test_watermark_not_recorded_inside_stat_margin(self, tmp_path):
        # A verify racing the demotion (file mtime within the margin of
        # "now") must NOT record a watermark: a tamper landing in the
        # same timestamp granule would otherwise be invisible.  This is
        # the git "racily clean" defence.
        __, spine = cold_spine(tmp_path)
        spine.verify_strict(deep=False)  # no sleep: files are fresh
        assert spine.tier_stats()["watermarked_segments"] == 0

    def test_new_records_still_verified_after_watermark(self, tmp_path):
        sim, spine = cold_spine(tmp_path)
        settle_and_watermark(spine)
        fill(sim, spine, 10)
        stats = spine.verify_strict(deep=False)
        # The new tail (and any newly sealed chunk) is re-verified even
        # though the old cold history is skipped.
        assert stats.records_verified >= 10
        assert stats.segments_skipped >= 2

    def test_prune_invalidates_the_straddled_watermark(self, tmp_path):
        __, spine = cold_spine(tmp_path, n=30, seal_every=10)
        settle_and_watermark(spine)
        before = spine.tier_stats()["watermarked_segments"]
        spine.prune_before(13.0)  # mid-second-chunk: rewrite + rebase
        stats = spine.tier_stats()
        assert stats["watermarked_segments"] < before
        assert spine.verify(mode="incremental")
        assert spine.verify(mode="deep")

    def test_rewrite_and_redemote_drop_the_watermark(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=2, seal_every=8)
        fill(sim, spine, 16)
        chunk = spine._store.sealed["bus"][0]
        assert not chunk.is_cold
        spine.demote_before(9.0)
        assert chunk.is_cold
        time.sleep(SETTLE)
        spine.verify_strict(deep=False)
        assert chunk.watermarked
        # Idempotent demote of an already-cold chunk rewrites nothing:
        # the cursor legitimately survives.
        chunk.demote(tmp_path)
        assert chunk.watermarked
        # A cold rewrite (prefix prune rebases and respills) must not.
        chunk.prune_prefix(2)
        assert not chunk.watermarked

    def test_in_memory_anchor_tamper_invalidates(self, tmp_path):
        __, spine = cold_spine(tmp_path)
        settle_and_watermark(spine)
        chunk = spine._store.sealed["bus"][0]
        assert chunk.watermark_valid()
        chunk.head = "f" * 64  # the authoritative in-memory anchor
        assert not chunk.watermark_valid()
        assert not spine.verify(mode="incremental")
        assert not spine.verify(mode="deep")

    def test_verify_stats_rollup_surface(self, tmp_path):
        __, spine = cold_spine(tmp_path)
        settle_and_watermark(spine)
        spine.verify_strict(deep=False)
        rollup = spine.verify_stats()
        assert rollup["verifies"] == spine.stats_verifies == 2
        assert rollup["watermark_hits"] > 0
        assert rollup["last"]["mode"] == "incremental"
        assert isinstance(spine.last_verify_stats, VerifyStats)
        assert spine.last_verify_stats.to_dict() == rollup["last"]

    def test_mode_strings_validated(self, tmp_path):
        __, spine = make_spine()
        with pytest.raises(ValueError):
            spine.verify(mode="shallow")
        log = AuditLog(name="flat")
        with pytest.raises(ValueError):
            log.verify(mode="shallow")
        assert log.verify(mode="incremental")  # accepted, full recompute


def _ref(ctx):
    """The reference a canonical record names ``ctx`` by (the table
    then holds it, so it is a valid reference to swap in)."""
    record = AuditRecord(0, 0.0, RecordKind.CUSTOM, "a", "", {}, ctx, None)
    return json.loads(record.canonical())["source_context"].encode()


OTHER = SecurityContext.of(["medical", "bob"], ["hosp-dev"])

TAMPERS = {
    "record_slot": lambda p: p.write_bytes(
        _rreplace(p.read_bytes(), b'"subj"', b'"EVIL"')
    ),
    "header": lambda p: p.write_bytes(
        p.read_bytes().replace(b'"actor0"', b'"actorX"', 1)
    ),
    # One tag of the header's context-table entry (inside its JSON
    # string, hence the escaped quotes).
    "context_entry": lambda p: p.write_bytes(
        p.read_bytes().replace(b'\\"local:ann\\"', b'\\"local:bob\\"', 1)
    ),
    # A record's reference swapped for another valid one.
    "context_swap": lambda p: p.write_bytes(
        _rreplace(p.read_bytes(), _ref(CTX), _ref(OTHER))
    ),
    "truncate": lambda p: p.write_bytes(p.read_bytes()[:40]),
    "missing_file": lambda p: p.unlink(),
}


def _rreplace(blob, old, new):
    at = blob.rfind(old)
    assert at > 0
    return blob[:at] + new + blob[at + len(old):]


class TestEveryTamperClassFlipsBothModes:
    @pytest.mark.parametrize("mode", ["incremental", "deep"])
    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_cold_tamper_after_watermark(self, tmp_path, mode, tamper):
        # The adversarial shape watermarks must survive: verify
        # succeeds (watermarks established), THEN the file is tampered.
        __, spine = cold_spine(tmp_path)
        settle_and_watermark(spine)
        TAMPERS[tamper](sorted(tmp_path.glob("*.seg"))[0])
        assert not spine.verify(mode=mode)
        with pytest.raises(IntegrityViolation):
            spine.verify_strict(deep=(mode == "deep"))

    @pytest.mark.parametrize("mode", ["incremental", "deep"])
    def test_post_drain_record_mutation(self, tmp_path, mode):
        sim, spine = cold_spine(tmp_path, hot_segments=1)
        settle_and_watermark(spine)
        fill(sim, spine, 3)  # a fresh, chained, hot tail
        # Hot state is never watermarked: mutate a record a read of the
        # hot tail returned.
        spine.records()[-1].detail["i"] = 999_999
        assert not spine.verify(mode=mode)

    @pytest.mark.parametrize("mode", ["incremental", "deep"])
    def test_checkpoint_record_tamper(self, tmp_path, mode):
        __, spine = cold_spine(tmp_path)
        spine.checkpoint()
        settle_and_watermark(spine)
        spine.checkpoints()[-1].detail["heads"]["bus"] = "f" * 64
        assert not spine.verify(mode=mode)

    @pytest.mark.parametrize("mode", ["incremental", "deep"])
    def test_segment_truncated_below_checkpoint(self, tmp_path, mode):
        sim, spine = cold_spine(tmp_path)
        settle_and_watermark(spine)
        fill(sim, spine, 3)
        spine.checkpoint()  # pins the head past the new records
        # Shed the newest history wholesale: drop the tail's records
        # below the checkpointed position, strings, packed digests and
        # head together, so the tail itself still replays.
        tail = spine._store.tails["bus"]
        tail.canonicals = tail.canonicals[:0]
        tail.digests = tail.digests[:0]
        tail.head = tail.base_digest
        tail.verify()
        assert not spine.verify(mode=mode)


class TestParallelDeep:
    """Deep verify walks every cold segment in one pass; a tamper in
    any one of them fails the whole pass."""

    @pytest.mark.parametrize("tamper", sorted(TAMPERS))
    def test_parallel_still_detects_tamper(self, tmp_path, tamper):
        # No verify pass has run yet: deep mode alone must catch a
        # tampered middle segment.
        __, spine = cold_spine(tmp_path, n=40, seal_every=8)
        TAMPERS[tamper](sorted(tmp_path.glob("*.seg"))[1])
        assert not spine.verify(mode="deep")
        with pytest.raises(IntegrityViolation):
            spine.verify_strict(deep=True)


class TestCheckpointBindingWatermark:
    def test_only_new_checkpoints_rewalked(self, tmp_path):
        sim, spine = cold_spine(tmp_path)
        spine.checkpoint()
        first = settle_and_watermark(spine)
        assert first.checkpoints_verified >= 1
        assert first.checkpoints_skipped == 0
        fill(sim, spine, 8)
        spine.checkpoint()
        second = spine.verify_strict(deep=False)
        assert second.checkpoints_skipped >= 1
        assert second.checkpoints_verified >= 1
        deep = spine.verify_strict(deep=True)
        assert deep.checkpoints_skipped == 0
        assert deep.checkpoints_total == deep.checkpoints_verified

    def test_prune_resets_the_binding_watermark(self, tmp_path):
        sim, spine = cold_spine(tmp_path)
        spine.checkpoint()
        settle_and_watermark(spine)
        fill(sim, spine, 4)
        spine.checkpoint()
        spine.prune_before(5.0)
        stats = spine.verify_strict(deep=False)
        # Post-prune, every retained binding is re-walked.
        assert stats.checkpoints_skipped == 0


class TestConsumers:
    def test_collector_incremental_accepts_and_rejects(self, tmp_path):
        __, spine = cold_spine(tmp_path)
        settle_and_watermark(spine)
        collector = AuditCollector(verify_mode="incremental")
        assert collector.submit("alpha", spine) is not None
        TAMPERS["record_slot"](sorted(tmp_path.glob("*.seg"))[0])
        assert collector.submit("alpha", spine) is None
        assert "alpha" in collector.rejected_domains

    def test_collector_falls_back_for_plain_verify_sinks(self):
        class LegacySink(AuditLog):
            def verify(self):  # pre-verification-plane signature
                return super().verify()

        log = LegacySink(name="legacy")
        log.flow_allowed("a", "b", CTX, CTX)
        collector = AuditCollector()
        assert collector.submit("legacy", log) is not None

    def test_pinboard_local_check_catches_cold_tamper(self, tmp_path):
        # Pin comparison alone only sees the (in-memory) checkpoint
        # chain: a record tampered on disk behind an intact checkpoint
        # head still compares "ok".  mode="incremental" adds the local
        # watermark-aware chain check, which demotes it to "tampered".
        __, spine = cold_spine(tmp_path)
        board = FederationPinboard("observer")
        board.pin(CheckpointClaim.of("alpha", spine))
        settle_and_watermark(spine)
        TAMPERS["record_slot"](sorted(tmp_path.glob("*.seg"))[0])
        assert board.verify({"alpha": spine})["alpha"] == "ok"
        verdicts = board.verify({"alpha": spine}, mode="incremental")
        assert verdicts["alpha"] == "tampered"
        assert board.verify({"alpha": spine}, mode="deep")["alpha"] == \
            "tampered"

    def test_pinboard_default_semantics_unchanged(self, tmp_path):
        __, spine = cold_spine(tmp_path)
        board = FederationPinboard("observer")
        board.pin(CheckpointClaim.of("alpha", spine))
        assert board.verify({"alpha": spine}) == {"alpha": "ok"}


#: One step of a random history: (op, payload).
_OPS = st.lists(
    st.sampled_from([
        "append", "drain", "checkpoint", "demote", "prune",
        "verify", "tamper_disk", "tamper_memory",
    ]),
    min_size=3,
    max_size=14,
)


@settings(max_examples=30, deadline=None)
@given(_OPS)
def test_incremental_accepts_exactly_what_deep_accepts(ops):
    """Property: after ANY interleaving of lifecycle and tamper ops —
    including tampers injected after a successful (watermark-noting)
    verify — the incremental verdict equals the deep verdict.

    Incremental runs first, so a stale watermark wrongly honoured would
    show up as incremental=True / deep=False."""
    workdir = Path(tempfile.mkdtemp(prefix="verify-prop-"))
    try:
        sim, spine = make_spine()
        spine.configure_spill(workdir, hot_segments=1, seal_every=4)
        fill(sim, spine, 6)
        for op in ops:
            if op == "append":
                fill(sim, spine, 3)
            elif op == "drain":
                spine.drain()
            elif op == "checkpoint":
                spine.checkpoint()
            elif op == "demote":
                spine.demote_before(sim.now())
            elif op == "prune":
                spine.prune_before(sim.now() - 6.0)
            elif op == "verify":
                time.sleep(SETTLE)  # let watermarks establish
                spine.verify(mode="incremental")
            elif op == "tamper_disk":
                files = sorted(workdir.glob("*.seg"))
                if files:
                    blob = files[0].read_bytes()
                    if blob.rfind(b'"subj"') > 0:
                        files[0].write_bytes(
                            _rreplace(blob, b'"subj"', b'"EVIL"')
                        )
            elif op == "tamper_memory":
                records = spine._store.tails["bus"].records()
                if records:
                    records[-1].detail["i"] = 999_999
        incremental = spine.verify(mode="incremental")
        deep = spine.verify(mode="deep")
        assert incremental == deep
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
