"""The tiered segment store: seal cadence, demotion to spill files,
cold-tier verification (header + chain), pruning across tier
boundaries, and hot/cold export identity (see docs/audit_storage.md)."""

import pytest

from repro.audit import AuditRecord, AuditSpine, RecordKind, record_matches
from repro.audit.storage import (
    SealedSegment,
    SegmentIndex,
    SegmentStore,
    read_spill,
    read_spill_header,
    write_spill,
)
from repro.errors import IntegrityViolation
from repro.ifc import SecurityContext
from repro.sim import Simulator

CTX = SecurityContext.of(["medical", "ann"], ["hosp-dev"])


def make_spine(**kw):
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, name="audit@test", **kw)
    return sim, spine


def fill(sim, spine, n, source="bus", step=1.0, actor=None):
    for i in range(n):
        spine.emit(
            source,
            RecordKind.FLOW_ALLOWED,
            actor or f"actor{i % 4}",
            "subj",
            {"i": i},
            CTX,
            CTX,
        )
        sim.clock.advance(step)
    spine.drain()


class TestSealLifecycle:
    def test_seal_cadence_without_spill_dir(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=100, seal_every=10)
        fill(sim, spine, 35)
        stats = spine.tier_stats()
        assert stats["seals"] == 3
        assert stats["sealed_segments"] == 3
        assert stats["cold_segments"] == 0  # all within hot_segments
        assert len(spine) == 35

    def test_sealed_chain_is_continuous_with_tail(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=100, seal_every=8)
        fill(sim, spine, 20)
        store = spine._store
        chunks = store.sealed["bus"]
        assert chunks[0].base_count == 0
        assert chunks[1].base_digest == chunks[0].head
        tail = store.tails["bus"]
        assert tail.base_digest == chunks[-1].head
        assert store.total("bus") == 20
        assert spine.verify()

    def test_digest_at_spans_tiers(self, tmp_path):
        sim, spine = make_spine()
        plain_sim, plain = make_spine()
        spine.configure_spill(tmp_path, hot_segments=1, seal_every=5)
        fill(sim, spine, 23)
        fill(plain_sim, plain, 23)
        for pos in (1, 5, 6, 10, 15, 20, 23):
            assert spine._store.digest_at("bus", pos) == \
                plain._store.digest_at("bus", pos)

    def test_digest_at_matches_a_walk_over_every_chunk(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=1, seal_every=5)
        fill(sim, spine, 23)
        store = spine._store

        def walked(position):
            for chunk in store._chunks("bus"):
                if position <= chunk.total:
                    digest = chunk.digest_at(position)
                    if digest is not None:
                        return digest
            return None

        def check():
            answers = [
                store.digest_at("bus", p) for p in range(store.total("bus") + 3)
            ]
            assert answers == [walked(p) for p in range(len(answers))]
            return answers

        assert None not in check()[:24]
        # A prefix prune that splits the first chunk, then one that
        # drops whole chunks: pruned positions answer None.
        spine.prune_before(2.5)
        assert check()[:3] == [None, None, None]
        spine.prune_before(12.5)
        assert check()[:13] == [None] * 13
        fill(sim, spine, 4)
        check()

    def test_records_preserved_across_seal(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=50, seal_every=4)
        fill(sim, spine, 10)
        details = [r.detail["i"] for r in spine.records()]
        assert details == list(range(10))


class TestDemotion:
    def test_excess_segments_spill_to_disk(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=1, seal_every=10)
        fill(sim, spine, 45)
        stats = spine.tier_stats()
        assert stats["seals"] == 4
        assert stats["cold_segments"] == 3
        assert stats["spill_bytes"] > 0
        assert len(list(tmp_path.glob("*.seg"))) == 3

    def test_lowered_retention_demotes_without_a_seal(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=4, seal_every=4)
        fill(sim, spine, 22)
        chunks = spine._store.sealed["bus"]
        assert [c.is_cold for c in chunks] == [True, False, False, False, False]
        seals = spine.tier_stats()["seals"]
        spine.configure_spill(tmp_path, hot_segments=1, seal_every=4)
        assert [c.is_cold for c in chunks] == [True, True, True, True, False]
        stats = spine.tier_stats()
        assert stats["seals"] == seals
        assert stats["demotions"] == 4
        assert len(list(tmp_path.glob("*.seg"))) == 4
        assert spine.verify()

    def test_drain_that_seals_nothing_runs_no_demote_pass(
        self, tmp_path, monkeypatch
    ):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=1, seal_every=8)
        store = spine._store
        passes = []
        demote_excess = store._demote_excess
        monkeypatch.setattr(
            store, "_demote_excess",
            lambda source: passes.append(source) or demote_excess(source),
        )
        for __ in range(7):
            fill(sim, spine, 1)
        assert passes == []
        fill(sim, spine, 1)  # the eighth record seals
        assert passes == ["bus"]
        fill(sim, spine, 8)
        assert passes == ["bus", "bus"]
        assert spine.tier_stats()["cold_segments"] == 1

    def test_cold_records_reload_identically(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=0, seal_every=6)
        fill(sim, spine, 18)
        records = spine.records()
        assert [r.detail["i"] for r in records] == list(range(18))
        assert all(isinstance(r, AuditRecord) for r in records)
        assert records[0].source_context is not None
        assert records[0].source_context.secrecy == CTX.secrecy

    def test_export_identical_to_unspilled_twin(self, tmp_path):
        sim, spine = make_spine()
        twin_sim, twin = make_spine()
        spine.configure_spill(tmp_path, hot_segments=1, seal_every=7)
        fill(sim, spine, 30, source="bus")
        fill(twin_sim, twin, 30, source="bus")
        fill(sim, spine, 9, source="kernel")
        fill(twin_sim, twin, 9, source="kernel")
        assert spine.export() == twin.export()
        assert spine.segment_heads() == twin.segment_heads()

    def test_demote_before_pushes_old_hot_segments_cold(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=100, seal_every=10)
        fill(sim, spine, 40)
        assert spine.tier_stats()["cold_segments"] == 0
        demoted = spine.demote_before(sim.now() - 15.0)
        assert demoted == 20  # two full segments' worth of records
        assert spine.tier_stats()["cold_segments"] == 2
        assert spine.verify()

    def test_checkpoints_bind_across_tiers(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=1, seal_every=5)
        fill(sim, spine, 13)
        spine.checkpoint()  # pins a head that will go cold
        fill(sim, spine, 13)
        spine.checkpoint()
        assert spine.tier_stats()["cold_segments"] >= 1
        assert len(spine.checkpoints()) == 2
        assert spine.verify()  # ckpt digests resolved from cold files


class TestColdVerification:
    def _cold_spine(self, tmp_path, n=24):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=0, seal_every=8)
        fill(sim, spine, n)
        assert spine.tier_stats()["cold_segments"] >= 2
        return sim, spine

    def test_clean_cold_tier_verifies(self, tmp_path):
        __, spine = self._cold_spine(tmp_path)
        assert spine.verify()
        spine.verify_strict()

    def test_record_slot_tamper_detected(self, tmp_path):
        __, spine = self._cold_spine(tmp_path)
        victim = sorted(tmp_path.glob("*.seg"))[0]
        blob = victim.read_bytes()
        assert b'"subj"' in blob
        victim.write_bytes(blob.replace(b'"subj"', b'"EVIL"', 1))
        assert not spine.verify()
        with pytest.raises(IntegrityViolation):
            spine.verify_strict()

    def test_header_tamper_detected(self, tmp_path):
        # Tampering the spill *header* (where the query index lives)
        # must fail verification even though the chain bytes are intact:
        # a doctored index could silently hide records from queries.
        __, spine = self._cold_spine(tmp_path)
        victim = sorted(tmp_path.glob("*.seg"))[0]
        blob = victim.read_bytes()
        assert b'"actor0"' in blob  # indexed actor set, in the header
        victim.write_bytes(blob.replace(b'"actor0"', b'"actorX"', 1))
        assert not spine.verify()

    def test_undecodable_slot_bytes_detected(self, tmp_path):
        # A tamper that leaves the canonical bytes invalid UTF-8 must
        # still report as a violation, not crash the reader.
        __, spine = self._cold_spine(tmp_path)
        victim = sorted(tmp_path.glob("*.seg"))[0]
        blob = victim.read_bytes()
        at = blob.rfind(b'"subj"')  # last occurrence: a record slot,
        assert at > 0               # past the (indexed) header
        victim.write_bytes(
            blob[:at] + b'"\xa2\xa2\xa2j"' + blob[at + 6:]
        )
        assert not spine.verify()
        with pytest.raises(IntegrityViolation):
            spine.verify_strict()

    def test_truncated_spill_file_detected(self, tmp_path):
        __, spine = self._cold_spine(tmp_path)
        victim = sorted(tmp_path.glob("*.seg"))[0]
        victim.write_bytes(victim.read_bytes()[:40])
        assert not spine.verify()

    def test_missing_spill_file_detected(self, tmp_path):
        __, spine = self._cold_spine(tmp_path)
        sorted(tmp_path.glob("*.seg"))[0].unlink()
        assert not spine.verify()

    @pytest.mark.parametrize("doctor", ["bad-bytes", "bad-length", "cut"])
    def test_doctored_slot_read_raises_integrity_violation(
        self, tmp_path, doctor
    ):
        # A cold query reads single slots through records_at: a doctored
        # slot must surface as a violation there too, never a crash.
        __, spine = self._cold_spine(tmp_path)
        chunk = spine._store.sealed["bus"][0]
        assert chunk.is_cold
        blob = chunk.path.read_bytes()
        at = blob.rfind(b'"subj"')  # inside the last slot's canonical
        if doctor == "bad-bytes":
            blob = blob[:at] + b'"\xa2\xa2\xa2j"' + blob[at + 6:]
        elif doctor == "bad-length":
            data_start, stride = chunk._spill_layout()
            slot = data_start + (chunk.count - 1) * stride
            blob = blob[:slot] + b"\xff\xff\x00\x00" + blob[slot + 4:]
        else:
            blob = blob[:at]
        chunk.path.write_bytes(blob)
        last = chunk.count - 1
        with pytest.raises(IntegrityViolation):
            chunk.records_at([last])
        with pytest.raises(IntegrityViolation):
            spine.query(actor=f"actor{last % 4}")  # fill's actor cycle


class TestPruneAcrossTiers:
    def test_prune_drops_whole_cold_chunks(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=0, seal_every=5)
        fill(sim, spine, 25)
        files_before = len(list(tmp_path.glob("*.seg")))
        dropped = spine.prune_before(10.0)  # first two chunks end < 10s
        assert dropped == 10
        assert len(spine) == 15
        assert len(list(tmp_path.glob("*.seg"))) < files_before
        assert spine.verify()

    def test_prune_straddling_a_cold_chunk_rewrites_it(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=0, seal_every=10)
        fill(sim, spine, 30)
        dropped = spine.prune_before(13.0)  # mid-second-chunk cutoff
        assert dropped == 13
        assert len(spine) == 17
        assert spine.verify()
        assert [r.detail["i"] for r in spine.records()] == \
            list(range(13, 30))

    def test_prune_segment_clears_cold_files(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=0, seal_every=5)
        fill(sim, spine, 12, source="bus")
        fill(sim, spine, 3, source="kernel")
        dropped = spine.prune_segment("bus")
        assert dropped == 12
        assert len(spine) == 3
        assert spine.verify()
        # chain head survives the prune (rebase, not reset)
        heads = spine.segment_heads()
        assert heads["bus"][0] == 12


class TestSpillCodec:
    def _entries(self, n):
        sim, spine = make_spine()
        fill(sim, spine, n)
        seg = spine._store.tails["bus"]
        return seg, [
            (seg.records[i].canonical(), seg.digest_at(i + 1))
            for i in range(n)
        ]

    def test_round_trip(self, tmp_path):
        seg, entries = self._entries(7)
        index = SegmentIndex.over(list(seg.records))
        path = tmp_path / "seg.seg"
        size, header_digest = write_spill(
            path, "bus", seg.base_digest, 0, seg.head, entries, index
        )
        assert size == path.stat().st_size
        header, got = read_spill(path)
        assert got == entries
        assert header["source"] == "bus"
        assert header["base_digest"] == seg.base_digest
        assert header["head"] == seg.head
        assert header["count"] == 7

    def test_header_carries_index(self, tmp_path):
        seg, entries = self._entries(5)
        index = SegmentIndex.over(list(seg.records))
        path = tmp_path / "seg.seg"
        write_spill(path, "bus", seg.base_digest, 0, seg.head, entries, index)
        loaded = SegmentIndex.from_dict(read_spill_header(path)["index"])
        assert loaded.actors == index.actors
        assert loaded.kinds == index.kinds
        assert loaded.time_min == index.time_min
        assert loaded.time_max == index.time_max

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bogus.seg"
        path.write_bytes(b"NOTASEG!" + b"\x00" * 64)
        with pytest.raises(IntegrityViolation):
            read_spill(path)


class TestSegmentIndex:
    def _records(self):
        sim, spine = make_spine()
        fill(sim, spine, 6, actor="alice")
        return list(spine._store.tails["bus"].records)

    def test_may_match_is_sound(self):
        records = self._records()
        index = SegmentIndex.over(records)
        # Anything that actually matches must be admitted by the index.
        assert index.may_match(actor="alice")
        assert index.may_match(entity="alice")
        assert index.may_match(entity="subj")
        assert index.may_match(kind_value=RecordKind.FLOW_ALLOWED.value)
        assert index.may_match(tag="local:medical")
        assert index.may_match(since=0.0, until=100.0)

    def test_may_match_prunes_definitively(self):
        records = self._records()
        index = SegmentIndex.over(records)
        assert not index.may_match(actor="mallory")
        assert not index.may_match(entity="mallory")
        assert not index.may_match(kind_value=RecordKind.FLOW_DENIED.value)
        assert not index.may_match(tag="local:finance")
        assert not index.may_match(since=1e9)
        assert not index.may_match(until=-1.0)

    def test_postings_name_every_record_of_a_name(self):
        records = self._records()
        index = SegmentIndex.over(records)
        assert index.candidates(actor="alice") == list(range(6))
        assert index.candidates(subject="subj") == list(range(6))
        assert index.candidates(entity="subj") == list(range(6))
        assert index.candidates(actor="mallory") == []
        # No name in the filter: every record must be read.
        assert index.candidates() is None

    def test_shortest_posting_list_wins(self):
        sim, spine = make_spine()
        for i in range(6):
            spine.emit(
                "bus", RecordKind.FLOW_ALLOWED, "alice",
                "rare" if i == 4 else "", {"i": i},
            )
        spine.drain()
        index = SegmentIndex.over(list(spine._store.tails["bus"].records))
        assert index.candidates(actor="alice", subject="rare") == [4]
        assert index.candidates(subject="") == [0, 1, 2, 3, 5]
        assert index.candidates(entity="rare") == [4]
        # The empty subject is indexed in memory, but the header keeps
        # writing the same name sets as before.
        assert index.may_match(subject="")
        assert index.to_dict()["subjects"] == ["rare"]

    def test_record_matches_agrees_with_index_admission(self):
        records = self._records()
        index = SegmentIndex.over(records)
        for actor in ("alice", "mallory"):
            if any(record_matches(r, actor=actor) for r in records):
                assert index.may_match(actor=actor)


class TestStoreDirectly:
    def test_hot_segments_zero_keeps_only_tail_in_memory(self, tmp_path):
        store = SegmentStore(genesis=lambda s: "g:" + s)
        store.configure_spill(tmp_path, hot_segments=0, seal_every=4)
        sim, spine = make_spine()
        fill(sim, spine, 12)
        for rec in spine.records():
            tail = store.tail("bus")
            tail.chain(rec)
            store.maybe_seal("bus")
        assert all(c.is_cold for c in store.sealed["bus"])
        assert store.total("bus") == 12
        store.verify()

    def test_seal_prefix_noop_on_short_tail(self):
        store = SegmentStore(genesis=lambda s: "g:" + s)
        assert store.seal_prefix("bus", 5) is None

    def test_tier_stats_shape(self, tmp_path):
        store = SegmentStore(genesis=lambda s: "g:" + s)
        store.configure_spill(tmp_path, hot_segments=2, seal_every=4)
        stats = store.tier_stats()
        for key in (
            "hot_records", "cold_records", "sealed_segments",
            "cold_segments", "spill_bytes", "seals", "demotions",
            "cold_loads", "spill_dir",
        ):
            assert key in stats
        assert stats["spill_dir"] == str(tmp_path)


class TestSealedSegmentUnit:
    def test_demote_then_records_reload(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=100, seal_every=6)
        fill(sim, spine, 12)
        chunk = spine._store.sealed["bus"][0]
        assert not chunk.is_cold
        hot_entries = chunk.entries()
        chunk.demote(tmp_path)
        assert chunk.is_cold
        assert chunk.entries() == hot_entries
        assert [r.detail["i"] for r in chunk.records()] == list(range(6))
        chunk.verify()

    def test_records_at_reads_the_named_records(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=100, seal_every=6)
        fill(sim, spine, 12)
        chunk = spine._store.sealed["bus"][0]
        hot = chunk.records_at([1, 4, 5])
        assert [r.detail["i"] for r in hot] == [1, 4, 5]
        chunk.demote(tmp_path)
        assert chunk.records_at([1, 4, 5]) == hot
        assert chunk.records_at([]) == []

    def test_cold_prune_prefix_rewrites_file(self, tmp_path):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=0, seal_every=8)
        fill(sim, spine, 8)
        chunk = spine._store.sealed["bus"][0]
        head_before = chunk.head
        dropped = chunk.prune_prefix(3)
        assert dropped == 3
        assert chunk.count == 5
        assert chunk.total == 8  # absolute end position is unchanged
        assert chunk.head == head_before  # head never moves on prune
        assert chunk.base_count == 3
        chunk.verify()
        assert [r.detail["i"] for r in chunk.records()] == [3, 4, 5, 6, 7]
