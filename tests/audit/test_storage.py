"""The tiered segment store: seal cadence, demotion to spill files,
cold-tier verification (header + chain), pruning across tier
boundaries, hot/cold export identity, and the format-2 context table
(see docs/audit_storage.md)."""

import hashlib
import json
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.audit import (
    AuditLog,
    AuditRecord,
    AuditSpine,
    RecordKind,
    decode_export,
    load_spill,
    record_matches,
)
from repro.audit.records import _CONTEXTS, context_stats, named_contexts
from repro.audit.storage import (
    SealedSegment,
    SegmentIndex,
    SegmentStore,
    SpillImage,
    read_spill,
    read_spill_header,
    write_spill,
)
from repro.deploy import Deployment
from repro.errors import IntegrityViolation
from repro.ifc import SecurityContext
from repro.sim import Simulator

CTX = SecurityContext.of(["medical", "ann"], ["hosp-dev"])
OTHER = SecurityContext.of(["medical", "bob"], ["hosp-dev"])


def ref_of(ctx):
    """The reference a canonical record names ``ctx`` by."""
    record = AuditRecord(0, 0.0, RecordKind.CUSTOM, "a", "", {}, ctx, None)
    return json.loads(record.canonical())["source_context"]


def table_of(entries):
    """The context table a spill file of ``entries`` carries."""
    return {ref: _CONTEXTS[ref] for ref in named_contexts(c for c, __ in entries)}


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
            image = SpillImage(blob, chunk.path)
            slot = image.data_start + (chunk.count - 1) * image.stride
            blob = blob[:slot] + b"\xff\xff\x00\x00" + blob[slot + 4:]
        else:
            blob = blob[:at]
        chunk.path.write_bytes(blob)
        last = chunk.count - 1
        with pytest.raises(IntegrityViolation):
            chunk.records_at([last])
        # The verify replay parses slots on its own path: it fails
        # closed on the same doctoring.
        with pytest.raises(IntegrityViolation):
            chunk.verify()
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
            (record.canonical(), seg.digest_at(i + 1))
            for i, record in enumerate(seg.records())
        ]

    def test_round_trip(self, tmp_path):
        seg, entries = self._entries(7)
        index = SegmentIndex.over(seg.records())
        path = tmp_path / "seg.seg"
        size, header_digest = write_spill(
            path, "bus", seg.base_digest, 0, seg.head, entries, index,
            table_of(entries),
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
        index = SegmentIndex.over(seg.records())
        path = tmp_path / "seg.seg"
        write_spill(
            path, "bus", seg.base_digest, 0, seg.head, entries, index,
            table_of(entries),
        )
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
        return spine._store.tails["bus"].records()

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
        index = SegmentIndex.over(spine._store.tails["bus"].records())
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


def _decode_alone(decode: str, stdin: str):
    """Run ``decode`` (an expression over ``stdin``, the text passed in)
    in a fresh interpreter that imports only the package: no table, no
    interned tags, no store of this process.  Returns what
    :func:`_summary` makes of the records it yields."""
    src = str(Path(repro.__file__).resolve().parents[1])
    code = (
        "import json, sys\n"
        "from repro.audit import decode_export, load_spill\n"
        "from repro.audit.records import _CONTEXTS\n"
        "assert not _CONTEXTS\n"
        "stdin = sys.stdin.read()\n"
        f"records = {decode}\n"
        "print(json.dumps([[r.canonical(),"
        " sorted(t.qualified for t in r.source_context.secrecy),"
        " sorted(t.qualified for t in r.target_context.integrity)]"
        " for r in records]))\n"
    )
    return json.loads(subprocess.run(
        [sys.executable, "-c", code], input=stdin, capture_output=True,
        text=True, check=True, env={"PYTHONPATH": src},
    ).stdout)


def _summary(records):
    return [
        [r.canonical(),
         sorted(t.qualified for t in r.source_context.secrecy),
         sorted(t.qualified for t in r.target_context.integrity)]
        for r in records
    ]


class TestFormatTwo:
    """Records name contexts by reference; the header carries the
    table; readers refuse format 1 and any table entry that does not
    hash to its key."""

    def _cold(self, tmp_path, n=8):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=0, seal_every=n)
        fill(sim, spine, n)
        chunk = spine._store.sealed["bus"][0]
        assert chunk.is_cold
        return spine, chunk

    def test_slots_carry_references_and_the_header_the_json_once(
        self, tmp_path
    ):
        __, chunk = self._cold(tmp_path)
        blob = chunk.path.read_bytes()
        ref = ref_of(CTX).encode()
        assert blob.count(ref) == 1 + 2 * chunk.count  # table key + refs
        assert blob.count(b"local:ann") == 2  # table entry + index tags
        header = read_spill_header(chunk.path)
        assert header["version"] == 2
        assert list(header["contexts"]) == [ref.decode()]

    def test_format_one_file_is_refused_by_name(self, tmp_path):
        spine, chunk = self._cold(tmp_path)
        blob = chunk.path.read_bytes()
        assert blob[:8] == b"RAUDSEG2"
        chunk.path.write_bytes(b"RAUDSEG1" + blob[8:])
        for read in (read_spill, read_spill_header, load_spill):
            with pytest.raises(IntegrityViolation, match="RAUDSEG1"):
                read(chunk.path)
        with pytest.raises(IntegrityViolation, match="RAUDSEG1"):
            chunk.records_at([0])
        assert not spine.verify(mode="deep")

    @pytest.mark.parametrize("version", [b"1", b"3"])
    def test_other_header_version_is_refused_by_name(
        self, tmp_path, version
    ):
        spine, chunk = self._cold(tmp_path)
        blob = chunk.path.read_bytes()
        assert blob.count(b'"version":2') == 1
        chunk.path.write_bytes(
            blob.replace(b'"version":2', b'"version":' + version)
        )
        want = f"version {version.decode()}"
        for read in (read_spill, read_spill_header, load_spill):
            with pytest.raises(IntegrityViolation, match=want):
                read(chunk.path)
        with pytest.raises(IntegrityViolation, match=want):
            chunk.records_at([0])
        assert not spine.verify(mode="deep")

    def test_format_one_canonical_is_not_decoded(self):
        # Format 1 wrote the context JSON where format 2 writes its
        # reference; such a record is refused, never read as public.
        record = AuditRecord(3, 1.5, RecordKind.FLOW_ALLOWED, "a", "b", {},
                             CTX, None)
        body = json.loads(record.canonical())
        body["source_context"] = {
            "integrity": ["local:hosp-dev"],
            "secrecy": ["local:ann", "local:medical"],
        }
        with pytest.raises(IntegrityViolation, match="not a digest"):
            AuditRecord.from_canonical(
                json.dumps(body, sort_keys=True, separators=(",", ":"))
            )

    def test_unknown_reference_is_refused(self):
        canonical = AuditRecord(
            0, 0.0, RecordKind.FLOW_ALLOWED, "a", "b", {}, CTX, CTX
        ).canonical().replace(ref_of(CTX), "0" * 64, 1)
        with pytest.raises(IntegrityViolation, match="unknown context"):
            AuditRecord.from_canonical(canonical)

    def test_doctored_table_entry_fails_verify(self, tmp_path):
        spine, chunk = self._cold(tmp_path)
        blob = chunk.path.read_bytes()
        entry = b'\\"local:ann\\"'  # inside the table's JSON string
        assert blob.count(entry) == 1
        chunk.path.write_bytes(blob.replace(entry, b'\\"local:bob\\"'))
        assert not spine.verify(mode="deep")
        with pytest.raises(IntegrityViolation, match="does not hash"):
            chunk.verify()

    def test_doctored_table_entry_fails_a_cold_slot_read(self, tmp_path):
        __, chunk = self._cold(tmp_path)
        blob = chunk.path.read_bytes()
        entry = b'\\"local:ann\\"'
        chunk.path.write_bytes(blob.replace(entry, b'\\"local:bob\\"'))
        with pytest.raises(IntegrityViolation, match="does not hash"):
            chunk.records_at([0])

    def test_swapped_reference_breaks_the_chain(self, tmp_path):
        spine, chunk = self._cold(tmp_path)
        ref_of(OTHER)  # a valid reference the table holds
        blob = chunk.path.read_bytes()
        at = blob.rfind(ref_of(CTX).encode())  # the last slot's target
        chunk.path.write_bytes(
            blob[:at] + ref_of(OTHER).encode() + blob[at + 64:]
        )
        # A decode alone reads the other, valid context ...
        assert chunk.records_at([chunk.count - 1])[0].target_context == OTHER
        # ... and the chain, which covers the reference, refuses it.
        for mode in ("incremental", "deep"):
            assert not spine.verify(mode=mode)
        with pytest.raises(IntegrityViolation, match="chain broken"):
            load_spill(chunk.path)

    def test_swapped_context_in_a_hot_record_breaks_the_chain(self):
        sim, spine = make_spine()
        fill(sim, spine, 4)
        record = spine._store.tails["bus"].records()[1]
        object.__setattr__(record, "target_context", OTHER)
        for mode in ("incremental", "deep"):
            assert not spine.verify(mode=mode)

    def test_cold_segment_decodes_and_verifies_in_a_fresh_process(
        self, tmp_path
    ):
        sim, spine = make_spine()
        spine.configure_spill(tmp_path, hot_segments=0, seal_every=6)
        for i in range(6):
            spine.emit("bus", RecordKind.FLOW_ALLOWED, f"a{i}", "b",
                       {"i": i}, CTX, OTHER if i % 2 else CTX)
            sim.clock.advance(1.0)
        spine.drain()
        chunk = spine._store.sealed["bus"][0]
        assert chunk.is_cold
        want = _summary(chunk.records())
        assert _decode_alone("load_spill(stdin)", str(chunk.path)) == want
        # The same file, doctored, fails there too.
        blob = chunk.path.read_bytes()
        at = blob.rfind(ref_of(OTHER).encode())
        chunk.path.write_bytes(blob[:at] + ref_of(CTX).encode() + blob[at + 64:])
        with pytest.raises(subprocess.CalledProcessError) as failed:
            _decode_alone("load_spill(stdin)", str(chunk.path))
        assert "IntegrityViolation" in failed.value.stderr

    def test_export_decodes_in_a_fresh_process(self):
        log = AuditLog()
        log.flow_allowed("a", "b", CTX, CTX)
        log.flow_allowed("a", "c", CTX, OTHER)
        log.flow_allowed("a", "d", OTHER, CTX)
        exported = log.export()
        # Each context ships once, beside the first record naming it.
        assert [sorted(e.get("contexts", ())) for e in exported] == [
            [ref_of(CTX)], [ref_of(OTHER)], [],
        ]
        assert decode_export(exported) == list(log)
        assert _decode_alone(
            "decode_export(json.loads(stdin))", json.dumps(exported)
        ) == _summary(log)

    def test_doctored_export_entry_is_refused(self):
        log = AuditLog()
        log.flow_allowed("a", "b", CTX, CTX)
        exported = log.export()
        ((ref, text),) = exported[0]["contexts"].items()
        exported[0]["contexts"][ref] = text.replace("local:ann", "local:bob")
        with pytest.raises(IntegrityViolation, match="does not hash"):
            decode_export(exported)


def _fresh_context_entry(name):
    """A hash-valid context-table entry for a context this process has
    never serialised: its reference is in no table yet."""
    text = json.dumps(
        {"integrity": [], "secrecy": [f"never:{name}"]},
        sort_keys=True, separators=(",", ":"),
    )
    return hashlib.sha256(text.encode()).hexdigest(), text


class TestBoundedContextTable:
    """An outside table grows the process's table only by the contexts
    the records being decoded name; every other entry is refused and
    counted."""

    def test_an_entry_no_record_names_is_refused_and_counted(self):
        log = AuditLog()
        log.flow_allowed("a", "b", CTX, CTX)
        exported = log.export()
        ref, text = _fresh_context_entry("refused")
        exported[0]["contexts"][ref] = text
        refused = context_stats()["refused"]
        assert decode_export(exported) == list(log)
        assert ref not in _CONTEXTS
        assert context_stats()["refused"] == refused + 1
        deploy = Deployment(seed=1)
        deploy.node("n").with_domain()
        assert deploy.stats()["audit"]["contexts_refused"] == refused + 1

    def test_a_named_entry_is_admitted(self):
        ref, text = _fresh_context_entry("admitted")
        record = AuditRecord(0, 0.0, RecordKind.CUSTOM, "a", "", {}, None, None)
        body = json.loads(record.canonical())
        body["source_context"] = ref
        canonical = json.dumps(body, sort_keys=True, separators=(",", ":"))
        (got,) = decode_export(
            [{"record": canonical, "digest": "0" * 64, "contexts": {ref: text}}]
        )
        assert _CONTEXTS[ref] == text
        assert [t.qualified for t in got.source_context.secrecy] == [
            "never:admitted"
        ]

    @pytest.mark.parametrize("change", ["extra", "missing"])
    def test_a_header_table_other_than_its_slots_name_fails_load_spill(
        self, tmp_path, change
    ):
        sim, spine = make_spine()
        fill(sim, spine, 4)
        seg = spine._store.tails["bus"]
        entries = seg.entries()
        table = table_of(entries)
        if change == "extra":
            ref, text = _fresh_context_entry("extra")
            table[ref] = text
        else:
            table = {}
        path = tmp_path / "seg.seg"
        write_spill(
            path, "bus", seg.base_digest, 0, seg.head, entries,
            SegmentIndex.over(seg.records()), table,
        )
        with pytest.raises(IntegrityViolation, match="context table"):
            load_spill(path)
