"""A chunk is the bytes it hashed.

Open tails keep the canonical strings they chained, not record objects,
and a sealed segment keeps them laid out as its spill image, hot or
cold; every read decodes those strings through a per-chunk memo, and
verify replays them and holds every record a read handed out to the
string it came from.  The property drives random tiered and untiered
histories (chain, seal, demote, prune, checkpoint, query) and checks
each read against a decode of the stored strings and against a flat
``record_matches`` scan; the memo must never change an answer.  The
tamper cases check that every kind of edit fails verify in both modes:
a stored string edited in place (a hot image spliced, its header
included), and a record a read returned mutated afterwards.
"""

import shutil
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.audit import AuditRecord, AuditSpine, RecordKind, record_matches
from repro.audit.storage import SpillImage
from repro.ifc import SecurityContext
from repro.sim import Simulator

CONTEXTS = [
    None,
    SecurityContext.of(["medical", "ann"], ["hosp-dev"]),
    SecurityContext.of(["medical", "bob"], ["consent"]),
]
KINDS = [RecordKind.FLOW_ALLOWED, RecordKind.FLOW_DENIED, RecordKind.CUSTOM]
ACTORS = ["alice", "bob", "carol"]
SUBJECTS = ["", "x", "y"]

FILTERS = st.fixed_dictionaries({}, optional={
    "kind": st.sampled_from(KINDS),
    "actor": st.sampled_from(ACTORS + ["nobody"]),
    "subject": st.sampled_from(SUBJECTS),
    "entity": st.sampled_from(ACTORS + SUBJECTS),
    "tag": st.sampled_from(["local:ann", "local:bob", "local:consent"]),
    "since": st.floats(min_value=0, max_value=60),
    "until": st.floats(min_value=0, max_value=60),
})

OPS = st.lists(
    st.one_of(
        st.tuples(
            st.just("emit"),
            st.lists(
                st.tuples(
                    st.sampled_from(["bus", "kernel"]),
                    st.sampled_from(KINDS),
                    st.sampled_from(ACTORS),
                    st.sampled_from(SUBJECTS),
                    st.sampled_from(CONTEXTS),
                    st.sampled_from(CONTEXTS),
                ),
                min_size=1, max_size=9,
            ),
        ),
        st.tuples(st.just("seal"), st.sampled_from(["bus", "kernel"]),
                  st.integers(min_value=1, max_value=6)),
        st.tuples(st.just("demote"), st.floats(min_value=0, max_value=8)),
        st.tuples(st.just("prune"), st.floats(min_value=0, max_value=8)),
        st.tuples(st.just("checkpoint")),
        st.tuples(st.just("query"), FILTERS),
        st.tuples(st.just("iterate")),
    ),
    min_size=1, max_size=14,
)


def _chunks(spine):
    store = spine._store
    for source in store.sources():
        yield from store.sealed.get(source, ())
        yield store.tails[source]


def _flat(model):
    return [AuditRecord.from_canonical(c) for __, c in sorted(model.items())]


def _check_reads(spine, model):
    """Every read equals a decode of the stored strings."""
    records = spine.records()
    assert [r.canonical() for r in records] == [
        c for __, c in sorted(model.items())
    ]
    assert records == _flat(model)
    for chunk in _chunks(spine):
        stored = [c for c, __ in chunk.entries()]
        assert [r.canonical() for r in chunk.records()] == stored
        assert chunk.records() == [
            AuditRecord.from_canonical(c) for c in stored
        ]


@settings(max_examples=200, deadline=None)
@given(tiered=st.booleans(), hot=st.integers(min_value=0, max_value=2),
       seal_every=st.integers(min_value=2, max_value=5), ops=OPS)
def test_reads_are_decodes_of_the_stored_strings(tiered, hot, seal_every, ops):
    workdir = Path(tempfile.mkdtemp(prefix="chunk-bytes-"))
    try:
        sim = Simulator()
        spine = AuditSpine(clock=sim.now, name="audit@bytes")
        if tiered:
            spine.configure_spill(workdir, hot_segments=hot,
                                  seal_every=seal_every)
        #: seq -> the canonical string the record chained as.
        model = {}
        for op in ops:
            if op[0] == "emit":
                for source, kind, actor, subject, src, tgt in op[1]:
                    record = spine.emit(source, kind, actor, subject,
                                        {"n": len(model)}, src, tgt)
                    model[record.seq] = record.canonical()
                    sim.clock.advance(0.5)
                spine.drain()
            elif op[0] == "seal":
                spine.drain()
                if op[1] in spine._store.tails:
                    spine._store.seal_prefix(op[1], op[2])
            elif op[0] == "demote":
                spine.demote_before(op[1])
            elif op[0] == "prune":
                spine.prune_before(op[1])
                model = {
                    seq: c for seq, c in model.items()
                    if AuditRecord.from_canonical(c).timestamp >= op[1]
                }
            elif op[0] == "checkpoint":
                spine.checkpoint()
            elif op[0] == "query":
                # Whatever the memos hold by now, the answer is the
                # flat scan's.
                assert spine.query(**op[1]) == [
                    r for r in _flat(model) if record_matches(r, **op[1])
                ]
            else:
                list(spine)
            _check_reads(spine, model)
        assert spine.verify(mode="incremental")
        assert spine.verify(mode="deep")
        # Checkpoints read back as the strings they chained.
        assert [c.canonical() for c in spine.checkpoints()] == [
            e["record"] for e in spine.export_checkpoints()
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _spine(tmp_path):
    """A tiered spine with a cold, a hot sealed and an open chunk."""
    sim = Simulator()
    spine = AuditSpine(clock=sim.now, name="audit@bytes")
    spine.configure_spill(tmp_path, hot_segments=1, seal_every=4)
    for i in range(10):
        spine.emit("bus", RecordKind.FLOW_ALLOWED, ACTORS[i % 3], "x",
                   {"i": i}, CONTEXTS[1], CONTEXTS[2])
        sim.clock.advance(1.0)
    spine.checkpoint()
    sealed = spine._store.sealed["bus"]
    assert sealed[0].is_cold and not sealed[1].is_cold
    assert spine._store.tails["bus"].count == 2
    return spine


def _edit_stored_string(spine, where):
    """Edit the last stored string of ``where``: in place in a list, or
    spliced into the hot sealed segment's image (a slot, or the
    header's index)."""
    if where == "tail":
        strings = spine._store.tails["bus"].canonicals
    elif where == "checkpoints":
        strings = spine._ckpt.canonicals
    else:
        chunk = spine._store.sealed["bus"][1]
        image = chunk._image
        buf = image.buf
        if where == "hot-sealed-header":
            # The header, ahead of every slot, lists the index's actors.
            buf = buf.replace(b'"alice"', b'"alicX"', 1)
        else:
            at = image.data_start + (image.count - 1) * image.stride
            slot = buf[at:at + image.stride].replace(
                b'"subject":"x"', b'"subject":"y"', 1
            )
            buf = buf[:at] + slot + buf[at + image.stride:]
        assert buf != image.buf
        chunk._image = SpillImage(buf, "a spliced image")
        return
    strings[-1] = strings[-1].replace('"seq":', '"seq": ', 1)


def _read(spine, where):
    if where == "tail":
        return spine._store.tails["bus"].records()[-1]
    if where == "hot-sealed":
        return spine._store.sealed["bus"][1].records_at([2])[0]
    return spine.checkpoints()[-1]


WHERE = ["tail", "hot-sealed", "checkpoints"]


@pytest.mark.parametrize("mode", ["incremental", "deep"])
@pytest.mark.parametrize("where", WHERE + ["hot-sealed-header"])
def test_an_edited_stored_string_fails_verify(tmp_path, where, mode):
    spine = _spine(tmp_path)
    assert spine.verify(mode=mode)
    _edit_stored_string(spine, where)
    assert not spine.verify(mode=mode)


@pytest.mark.parametrize("mode", ["incremental", "deep"])
@pytest.mark.parametrize("where", WHERE)
def test_a_mutated_read_fails_verify(tmp_path, where, mode):
    spine = _spine(tmp_path)
    record = _read(spine, where)
    assert spine.verify(mode=mode)
    record.detail["i"] = -1
    assert not spine.verify(mode=mode)


def test_the_memo_decodes_each_record_once_and_goes_cold_with_it(tmp_path):
    spine = _spine(tmp_path)
    chunk = spine._store.sealed["bus"][1]
    first = chunk.records()
    assert chunk.records() == first
    assert all(a is b for a, b in zip(chunk.records(), first))
    assert spine.query(actor="alice")  # reads through the same memo
    chunk.demote(tmp_path)
    # Cold reads decode afresh: nothing is held for a cold chunk.
    assert chunk.records() == first
    assert not any(a is b for a, b in zip(chunk.records(), first))
