"""Wire plane: tag-table handshake, mask translation, re-sync.

The property at stake is the IFC-critical one: a mask crossing the wire
must decode to *exactly* the tag set it encoded, even though the two
interners assigned the tags different bit positions — and a tag the peer
has never heard of must force a re-sync, never a silent relabel.
"""

import string

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ifc import (
    HandshakeAck,
    HandshakeFin,
    HandshakeHello,
    Label,
    MaskTranslator,
    SecurityContext,
    TableAck,
    TableUpdate,
    TagBlock,
    TagInterner,
    TagTable,
    WireCodec,
    control_wire_size,
    global_interner,
    raw_table_size,
)

TAG_POOL = [f"ns{i % 3}:tag{i}" for i in range(24)]

tag_sets = st.frozensets(st.sampled_from(TAG_POOL), max_size=8)


def _handshake(a: WireCodec, b: WireCodec, a_host="A", b_host="B") -> None:
    """Drive the three-step handshake between two codecs directly."""
    hello = a.greet(b_host)
    assert isinstance(hello, HandshakeHello)
    ack, _ = b.handle_control(a_host, hello)
    assert isinstance(ack, HandshakeAck)
    fin, _ = a.handle_control(b_host, ack)
    assert isinstance(fin, HandshakeFin)
    reply, _ = b.handle_control(a_host, fin)
    assert reply is None


def _fresh_pair(a_tags, b_tags):
    """Two codecs over independently-populated (disjointly-ordered)
    interners: A interns its tags first, B interns its own first, so the
    same tag generally sits at different bit positions."""
    ia, ib = TagInterner(), TagInterner()
    for t in a_tags:
        ia.intern(t)
    for t in reversed(list(b_tags)):
        ib.intern(t)
    return WireCodec(ia), WireCodec(ib)


class TestHandshakeRoundTrip:
    @settings(max_examples=60, deadline=None)
    @given(
        a_tags=st.lists(st.sampled_from(TAG_POOL), unique=True, max_size=12),
        b_tags=st.lists(st.sampled_from(TAG_POOL), unique=True, max_size=12),
        secrecy=tag_sets,
        integrity=tag_sets,
    )
    def test_any_context_round_trips_between_independent_interners(
        self, a_tags, b_tags, secrecy, integrity
    ):
        a, b = _fresh_pair(a_tags, b_tags)
        # The sender labels things with its pool plus the payload tags.
        for t in secrecy | integrity:
            a.interner.intern(t)
        _handshake(a, b)

        s_mask = a.interner.mask_of(secrecy)
        i_mask = a.interner.mask_of(integrity)
        encoded = a.encode_masks("B", s_mask, i_mask)
        assert encoded is not None, "all tags interned pre-handshake must encode"
        assert b.can_decode("A", *encoded)
        decoded_s = b.decode_mask("A", encoded[0])
        decoded_i = b.decode_mask("A", encoded[1])
        assert {t.qualified for t in b.interner.tags_of(decoded_s)} == {
            t.qualified for t in a.interner.tags_of(s_mask)
        }
        assert {t.qualified for t in b.interner.tags_of(decoded_i)} == {
            t.qualified for t in a.interner.tags_of(i_mask)
        }

    @settings(max_examples=40, deadline=None)
    @given(
        a_tags=st.lists(st.sampled_from(TAG_POOL), unique=True, min_size=1, max_size=10),
        b_tags=st.lists(st.sampled_from(TAG_POOL), unique=True, max_size=10),
        late=st.frozensets(
            st.text(string.ascii_lowercase, min_size=1, max_size=6).map(
                lambda s: f"late:{s}"
            ),
            min_size=1,
            max_size=4,
        ),
    )
    def test_post_handshake_unknown_tag_triggers_resync_not_mislabel(
        self, a_tags, b_tags, late
    ):
        a, b = _fresh_pair(a_tags, b_tags)
        _handshake(a, b)

        # A tag interned after the handshake: its bit exceeds what B
        # confirmed, so the encode must refuse (tag-set fallback) ...
        mask = a.interner.mask_of(late)
        assert a.encode_masks("B", mask) is None

        # ... and the re-sync delta must carry exactly the new suffix.
        update = a.resync("B")
        assert isinstance(update, TableUpdate)
        assert set(update.tags) >= set(late)
        ack, _ = b.handle_control("A", update)
        assert isinstance(ack, TableAck)
        none_reply, _ = a.handle_control("B", ack)
        assert none_reply is None

        # Post-sync the same mask encodes, decodes, and round-trips.
        encoded = a.encode_masks("B", mask)
        assert encoded is not None
        assert b.can_decode("A", encoded[0])
        decoded = b.decode_mask("A", encoded[0])
        assert {t.qualified for t in b.interner.tags_of(decoded)} == {
            t.qualified for t in a.interner.tags_of(mask)
        }


class TestTranslatorAndTable:
    def test_table_snapshot_is_a_stable_prefix(self):
        interner = TagInterner()
        interner.intern("x:a")
        first = interner.export_table()
        interner.intern("x:b")
        second = interner.export_table()
        assert second[: len(first)] == first
        assert interner.export_table(start=len(first)) == ("x:b",)

    def test_tag_table_version_is_length(self):
        assert TagTable(("a:b", "a:c")).version == 2

    def test_translator_memoizes_whole_masks(self):
        local = TagInterner()
        tr = MaskTranslator(local)
        tr.extend(["p:one", "p:two", "p:three"])
        assert tr.version == 3
        m = tr.to_local_mask(0b101)
        assert tr.to_local_mask(0b101) == m
        assert {t.qualified for t in local.tags_of(m)} == {"p:one", "p:three"}

    def test_translator_rejects_unknown_positions(self):
        tr = MaskTranslator(TagInterner())
        tr.extend(["p:one"])
        with pytest.raises(IndexError):
            tr.to_local_mask(0b10)

    def test_label_from_foreign_mask(self):
        # The peer's bit order differs from ours; the translation table
        # must land each foreign bit on the right local tag.
        g = global_interner()
        local_bits = [g.bit("wire:beta"), g.bit("wire:alpha")]
        label = Label.from_foreign_mask(0b11, local_bits)
        assert {t.qualified for t in label.tags} == {"wire:alpha", "wire:beta"}
        assert Label.from_foreign_mask(0, local_bits).is_empty()
        with pytest.raises(IndexError):
            Label.from_foreign_mask(0b100, local_bits)

    def test_repeated_context_pair_decodes_to_same_object(self):
        # A repeated pair is decoded once and shared.
        tr = MaskTranslator(global_interner())
        tr.extend(["wire:s1", "wire:s2", "wire:i1"])
        ctx1 = tr.to_local_context(0b011, 0b100)
        ctx2 = tr.to_local_context(0b011, 0b100)
        assert ctx1 is ctx2
        assert isinstance(ctx1, SecurityContext)
        assert {t.qualified for t in ctx1.secrecy.tags} == {"wire:s1", "wire:s2"}


class TestTagBlockCompression:
    @settings(max_examples=80, deadline=None)
    @given(
        tags=st.lists(
            st.one_of(
                st.sampled_from(TAG_POOL),
                st.builds(
                    lambda stem, n: f"{stem}{n}",
                    st.sampled_from(["run:sensor-", "run:meter", "x:"]),
                    st.integers(min_value=0, max_value=5000),
                ),
            ),
            unique=True,
            max_size=40,
        ),
        base=st.integers(min_value=0, max_value=100),
    )
    def test_compress_round_trips_exactly(self, tags, base):
        block = TagBlock.compress(tags, base=base)
        assert block.tags() == tuple(tags)
        assert block.base == base and block.count == len(tags)

    def test_generated_runs_compress_massively(self):
        tags = tuple(f"city:sensor-{i}" for i in range(10_000))
        block = TagBlock.compress(tags)
        assert block.tags() == tags
        assert block.wire_size * 100 < raw_table_size(tags)

    def test_non_canonical_decimals_stay_literal(self):
        tags = ("pad:07", "pad:08", "pad:09", "pad:10")
        assert TagBlock.compress(tags).tags() == tags

    def test_table_wire_size_is_the_compressed_size(self):
        table = TagTable(tuple(f"a:t{i}" for i in range(100)))
        assert table.wire_size == table.block.wire_size
        assert table.wire_size < raw_table_size(table.tags)

    def test_control_payload_sizing(self):
        table = TagTable(tuple(f"a:t{i}" for i in range(50)))
        assert control_wire_size(HandshakeHello(table)) == table.wire_size
        assert control_wire_size(HandshakeAck(table, 3)) == table.wire_size + 4
        assert control_wire_size(HandshakeFin(7)) == 4
        assert control_wire_size(TableAck(7)) == 4
        update = TableUpdate(base=10, tags=("a:t50", "a:t51"))
        assert control_wire_size(update) == TagBlock.compress(
            update.tags, base=10
        ).wire_size


class TestOutOfBandLearning:
    def test_learn_table_builds_translator_without_handshake(self):
        codec = WireCodec(TagInterner())
        assert codec.learn_table("peer", 0, ("p:a", "p:b")) == 2
        assert codec.peer_version("peer") == 2
        assert codec.can_decode("peer", 0b11)

    def test_learn_table_skips_overlap_and_refuses_gaps(self):
        codec = WireCodec(TagInterner())
        codec.learn_table("peer", 0, ("p:a", "p:b"))
        # Overlapping delta: only the new suffix extends.
        assert codec.learn_table("peer", 1, ("p:b", "p:c")) == 3
        # Gap: state unchanged, caller re-pulls from the returned version.
        assert codec.learn_table("peer", 10, ("p:z",)) == 3
        assert codec.peer_version("peer") == 3

    def test_note_confirmed_unlocks_masking(self):
        interner = TagInterner()
        interner.intern("me:a")
        codec = WireCodec(interner)
        assert codec.encode_masks("peer", 0b1) is None
        codec.note_confirmed("peer", 1)
        assert codec.peer("peer").masking
        assert codec.encode_masks("peer", 0b1) == (0b1,)
        # A claim never lowers what a newer one established.
        codec.note_confirmed("peer", 0)
        assert codec.encode_masks("peer", 0b1) == (0b1,)


class TestControlRobustness:
    def test_hello_reoffered_after_interval(self):
        from repro.ifc.wire import REOFFER_INTERVAL

        a = WireCodec(TagInterner())
        assert a.greet("B") is not None
        assert a.greet("B") is None  # in flight
        for __ in range(REOFFER_INTERVAL):
            a.encode_masks("B", 0)  # unsynced fallback sends
        assert a.greet("B") is not None  # re-offered

    def test_update_with_gap_acks_what_is_held(self):
        a_int = TagInterner()
        for t in ("g:a", "g:b"):
            a_int.intern(t)
        a, b = WireCodec(a_int), WireCodec(TagInterner())
        _handshake(a, b)
        # B answers a delta starting beyond what it holds with its real
        # version, so the sender can re-sync from there.
        stale = TableUpdate(base=10, tags=("g:z",))
        ack, event = b.handle_control("A", stale)
        assert isinstance(ack, TableAck) and ack.acked_version == 2
        assert event["step"] == "update-gap"

    def test_update_before_handshake_is_safe(self):
        b = WireCodec(TagInterner())
        ack, event = b.handle_control("A", TableUpdate(base=0, tags=("q:x",)))
        assert isinstance(ack, TableAck) and ack.acked_version == 0
        assert event["step"] == "update-no-handshake"
