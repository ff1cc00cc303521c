"""Property: gossip converges all N codecs to identical vocabularies —
every pair masking — regardless of exchange ordering, duplicate
delivery, and dropped control datagrams.

The mesh's recovery story differs from the pairwise wire plane's
REOFFER counter but serves the same role: every anti-entropy round
re-offers the digest, and a node's ``wants`` are always computed from
what it *really* stores, so dropped replies/deltas only delay
convergence; duplicates are absorbed by max-merge and base-checked
extends.  The handlers are driven directly here (no network), which
lets hypothesis choose pairings, drops and duplications adversarially.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.federation import MeshNode
from repro.ifc import TagInterner, WireCodec

TAG_POOL = [f"fed{i % 4}:tag{i}" for i in range(20)]


def build_nodes(tag_lists):
    nodes = []
    for i, tags in enumerate(tag_lists):
        interner = TagInterner()
        for t in tags:
            interner.intern(t)
        nodes.append(MeshNode(f"n{i}", WireCodec(interner)))
    return nodes


def baseline_converged(nodes):
    for node in nodes:
        for other in nodes:
            if node is other:
                continue
            if node.version_of(other.host) < other.baseline:
                return False
            state = node.codec.peer(other.host)
            if state.confirmed is None or state.confirmed < node.baseline:
                return False
    return True


@settings(max_examples=40, deadline=None)
@given(
    tag_lists=st.lists(
        st.lists(st.sampled_from(TAG_POOL), unique=True, max_size=8),
        min_size=2,
        max_size=5,
    ),
    chaos=st.data(),
)
def test_convergence_despite_drops_duplicates_and_orderings(tag_lists, chaos):
    nodes = build_nodes(tag_lists)
    n = len(nodes)
    # Enough rounds that even adversarial loss cannot starve anti-entropy
    # (each round is an independent chance to exchange).
    max_rounds = 8 * (math.ceil(math.log2(n)) + 2)

    for round_no in range(max_rounds):
        lossy = round_no < max_rounds // 2  # last rounds run clean
        for index, node in enumerate(nodes):
            offset = chaos.draw(
                st.integers(min_value=1, max_value=n - 1), label="partner"
            )
            partner = nodes[(index + offset) % n]
            digest = node.make_digest()
            if lossy and chaos.draw(st.booleans(), label="drop_digest"):
                continue
            reply = partner.handle_digest(digest)
            if lossy and chaos.draw(st.booleans(), label="dup_reply"):
                node.handle_reply(reply)
            if lossy and chaos.draw(st.booleans(), label="drop_reply"):
                continue
            delta = node.handle_reply(reply)
            # The DELTA serves the reply's pulls and nothing else, each
            # from the version the puller said it holds.
            assert set(delta.blocks) <= set(reply.wants)
            for origin, block in delta.blocks.items():
                assert block.base == reply.wants[origin]
            if lossy and chaos.draw(st.booleans(), label="drop_delta"):
                continue
            partner.handle_delta(delta)
            if lossy and chaos.draw(st.booleans(), label="dup_delta"):
                partner.handle_delta(delta)
        if baseline_converged(nodes):
            break

    assert baseline_converged(nodes)
    # Identical vocabularies: every interner ends holding the same tag set.
    vocabularies = [
        {t.qualified for t in node.codec.interner.tags_of(
            (1 << len(node.codec.interner)) - 1)}
        for node in nodes
    ]
    assert all(v == vocabularies[0] for v in vocabularies[1:])
    # Every ordered pair masks the sender's brought vocabulary, and it
    # round-trips to exactly the same tag set.
    for node in nodes:
        mask = (1 << node.baseline) - 1
        for other in nodes:
            if node is other:
                continue
            encoded = node.codec.encode_masks(other.host, mask)
            assert encoded is not None
            decoded = other.codec.decode_mask(node.host, encoded[0])
            assert {
                t.qualified for t in other.codec.interner.tags_of(decoded)
            } == {t.qualified for t in node.codec.interner.tags_of(mask)}
