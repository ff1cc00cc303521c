"""Property: every form of the §6 flow rule agrees with the seed's
frozenset procedure (``tests/reference/frozenset_flow.py``).

Hypothesis draws secrecy and integrity tag sets for a source and a
target, empty sets included.  Each entry point must match the oracle on
``allowed``, both ``*_ok`` flags, the missing tags and the reason text:

* the context forms — ``flow_decision``, ``can_flow``,
  ``flow_path_allowed`` and ``DecisionPlane.evaluate``/``allows``/
  ``check`` (which raises ``FlowError`` carrying the reason);
* ``flow_decision_masks`` on masks numbered by a private
  ``TagInterner``, whose denial labels must name that vocabulary's tags;
* ``flow_decision_masks`` across two vocabularies: the source's masks
  are numbered by a peer interner, remapped through a
  ``MaskTranslator`` that learns the peer's table in two steps, and
  judged against a target numbered by the local interner.  The two
  interners intern the tags in different orders, so equal bits mean
  different tags.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FlowError
from repro.ifc import (
    DecisionPlane,
    MaskTranslator,
    SecurityContext,
    TagInterner,
    can_flow,
    flow_decision,
    flow_decision_masks,
    flow_path_allowed,
)
from repro.ifc.flow import _ALLOWED
from repro.ifc.tags import as_tags
from tests.reference.frozenset_flow import frozenset_flow_decision

POOL = tuple(f"frp:t{i}" for i in range(6))

tag_sets = st.frozensets(st.sampled_from(POOL))
pairs = st.tuples(tag_sets, tag_sets, tag_sets, tag_sets)
orders = st.permutations(POOL)


def _oracle(src_s, src_i, dst_s, dst_i):
    return frozenset_flow_decision(
        as_tags(src_s), as_tags(src_i), as_tags(dst_s), as_tags(dst_i)
    )


def _assert_agrees(decision, want):
    assert decision.allowed == want.allowed
    assert decision.secrecy_ok == want.secrecy_ok
    assert decision.integrity_ok == want.integrity_ok
    assert decision.missing_secrecy.tags == want.missing_secrecy
    assert decision.missing_integrity.tags == want.missing_integrity
    assert decision.reason == want.reason
    if want.allowed:
        assert decision is _ALLOWED


@settings(max_examples=300, deadline=None)
@given(pairs)
def test_context_forms_agree_with_oracle(sets):
    src_s, src_i, dst_s, dst_i = sets
    want = _oracle(*sets)
    source = SecurityContext.of(src_s, src_i)
    target = SecurityContext.of(dst_s, dst_i)
    plane = DecisionPlane()

    _assert_agrees(flow_decision(source, target), want)
    _assert_agrees(plane.evaluate(source, target), want)
    assert can_flow(source, target) == want.allowed
    assert plane.allows(source, target) == want.allowed
    assert flow_path_allowed([source, target]) == (
        (True, None) if want.allowed else (False, 0)
    )
    if want.allowed:
        _assert_agrees(plane.check(source, target, "a", "b"), want)
    else:
        with pytest.raises(FlowError) as raised:
            plane.check(source, target, "a", "b")
        assert (raised.value.source, raised.value.target) == ("a", "b")
        assert raised.value.reason == want.reason


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(tag_sets, tag_sets), min_size=1, max_size=5))
def test_flow_path_allowed_stops_at_the_first_denied_hop(chain):
    contexts = [SecurityContext.of(s, i) for s, i in chain]
    want = (True, None)
    for hop in range(len(chain) - 1):
        if not _oracle(*chain[hop], *chain[hop + 1]).allowed:
            want = (False, hop)
            break
    assert flow_path_allowed(contexts) == want


@settings(max_examples=200, deadline=None)
@given(orders, pairs)
def test_private_vocabulary_masks_agree_with_oracle(order, sets):
    vocab = TagInterner()
    vocab.mask_of(order)
    masks = [vocab.mask_of(names) for names in sets]
    _assert_agrees(flow_decision_masks(*masks, interner=vocab), _oracle(*sets))


@settings(max_examples=200, deadline=None)
@given(orders, orders, st.integers(0, len(POOL)), st.integers(0, len(POOL)),
       pairs)
def test_translated_masks_agree_with_oracle(
    peer_order, local_order, peer_known, local_known, sets
):
    src_s, src_i, dst_s, dst_i = sets
    peer, local = TagInterner(), TagInterner()
    local.mask_of(local_order[:local_known])
    translator = MaskTranslator(local)
    # The translator learns the peer's table in two steps, as a wire
    # peer's table grows after the handshake.
    peer.mask_of(peer_order[:peer_known])
    translator.extend(peer.export_table())
    peer.mask_of(peer_order)
    translator.extend(peer.export_table(start=translator.version))
    decision = flow_decision_masks(
        translator.to_local_mask(peer.mask_of(src_s)),
        translator.to_local_mask(peer.mask_of(src_i)),
        local.mask_of(dst_s),
        local.mask_of(dst_i),
        interner=local,
    )
    _assert_agrees(decision, _oracle(*sets))
