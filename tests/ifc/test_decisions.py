"""The decision plane: direct evaluation and label changes.

The critical property: a declassification or endorsement must change the
decision *immediately* — no stale grant (or stale denial) may outlive a
label change.
"""

import random

import pytest

from repro.errors import FlowError
from repro.ifc import (
    DecisionPlane,
    Label,
    SecurityContext,
    flow_decision,
)
from repro.ifc.tags import as_tags


class TestDecisionPlane:
    def test_plane_decision_matches_direct_evaluation(self):
        plane = DecisionPlane()
        a = SecurityContext.of(["s"], ["i1", "i2"])
        b = SecurityContext.of([], ["i1"])
        direct = flow_decision(a, b)
        via_plane = plane.evaluate(a, b)
        assert via_plane.allowed == direct.allowed
        assert via_plane.secrecy_ok == direct.secrecy_ok
        assert via_plane.integrity_ok == direct.integrity_ok
        assert via_plane.missing_secrecy == direct.missing_secrecy

    def test_direction_matters(self):
        plane = DecisionPlane()
        low = SecurityContext.of([], [])
        high = SecurityContext.of(["secret"], [])
        assert plane.evaluate(low, high).allowed
        assert not plane.evaluate(high, low).allowed

    def test_check_raises_on_denial_with_reason(self):
        plane = DecisionPlane()
        high = SecurityContext.of(["secret"], [])
        low = SecurityContext.of([], [])
        with pytest.raises(FlowError) as raised:
            plane.check(high, low, "producer", "sink")
        assert raised.value.reason == flow_decision(high, low).reason


class TestInvalidationOnLabelChange:
    """Declassification/endorsement must take effect immediately."""

    def test_declassification_unblocks_flow_immediately(self):
        plane = DecisionPlane()
        source = SecurityContext.of(["medical"], [])
        sink = SecurityContext.of([], [])
        assert not plane.evaluate(source, sink).allowed
        declassified = source.remove_secrecy("medical")
        assert plane.evaluate(declassified, sink).allowed

    def test_reclassification_blocks_flow_immediately(self):
        """The dangerous direction: an earlier grant must not outlive a
        label change that makes the flow illegal."""
        plane = DecisionPlane()
        source = SecurityContext.of([], [])
        sink = SecurityContext.of([], [])
        for __ in range(10):
            assert plane.evaluate(source, sink).allowed
        raised = source.add_secrecy("medical")
        assert not plane.evaluate(raised, sink).allowed

    def test_endorsement_change_is_immediate(self):
        plane = DecisionPlane()
        source = SecurityContext.of([], [])
        sink = SecurityContext.of([], ["endorsed"])
        assert not plane.evaluate(source, sink).allowed
        endorsed = source.add_integrity("endorsed")
        assert plane.evaluate(endorsed, sink).allowed
        # and dropping the endorsement re-denies at once
        dropped = endorsed.remove_integrity("endorsed")
        assert not plane.evaluate(dropped, sink).allowed

    def test_distinct_contexts_with_equal_labels_decide_alike(self):
        plane = DecisionPlane()
        a1 = SecurityContext.of(["s"], ["i"])
        a2 = SecurityContext.of(["s"], ["i"])  # equal value, new object
        b = SecurityContext.of(["s"], [])
        assert plane.evaluate(a1, b) is plane.evaluate(a2, b)
        assert plane.evaluate(b, a1) == plane.evaluate(b, a2)


class TestBitsetLabelMatchesFrozensetSemantics:
    """Property test: the bitset Label agrees with plain frozenset
    algebra on random tag sets (the pre-refactor semantics)."""

    def test_random_tag_sets(self):
        rng = random.Random(20160627)
        universe = [f"ns{i % 7}:tag{i}" for i in range(40)]
        for __ in range(300):
            xs = frozenset(rng.sample(universe, rng.randint(0, 12)))
            ys = frozenset(rng.sample(universe, rng.randint(0, 12)))
            lx, ly = Label.of(*xs), Label.of(*ys)
            sx, sy = as_tags(xs), as_tags(ys)
            assert (lx <= ly) == (sx <= sy)
            assert (lx < ly) == (sx < sy)
            assert (lx >= ly) == (sx >= sy)
            assert (lx > ly) == (sx > sy)
            assert (lx == ly) == (sx == sy)
            assert (lx | ly).tags == (sx | sy)
            assert (lx & ly).tags == (sx & sy)
            assert (lx - ly).tags == (sx - sy)
            assert len(lx) == len(sx)
            assert set(lx) == set(sx)
            for probe in rng.sample(universe, 3):
                assert (probe in lx) == (as_tags([probe]) <= sx)

    def test_hash_consistency_with_equality(self):
        rng = random.Random(7)
        universe = [f"t{i}" for i in range(20)]
        for __ in range(100):
            xs = rng.sample(universe, rng.randint(0, 8))
            a = Label.of(*xs)
            b = Label.of(*reversed(xs))
            assert a == b
            assert hash(a) == hash(b)

    def test_empty_label_is_singleton(self):
        assert Label.empty() is Label.empty()
        assert Label.of() is Label.empty()
        assert (Label.of("x") - Label.of("x")) is Label.empty()

    def test_remove_of_unknown_tag_does_not_grow_interner(self):
        from repro.ifc import global_interner

        label = Label.of("known-tag")
        before = len(global_interner())
        assert label.remove("never-seen-tag-xyzzy") == label
        assert "never-seen-tag-xyzzy" not in label
        assert len(global_interner()) == before
