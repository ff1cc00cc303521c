"""A sustained burst from one bound emitter against a small ring.

Emission is staged: records wait in a per-source ring until a drain.
When a burst fills the ring, the emitter drains inline rather than
dropping or reordering records, and the chains still verify.
"""

from repro.audit import AuditSpine, RecordKind
from repro.audit.spine import bind_source


class TestSpineConcurrent:
    def test_ring_overflow_forces_inline_drain(self):
        spine = AuditSpine(name="audit@tiny", ring_capacity=8)
        emitter = bind_source(spine, "bus.w0")
        for n in range(100):
            emitter.append(RecordKind.FLOW_ALLOWED, "w0", "sink", {"n": n})
        assert spine.stats_ring_overflows >= 1
        spine.drain()
        assert len(spine) == 100
        assert [r.detail["n"] for r in spine.segment("bus.w0").records()] == list(range(100))
        assert spine.verify()
