"""Discrete-event simulation substrate.

The paper's IoT is "long-lived, yet highly dynamic" (§9.3); exercising
the middleware requires a clock, scheduled events, and reproducible
randomness.  Everything time-dependent in the library (network latency,
sensor sampling, policy reactions) runs over this simulator so that
tests and benchmarks are deterministic.
"""

from repro.sim.clock import Clock, ManualClock
from repro.sim.events import EventQueue, ScheduledEvent, Simulator

__all__ = [
    "Clock",
    "ManualClock",
    "EventQueue",
    "ScheduledEvent",
    "Simulator",
]
