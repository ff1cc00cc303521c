"""The benchmark's own span tracer (used only by ``--trace 1`` runs).

The tracer wraps the public entry points of each layer of ``repro`` —
class attributes are replaced by timing wrappers before the deployment
is built, and callbacks the program registers at build time (event
callbacks via ``EventQueue.push``/``push_bucket``, network receivers
via ``Network.add_host``/``set_receiver``, substrate handlers via
``MessagingSubstrate.register``, tick hooks via ``Clock.on_advance``)
are wrapped at registration.  Nothing inside ``src/`` changes.

Each span records its name, start, end and parent (the span open when
it started).  Spans live in flat in-memory arrays and are written out
once, at the end (:meth:`Tracer.write`).  A span's *self time* is its
duration minus the time its child spans cover.

An entry point that no longer exists is recorded in :attr:`Tracer.absent`
and skipped; the metrics derived from it then read 0 and the report
lists it, so deleting code never crashes the benchmark.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from array import array
from collections import Counter
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

#: (module, class, attribute, span name) of every wrapped method.
METHODS: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.deploy.builder", "Deployment", "build", "deploy.build"),
    ("repro.deploy.builder", "Deployment", "converge", "deploy.converge"),
    ("repro.deploy.builder", "Deployment", "verify", "verify.deploy"),
    ("repro.sim.events", "Simulator", "run_for", "sim.run_for"),
    ("repro.net.network", "Network", "send", "net.send"),
    ("repro.middleware.substrate", "MessagingSubstrate", "send", "substrate.send"),
    ("repro.middleware.substrate", "MessagingSubstrate", "send_batch",
     "substrate.send_batch"),
    ("repro.middleware.bus", "MessageBus", "publish", "bus.publish"),
    ("repro.middleware.bus", "MessageBus", "route", "bus.route"),
    ("repro.middleware.component", "Component", "deliver", "app.deliver"),
    ("repro.ifc.decisions", "DecisionPlane", "evaluate", "decision.evaluate"),
    ("repro.ifc.decisions", "DecisionPlane", "check", "decision.evaluate"),
    ("repro.ifc.decisions", "DecisionPlane", "allows", "decision.evaluate"),
    ("repro.ifc.wire", "WireCodec", "encode_masks", "wire.encode"),
    ("repro.ifc.wire", "WireCodec", "decode_context", "wire.decode"),
    ("repro.ifc.wire", "TagBlock", "compress", "gossip.compress"),
    ("repro.audit.spine", "AuditSpine", "emit", "spine.emit"),
    ("repro.audit.spine", "AuditSpine", "drain", "spine.drain"),
    ("repro.audit.spine", "AuditSpine", "checkpoint", "spine.checkpoint"),
    ("repro.audit.spine", "AuditSpine", "query", "query.spine"),
    ("repro.audit.spine", "AuditSpine", "verify", "verify.spine"),
    ("repro.audit.log", "AuditLog", "append", "log.append"),
    ("repro.audit.log", "AuditLog", "flush", "log.flush"),
    ("repro.audit.log", "AuditLog", "verify", "verify.log"),
    ("repro.audit.storage", "SegmentStore", "seal_prefix", "storage.seal"),
    ("repro.audit.storage", "SealedSegment", "demote", "storage.demote"),
    ("repro.audit.storage", "SealedSegment", "records", "storage.records"),
    ("repro.audit.query", "AuditQuery", "query", "query.query"),
    ("repro.audit.distributed", "FederationPinboard", "verify", "verify.pinboard"),
    ("repro.federation.gossip", "MeshNode", "receive", "gossip.receive"),
    ("repro.federation.gossip", "MeshNode", "make_digest", "gossip.digest"),
    ("repro.policy.engine", "PolicyEngine", "handle_event", "policy.handle_event"),
    ("repro.middleware.reconfig", "Reconfigurator", "apply", "reconfig.apply"),
    ("repro.apps.home_monitoring", "HomeMonitoringSystem", "handle_alerts",
     "app.handle_alerts"),
)

#: Event-label prefixes → span names for wrapped event callbacks.
EVENT_LABELS: Tuple[Tuple[str, str], ...] = (
    ("net:batch:", "net.flush"),
    ("net:", "net.deliver"),
    ("sensor:", "app.sensor"),
    ("gen:", "gen.sample"),
)

#: Span-name prefix → layer.  Names outside this table are unattributed.
LAYERS = ("deploy", "sim", "net", "substrate", "bus", "app", "decision",
          "wire", "spine", "log", "storage", "query", "verify", "gossip",
          "policy", "reconfig", "gen")


def _event_span(label: str) -> str:
    for prefix, name in EVENT_LABELS:
        if label.startswith(prefix):
            return name
    if label.endswith(":round"):
        return "gossip.round"
    return "event.other"


def _receiver_span(receiver) -> str:
    owner = type(getattr(receiver, "__self__", None)).__name__
    if owner == "MessagingSubstrate":
        return "substrate.receive"
    if owner == "MeshNode":
        return "gossip.receive"
    return "net.receiver"


class Tracer:
    """Span recorder over monkey-patched layer entry points.

    Single-threaded by design: the benchmark drives the program from one
    thread, so one span stack suffices.
    """

    def __init__(self) -> None:
        self.names: List[str] = []
        self._ids: Dict[str, int] = {}
        self.name_ids = array("H")
        self.parents = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack: List[int] = [-1]
        self._undo: List[Tuple[object, str, object]] = []
        #: Entry points that could not be found (reported, not fatal).
        self.absent: List[str] = []
        #: Side counters gathered at the layer boundaries.
        self.counters: Counter = Counter()
        #: Simulated delivery delays (``delivered_at - sent_at``) of data
        #: datagrams, in seconds — simulated time, not CPU time.
        self.sim_delays: List[float] = []

    # -- span recording ----------------------------------------------------

    def name_id(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = self._ids[name] = len(self.names)
            self.names.append(name)
        return ident

    def wrap(
        self,
        fn: Callable,
        name: str,
        enter: Optional[Callable] = None,
        leave: Optional[Callable] = None,
    ) -> Callable:
        """``fn`` wrapped in a span called ``name``.  ``enter(args)`` and
        ``leave(result)`` feed side counters at the same boundary."""
        ident = self.name_id(name)
        ids, parents, starts, ends = (
            self.name_ids, self.parents, self.starts, self.ends
        )
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            idx = len(starts)
            ids.append(ident)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            if enter is not None:
                enter(args)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if leave is not None:
                leave(result)
            return result

        traced.__wrapped__ = fn
        return traced

    def mark(self) -> int:
        """The index the next span will get (window boundaries)."""
        return len(self.starts)

    # -- installation ------------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, inspect.getattr_static(owner, attr)))
        setattr(owner, attr, replacement)

    def _resolve(self, module: str, cls: str, attr: str):
        try:
            owner = getattr(importlib.import_module(module), cls)
            inspect.getattr_static(owner, attr)
        except (ImportError, AttributeError):
            self.absent.append(f"{module}.{cls}.{attr}")
            return None
        return owner

    def install(self) -> "Tracer":
        """Patch every entry point.  Call before building anything."""
        counters = self.counters
        hooks = {
            "bus.route": (
                lambda args: counters.update(
                    {"bus.channels_scanned": len(args[0].channels)}
                ),
                None,
            ),
            "spine.drain": (
                None,
                lambda result: counters.update(
                    {"spine.drained": result or 0}
                ),
            ),
        }
        for module, cls, attr, name in METHODS:
            owner = self._resolve(module, cls, attr)
            if owner is None:
                continue
            static = inspect.getattr_static(owner, attr)
            enter, leave = hooks.get(name, (None, None))
            if isinstance(static, staticmethod):
                wrapped = staticmethod(
                    self.wrap(static.__func__, name, enter, leave)
                )
            else:
                wrapped = self.wrap(static, name, enter, leave)
            self._patch(owner, attr, wrapped)
        self._install_registration_hooks()
        return self

    def _install_registration_hooks(self) -> None:
        tracer = self
        delays = self.sim_delays
        events = self._resolve("repro.sim.events", "EventQueue", "push")
        if events is not None:
            for attr in ("push", "push_bucket"):
                original = inspect.getattr_static(events, attr)

                def push(queue, time_, callback, label="", _orig=original):
                    return _orig(
                        queue, time_,
                        tracer.wrap(callback, _event_span(label)), label,
                    )

                self._patch(events, attr, push)

        clock = self._resolve("repro.sim.clock", "Clock", "on_advance")
        if clock is not None:
            original_on_advance = inspect.getattr_static(clock, "on_advance")

            def on_advance(clk, hook):
                return original_on_advance(
                    clk, tracer.wrap(hook, "spine.tick")
                )

            self._patch(clock, "on_advance", on_advance)

        def note_delay(args) -> None:
            datagram = args[0]
            if datagram.kind == "data" and datagram.delivered_at is not None:
                delays.append(datagram.delivered_at - datagram.sent_at)

        network = self._resolve("repro.net.network", "Network", "add_host")
        if network is not None:
            original_add = inspect.getattr_static(network, "add_host")
            original_set = inspect.getattr_static(network, "set_receiver")

            def add_host(net, name, receiver=None):
                if receiver is not None:
                    receiver = tracer.wrap(
                        receiver, _receiver_span(receiver), enter=note_delay
                    )
                return original_add(net, name, receiver)

            def set_receiver(net, name, receiver):
                return original_set(
                    net, name,
                    tracer.wrap(
                        receiver, _receiver_span(receiver), enter=note_delay
                    ),
                )

            self._patch(network, "add_host", add_host)
            self._patch(network, "set_receiver", set_receiver)

        substrate = self._resolve(
            "repro.middleware.substrate", "MessagingSubstrate", "register"
        )
        if substrate is not None:
            original_register = inspect.getattr_static(substrate, "register")

            def register(sub, process, handler):
                return original_register(
                    sub, process, tracer.wrap(handler, "app.deliver")
                )

            self._patch(substrate, "register", register)

    def uninstall(self) -> None:
        """Restore every patched attribute (reverse order)."""
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def _arrays(self):
        # Copies, so no buffer export pins the still-growing arrays.
        return (
            np.array(self.starts, dtype=np.float64),
            np.array(self.ends, dtype=np.float64),
            np.array(self.parents, dtype=np.int64),
            np.array(self.name_ids, dtype=np.int64),
        )

    def summary(self, first: int, last: int) -> Dict[str, Dict[str, float]]:
        """Per span name over spans ``[first, last)``: calls, total
        (inclusive) seconds and self seconds."""
        starts, ends, parents, ids = self._arrays()
        durations = ends - starts
        child = np.zeros(len(starts))
        has_parent = parents >= 0
        np.add.at(child, parents[has_parent], durations[has_parent])
        own = durations - child
        window = slice(first, last)
        names = ids[window]
        out: Dict[str, Dict[str, float]] = {}
        count = np.bincount(names, minlength=len(self.names))
        total = np.bincount(names, weights=durations[window],
                            minlength=len(self.names))
        selfs = np.bincount(names, weights=own[window],
                            minlength=len(self.names))
        for ident, name in enumerate(self.names):
            if count[ident]:
                out[name] = {
                    "calls": int(count[ident]),
                    "total_s": float(total[ident]),
                    "self_s": float(selfs[ident]),
                }
        return out

    def write(self, path: Path) -> None:
        """Write every span (binary columns) plus a JSON name table."""
        path.parent.mkdir(parents=True, exist_ok=True)
        starts, ends, parents, ids = self._arrays()
        np.savez(path, starts=starts, ends=ends, parents=parents, names=ids)
        path.with_suffix(".names.json").write_text(
            json.dumps({"names": self.names, "absent": self.absent})
        )


def layer_of(name: str) -> Optional[str]:
    """The layer a span name belongs to (None: unattributed)."""
    layer = name.split(".", 1)[0]
    return layer if layer in LAYERS else None
