"""The three benchmark workloads, driven through the public façade.

Every workload is one process on one thread, closed-loop by rounds:
round r+1 starts when round r's ``run`` returns.  Inside a round the
sensors fire on seeded phases in *simulated* time, so their schedule
does not slow down when the program does.  Inputs (phases, readings,
the clinic cohort, which patient a query asks about) come from the seed
only.

* ``ward_stream`` — the cross-machine enforcing path: 9 machines (a
  hospital plus 8 bedside nodes) with mesh, coalescing transport and
  tick-drained spines; 256 patients' vitals go to a per-patient
  analyser (cleared for ``location``) and to ward-stats (not cleared,
  so the ``bed`` attribute is quenched); every 10th patient has a
  third-party device whose unendorsed readings the analyser denies.
  Even beds ``send`` each reading at its own phase; odd beds are hubs
  that ``send_batch`` the round's readings.  Round = 1 sim-second.
* ``clinic_bus`` — ``HomeMonitoringSystem`` as shipped (Figs. 4-7):
  bus, channels, endorsement, declassification, ECA policy and the
  detached ``AuditLog``.  Round = one 5-minute sampling period.
* ``vitals_history`` — the same vitals traffic on 3 machines, with the
  hospital spine tiered (``seal_every=1024, hot_segments=4``) and
  prefilled with 4 sim-hours during setup.  Round = 1 sim-minute of
  traffic plus 4 "last hour of vitals for patient X" dashboard queries;
  every 20th round one forensic query reads a past hour from the cold
  tier.

vitals_history also runs an incremental ``deploy.verify()`` every
:data:`VERIFY_EVERY` rounds (on the untiered spines and the detached log
of the other two workloads, "incremental" re-hashes the whole chain, so
it would measure run length, not the verify plane).  Every run ends
with deep ``deploy.verify(mode="deep")`` calls.  Correctness oracles
run outside the timed regions (:meth:`Workload.oracles`).
"""

from __future__ import annotations

import dataclasses
import random
import shutil
import tempfile
import time
from collections import Counter
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.apps.home_monitoring import HomeMonitoringSystem
from repro.audit.query import AuditQuery
from repro.audit.records import RecordKind, record_matches
from repro.deploy import Deployment
from repro.ifc.labels import SecurityContext
from repro.ifc.tags import as_tags
from repro.iot.workloads import patient_cohort
from repro.middleware.message import AttributeSpec, Message, MessageType

#: Incremental ``deploy.verify()`` cadence, in rounds (vitals_history).
VERIFY_EVERY = 10
#: Forensic (cold-tier) query cadence, in rounds (vitals_history).
FORENSIC_EVERY = 20
#: Dashboard queries per vitals_history round.
DASHBOARDS_PER_ROUND = 4

#: SNIPPETS.md Snippet 1's bedside-vitals record, plus the ``bed`` the
#: reading came from — a location, guarded by a message-level tag.
VITALS = MessageType("vitals", [
    AttributeSpec("event_timestamp", float),
    AttributeSpec("sensor_id", str),
    AttributeSpec("heart_rate", float),
    AttributeSpec("body_temperature", float),
    AttributeSpec("spO2", float),
    AttributeSpec("battery_level", float),
    AttributeSpec("bed", str, extra_secrecy=frozenset(as_tags(["location"]))),
])


def _ignore(source: str, message: Message) -> None:
    """Handler of send-only processes (they never receive)."""


@dataclasses.dataclass
class Check:
    """Outcome of a workload's correctness oracles."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = dataclasses.field(default_factory=list)

    def expect(self, what: str, got, want) -> None:
        """Count one checked operation; a mismatch fails it."""
        self._note(what, 1, int(got != want), f"got {got!r}, want {want!r}")

    def tally(self, what: str, attempted: int, failed: int) -> None:
        """Count ``attempted`` operations of which ``failed`` went wrong."""
        self._note(what, attempted, failed, f"{failed} of {attempted} wrong")

    def _note(self, what: str, attempted: int, failed: int, why: str) -> None:
        self.attempted += attempted
        self.failed += failed
        if failed and len(self.problems) < 20:
            self.problems.append(f"{what}: {why}")


class Workload:
    """One workload: :meth:`setup`, then :meth:`run_round` per round."""

    name = ""

    def __init__(self, seed: int, rounds: int, scratch: Path, **sizes):
        """``sizes`` override the class-level size attributes (smaller
        deployments for the self-tests)."""
        for key, value in sizes.items():
            if not hasattr(type(self), key):
                raise TypeError(f"unknown size {key!r}")
            setattr(self, key, value)
        self.seed = seed
        self.rounds = rounds
        self.scratch = scratch
        self.check = Check()
        self.deploy: Optional[Deployment] = None
        #: Read latencies (seconds) by kind, filled by the workload.
        self.reads: Dict[str, List[float]] = {}
        #: Summed QueryStats fields over every query this run made.
        self.query_stats: Counter = Counter()

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self, r: int) -> None:
        raise NotImplementedError

    def between_rounds(self, r: int) -> None:
        """Operator reads after round ``r`` (timed by the workload)."""

    def outcomes(self) -> int:
        """Messages whose enforced outcome (delivered or denied) is done."""
        raise NotImplementedError

    def finish(self) -> None:
        """Stop the load and let in-flight work complete (untimed)."""

    def oracles(self) -> None:
        """Check every output against its predicted outcome (untimed)."""
        raise NotImplementedError

    def counts(self) -> Dict[str, int]:
        """Deterministic counts (the same seed must reproduce them)."""
        raise NotImplementedError

    def close(self) -> None:
        """Release what setup acquired (spill directories)."""

    def verify(self, mode: str = "incremental") -> bool:
        return self.deploy.verify(mode=mode).ok()

    def _query(self, kind_of_read: str, query: AuditQuery, **filters):
        """One timed audit query; its stats join the run totals."""
        start = time.perf_counter()
        records = query.query(**filters)
        self.reads.setdefault(kind_of_read, []).append(
            time.perf_counter() - start
        )
        stats = query.last_stats
        for field in dataclasses.fields(stats):
            self.query_stats[field.name] += getattr(stats, field.name)
        self.query_stats["queries"] += 1
        self.query_stats["hits"] += len(records)
        return records


class VitalsWard(Workload):
    """Bedside vitals over the messaging substrate (ward_stream and
    vitals_history share this deployment shape)."""

    #: Sizes: beds, patients per bed, sampling interval (sim-s), third-
    #: party device every n-th patient (0: none), gossip interval.
    beds = 8
    per_bed = 32
    interval = 1.0
    third_party_every = 10
    mesh_interval = 5.0
    #: Hospital spine tiering (0: untiered): records per sealed
    #: segment, and how many sealed segments stay hot.
    seal_every = 0
    hot_segments = 4

    def __init__(self, seed: int, rounds: int, scratch: Path, **sizes):
        super().__init__(seed, rounds, scratch, **sizes)
        self.spill_dir: Optional[Path] = None
        self.sent: List[Tuple[int, int]] = []
        self.got_analyser: List[int] = []
        self.got_stats: List[int] = []
        self.mismatches = 0
        self._cancels: List = []

    # -- setup -------------------------------------------------------------

    def setup(self) -> None:
        deploy = self.deploy = Deployment(
            seed=self.seed, mesh_interval=self.mesh_interval, name=self.name
        )
        hospital = deploy.node("hospital").with_mesh().with_transport()
        if self.seal_every:
            self.spill_dir = Path(
                tempfile.mkdtemp(prefix="spill-", dir=self.scratch)
            )
            hospital.with_spill(
                self.spill_dir,
                hot_segments=self.hot_segments,
                seal_every=self.seal_every,
            )
        beds = [
            deploy.node(f"bed-{b}").with_mesh().with_transport()
            for b in range(self.beds)
        ]
        deploy.build()

        count = self.beds * self.per_bed
        self.patients = [f"patient-{i:04d}" for i in range(count)]
        self.third_party = [
            bool(self.third_party_every) and i % self.third_party_every == 0
            for i in range(count)
        ]
        self.contexts = [
            SecurityContext.of(
                ["medical", p],
                [f"{p}-dev" if third else "hosp-dev", "consent"],
            )
            for p, third in zip(self.patients, self.third_party)
        ]
        self.context_of_sensor = {
            f"{p}-sensor": ctx for p, ctx in zip(self.patients, self.contexts)
        }
        self.hospital_sub = hospital.substrate
        for i, p in enumerate(self.patients):
            hospital.launch(
                f"{p}-analyser",
                SecurityContext.of(
                    ["medical", p, "location"], ["hosp-dev", "consent"]
                ),
                handler=self._analyser_handler(i),
            )
        hospital.launch(
            "ward-stats",
            SecurityContext.of(["medical", *self.patients], []),
            handler=self._stats_handler,
        )
        self.sensors = []
        self.bed_of: List[str] = []
        for i, p in enumerate(self.patients):
            node = beds[i // self.per_bed]
            self.sensors.append(
                (node.launch(f"{p}-sensor", self.contexts[i], handler=_ignore),
                 node.substrate)
            )
            self.bed_of.append(node.hostname)
        self.rngs = [random.Random(f"{self.seed}:{p}") for p in self.patients]
        deploy.converge()
        self._start_generators()

    def _start_generators(self) -> None:
        sim = self.deploy.sim
        start = sim.now()
        rng = random.Random(f"{self.seed}:phases")
        for b in range(self.beds):
            members = range(b * self.per_bed, (b + 1) * self.per_bed)
            if b % 2 == 0:
                fires = [self._sender(i) for i in members]
            else:
                fires = [self._hub(list(members))]
            for fire in fires:
                phase = rng.uniform(0.02, 0.98) * self.interval
                sim.schedule_at(
                    start + phase, self._armer(fire), label="gen:arm"
                )

    def _armer(self, fire):
        def arm() -> None:
            fire()
            self._cancels.append(
                self.deploy.sim.schedule_every(
                    self.interval, fire, label="gen:sample"
                )
            )
        return arm

    def _reading(self, i: int) -> Message:
        now = self.deploy.sim.now()
        rng = self.rngs[i]
        return Message(
            VITALS,
            {
                "event_timestamp": now,
                "sensor_id": f"{self.patients[i]}-sensor",
                "heart_rate": rng.gauss(75.0, 8.0),
                "body_temperature": rng.gauss(36.9, 0.3),
                "spO2": min(100.0, rng.gauss(97.0, 1.5)),
                "battery_level": 100.0 - (now % 86400.0) / 864.0,
                "bed": self.bed_of[i],
            },
            context=self.contexts[i],
            sent_at=now,
        )

    def _sender(self, i: int):
        process, substrate = self.sensors[i]
        analyser = f"{self.patients[i]}-analyser"
        hospital = self.hospital_sub
        sent = self.sent

        def fire() -> None:
            message = self._reading(i)
            substrate.send(process, hospital, analyser, message)
            substrate.send(process, hospital, "ward-stats", message)
            sent.append((message.msg_id, i))
        return fire

    def _hub(self, members: List[int]):
        hospital = self.hospital_sub
        plan = [
            (i, *self.sensors[i],
             [(hospital, f"{self.patients[i]}-analyser"),
              (hospital, "ward-stats")])
            for i in members
        ]
        sent = self.sent

        def fire() -> None:
            for i, process, substrate, sinks in plan:
                message = self._reading(i)
                substrate.send_batch(process, sinks, [message])
                sent.append((message.msg_id, i))
        return fire

    def _analyser_handler(self, i: int):
        expected = self.contexts[i]
        got = self.got_analyser

        def handle(source: str, message: Message) -> None:
            got.append(message.msg_id)
            if "bed" not in message.values or message.context != expected:
                self.mismatches += 1
        return handle

    def _stats_handler(self, source: str, message: Message) -> None:
        self.got_stats.append(message.msg_id)
        expected = self.context_of_sensor.get(message.values.get("sensor_id"))
        if "bed" in message.values or message.context != expected:
            self.mismatches += 1

    # -- rounds ------------------------------------------------------------

    def run_round(self, r: int) -> None:
        self.deploy.run(seconds=self.interval)

    def outcomes(self) -> int:
        total = 0
        for node in self.deploy.nodes():
            stats = node.substrate.stats
            total += stats.delivered + stats.denied_remote + stats.denied_local
        return total

    def finish(self) -> None:
        for cancel in self._cancels:
            cancel()
        self._cancels.clear()
        # In-flight datagrams land within one network latency.
        self.deploy.run(seconds=1.0)

    # -- oracles -----------------------------------------------------------

    def oracles(self) -> None:
        check = self.check
        analyser = Counter(self.got_analyser)
        stats = Counter(self.got_stats)
        wrong = 0
        denied = 0
        for msg_id, i in self.sent:
            want = 0 if self.third_party[i] else 1
            denied += 1 - want
            wrong += analyser.get(msg_id, 0) != want
            wrong += stats.get(msg_id, 0) != 1
        # One operation per (message, sink) transfer.
        check.tally("transfer outcomes", 2 * len(self.sent), wrong)
        check.expect("delivered contexts/attributes wrong", self.mismatches, 0)
        totals = self.deploy.stats()
        substrate = totals["substrate"]
        check.expect("analyser denials", substrate["denied_remote"], denied)
        check.expect("send-side denials", substrate["denied_local"], 0)
        check.expect(
            "dropped envelopes",
            substrate["dropped_unroutable"] + substrate["dropped_undecodable"],
            0,
        )
        check.expect("network drops", totals["network"]["dropped"], 0)

    def counts(self) -> Dict[str, int]:
        totals = self.deploy.stats()
        return {
            "sent": len(self.sent),
            "deliveries": totals["substrate"]["delivered"],
            "denials": totals["substrate"]["denied_remote"],
            "quenches": totals["substrate"]["quenched_attributes"],
            "audit_records": totals["audit"]["records"],
            "query_hits": self.query_stats["hits"],
        }

    def close(self) -> None:
        if self.spill_dir is not None:
            shutil.rmtree(self.spill_dir, ignore_errors=True)
            self.spill_dir = None


class WardStream(VitalsWard):
    name = "ward_stream"


class VitalsHistory(VitalsWard):
    name = "vitals_history"
    beds = 2
    per_bed = 16
    interval = 60.0
    third_party_every = 0
    mesh_interval = 60.0
    seal_every = 1024
    #: Sim-hours of traffic written during setup.
    prefill_hours = 4.0

    def setup(self) -> None:
        super().setup()
        self.origin = self.deploy.sim.now()
        self.deploy.run(seconds=self.prefill_hours * 3600.0)
        self.spine = self.deploy.node("hospital").machine.audit
        self.query = AuditQuery(self.spine)
        self.query_rng = random.Random(f"{self.seed}:queries")
        self._flat: List[Tuple[Dict, List]] = []

    def run_round(self, r: int) -> None:
        self.deploy.run(seconds=self.interval)
        now = self.deploy.sim.now()
        for _ in range(DASHBOARDS_PER_ROUND):
            patient = self.query_rng.choice(self.patients)
            filters = {
                "kind": RecordKind.FLOW_ALLOWED,
                "subject": f"{patient}-analyser",
                "since": now - 3600.0,
            }
            records = self._query("dashboard", self.query, **filters)
            self.check.expect("dashboard hits", len(records), 60)
            if not self._flat:
                # Later records are all newer than `now`, so the same
                # filter bounded at `now` can be re-run after the run.
                self._flat.append(({**filters, "until": now}, records))

    def between_rounds(self, r: int) -> None:
        if (r + 1) % VERIFY_EVERY == 0:
            start = time.perf_counter()
            ok = self.verify()
            self.reads.setdefault("verify", []).append(
                time.perf_counter() - start
            )
            self.check.expect("incremental verify", ok, True)
        if (r + 1) % FORENSIC_EVERY:
            return
        # A past hour that lies wholly in the cold tier: the hot tier
        # holds ~80 sim-minutes, so stay two hours back from now.
        cold_hours = int((self.deploy.sim.now() - self.origin) // 3600.0) - 2
        hour = self.query_rng.randrange(max(1, cold_hours))
        since = self.origin + 3600.0 * hour
        filters = {
            "kind": RecordKind.FLOW_ALLOWED,
            "subject": f"{self.query_rng.choice(self.patients)}-analyser",
            "since": since,
            "until": since + 3600.0,
        }
        records = self._query("forensic", self.query, **filters)
        self.check.expect("forensic hits", len(records), 60)
        self.check.expect(
            "forensic reads the cold tier", self.query.last_stats.cold_loads > 0,
            True,
        )
        if len(self._flat) < 2:
            self._flat.append((filters, records))

    def oracles(self) -> None:
        super().oracles()
        # The first dashboard and first forensic answer must equal a
        # flat record_matches scan of the whole chain.
        for filters, records in self._flat:
            flat = [
                record.seq for record in self.spine
                if record_matches(record, **filters)
            ]
            self.check.expect(
                "query equals the flat filter",
                [record.seq for record in records], flat,
            )


class ClinicBus(Workload):
    """``HomeMonitoringSystem`` as shipped, on a bus-only domain."""

    name = "clinic_bus"
    patients = 96
    #: Sampling period (sim-s): one round.
    period = 300.0
    #: Share of patients with one emergency episode inside the run.
    emergency_fraction = 0.1

    def setup(self) -> None:
        horizon = self.rounds * self.period
        cohort = patient_cohort(
            self.patients, seed=self.seed, emergency_fraction=0.0,
            horizon=horizon,
        )
        # The seed picks who; how many patients have third-party devices
        # or an emergency, and when (evenly spread over the run), is
        # fixed, so the traffic and channel-list growth are comparable
        # across seeds.  Emergencies go to hospital-device patients with
        # a baseline high enough that the episode crosses the alert
        # threshold, so every run reconfigures the same number of times.
        rng = random.Random(f"{self.seed}:cohort")
        standard = set(
            rng.sample(range(self.patients), round(0.7 * self.patients))
        )
        cohort = [
            dataclasses.replace(p, device_standard=i in standard)
            for i, p in enumerate(cohort)
        ]
        candidates = [
            i for i in sorted(standard) if cohort[i].baseline_hr >= 72.0
        ]
        count = min(round(self.emergency_fraction * self.patients),
                    len(candidates))
        for slot, index in enumerate(rng.sample(candidates, count)):
            at = horizon * (0.1 + 0.7 * (slot + 0.5) / count)
            cohort[index] = dataclasses.replace(cohort[index], emergency_at=at)
        self.deploy = Deployment(seed=self.seed, name=self.name)
        self.system = HomeMonitoringSystem(
            self.deploy, cohort, sample_interval=self.period, seed=self.seed
        )

    def run_round(self, r: int) -> None:
        self.system.run(hours=self.period / 3600.0)
        if (r + 1) % round(3600.0 / self.period) == 0:
            self.system.stats_generator.publish_statistics()

    def outcomes(self) -> int:
        flows = self.deploy.world.total_flows()
        return flows["delivered"] + flows["denied"]

    def oracles(self) -> None:
        check = self.check
        bus = self.system.hospital.bus.stats
        check.tally(
            "bus sent = delivered + denied",
            bus.sent, abs(bus.sent - bus.delivered - bus.denied),
        )
        for name, patient in self.system.patients.items():
            check.expect(
                f"{name} analyser receipts",
                len(patient.analyser.received), patient.sensor.samples_taken,
            )
        check.expect(
            "ward-manager reports",
            len(self.system.ward_manager.received),
            self.system.stats_generator.reports_published,
        )

    def counts(self) -> Dict[str, int]:
        bus = self.system.hospital.bus.stats
        return {
            "deliveries": bus.delivered,
            "denials": bus.denied,
            "quenches": bus.quenched_attributes,
            "audit_records": len(self.system.hospital.audit),
            "channels": len(self.system.hospital.bus.channels),
            "emergencies": len(self.system.emergencies_detected),
        }


WORKLOADS = {
    cls.name: cls for cls in (WardStream, ClinicBus, VitalsHistory)
}
