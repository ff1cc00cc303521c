"""The medical home-monitoring system of §7 (Figs. 4-7).

Patients discharged from hospital are monitored at home.  Each patient
has a dedicated hospital-side Data Analyser; hospital-issued devices
(like Ann's) carry the ``hosp-dev`` integrity tag, third-party devices
(like Zeb's) carry ``<name>-dev`` and must pass through the Device Input
Sanitiser (an endorser, Fig. 5).  A Statistics Generator reads all
patients' standardised data, anonymises, and *declassifies* to
``S={medical, stats} I={anon}`` for the Ward Manager (Fig. 6).  On a
detected emergency, the hospital policy engine reconfigures the system:
alerting staff, wiring the analyser's alerts to the emergency doctor,
and actuating the home sensors to sample faster (Fig. 7).
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.deploy import Deployment
from repro.ifc.labels import SecurityContext
from repro.ifc.privileges import PrivilegeSet
from repro.iot.device import DeviceClass, DeviceProfile
from repro.iot.domain import AdministrativeDomain
from repro.iot.things import ACTUATION, ALERT, READING, Actuator, App, Sensor, Thing
from repro.iot.workloads import PatientProfile
from repro.iot.world import IoTWorld
from repro.middleware.component import EndpointKind
from repro.middleware.message import Message
from repro.middleware.reconfig import Reconfigurator
from repro.policy.rules import (
    CommandAction,
    ContextAction,
    Event,
    NotifyAction,
    Rule,
)

#: Heart-rate threshold above which the analyser raises an emergency.
EMERGENCY_THRESHOLD = 140.0

#: Sampling intervals (seconds) in normal vs emergency operation (Fig. 7).
NORMAL_INTERVAL = 300.0
EMERGENCY_INTERVAL = 30.0

#: The emergency-services alert text; :meth:`HomeMonitoringSystem.handle_alerts`
#: reads the patient name back out of it.
ALERT_PREFIX = "Emergency for "
ALERT_TEMPLATE = ALERT_PREFIX + "{patient}: heart rate {heart_rate}"


def patient_context(name: str, standard_device: bool) -> SecurityContext:
    """The security context of a patient's home sensors (Fig. 4)."""
    device_tag = "hosp-dev" if standard_device else f"{name}-dev"
    return SecurityContext.of(
        secrecy=["medical", name],
        integrity=[device_tag, "consent"],
    )


def analyser_context(name: str) -> SecurityContext:
    """The context of a patient's hospital Data Analyser (Fig. 4)."""
    return SecurityContext.of(
        secrecy=["medical", name],
        integrity=["hosp-dev", "consent"],
    )


class InputSanitiser(Thing):
    """The Device Input Sanitiser of Fig. 5 — an endorser component.

    It "sets up its security context to read [the patient's]
    non-standard data ... changes its security context to output data in
    standard format to the Data Analyser."  It therefore holds the
    privileges to swap ``<name>-dev`` for ``hosp-dev`` in its integrity
    label, and flips between its input and output contexts per message
    (standing channels on both sides suspend/resume accordingly).
    """

    def __init__(self, patient: str, domain: AdministrativeDomain):
        device_tag = f"{patient}-dev"
        input_ctx = SecurityContext.of(
            ["medical", patient], [device_tag, "consent"]
        )
        output_ctx = SecurityContext.of(
            ["medical", patient], ["hosp-dev", "consent"]
        )
        privileges = PrivilegeSet.of(
            add_integrity=["hosp-dev", device_tag],
            remove_integrity=["hosp-dev", device_tag],
        )
        super().__init__(
            f"{patient}-sanitiser",
            context=input_ctx,
            privileges=privileges,
            profile=DeviceProfile(DeviceClass.SERVER),
            owner=domain.name,
        )
        self.input_ctx = input_ctx
        self.output_ctx = output_ctx
        self._domain = domain
        self.sanitised = 0
        self.add_endpoint("in", EndpointKind.SINK, READING, handler=self._on_reading)
        self.add_endpoint("out", EndpointKind.SOURCE, READING)

    def _on_reading(self, component, endpoint, message: Message) -> None:
        # Convert to hospital-standard format (here: ensure unit is bpm).
        values = dict(message.values)
        values.setdefault("unit", "bpm")
        values["unit"] = values["unit"] or "bpm"
        self.sanitised += 1
        # Privileged context switch to the output domain (Fig. 5), then
        # emit; the outbound message inherits the endorsed context.
        self.change_context(self.output_ctx)
        outgoing = self.make_message("out", **values)
        self._domain.bus.route(self, "out", outgoing)
        self.change_context(self.input_ctx)


class StatisticsGenerator(Thing):
    """The Hospital Home-Monitoring Statistics Generator of Fig. 6.

    Labelled to read *all* patients' standardised data; on demand it
    anonymises (aggregate statistics over a window), then changes its
    security context to ``S={medical, stats} I={anon}`` before emitting —
    a declassification the audit log will show.  "The Ward Manager cannot
    read individual patient data."
    """

    def __init__(
        self,
        patients: List[str],
        domain: AdministrativeDomain,
        dp_epsilon: Optional[float] = None,
        dp_budget: float = 10.0,
        seed: int = 0,
    ):
        read_ctx = SecurityContext.of(
            ["medical", *patients], ["hosp-dev", "consent"]
        )
        publish_ctx = SecurityContext.of(["medical", "stats"], ["anon"])
        privileges = PrivilegeSet.of(
            add_secrecy=["stats", *patients],
            remove_secrecy=[*patients, "stats"],
            add_integrity=["anon", "hosp-dev", "consent"],
            remove_integrity=["hosp-dev", "consent", "anon"],
        )
        super().__init__(
            "stats-generator",
            context=read_ctx,
            privileges=privileges,
            profile=DeviceProfile(DeviceClass.SERVER),
            owner=domain.name,
        )
        self.read_ctx = read_ctx
        self.publish_ctx = publish_ctx
        self._domain = domain
        self._window: List[float] = []
        self.reports_published = 0
        # Optional §4 differential privacy: the "approved anonymisation
        # algorithm" becomes an ε-DP mean with a budget accountant.
        self._dp: Optional["PrivateAggregator"] = None
        if dp_epsilon is not None:
            from repro.crypto.privacy import PrivacyBudget, PrivateAggregator

            self._dp = PrivateAggregator(PrivacyBudget(dp_budget), seed=seed)
            self._dp_epsilon = dp_epsilon
        self.add_endpoint("in", EndpointKind.SINK, READING, handler=self._on_reading)
        self.add_endpoint("report", EndpointKind.SOURCE, READING)

    def _on_reading(self, component, endpoint, message: Message) -> None:
        value = message.values.get("value")
        if isinstance(value, float):
            self._window.append(value)

    def publish_statistics(self) -> Optional[float]:
        """Anonymise the window and publish the aggregate (Fig. 6).

        Returns the published mean, or None when the window is empty.
        The declassification (context change) happens *before* output —
        the ordering the audit log must demonstrate.
        """
        if not self._window:
            return None
        if self._dp is not None:
            mean_value = float(
                self._dp.mean(self._window, self._dp_epsilon,
                              lower=20.0, upper=250.0)
            )
        else:
            mean_value = float(statistics.fmean(self._window))
        self._window.clear()
        self.change_context(self.publish_ctx)
        report = self.make_message("report", value=mean_value, unit="bpm-mean")
        self._domain.bus.route(self, "report", report)
        self.reports_published += 1
        self.change_context(self.read_ctx)
        return mean_value


@dataclass
class PatientDeployment:
    """The per-patient pieces of the system."""

    profile: PatientProfile
    sensor: Sensor
    analyser: App
    sanitiser: Optional[InputSanitiser] = None


class HomeMonitoringSystem:
    """The full Fig. 7 deployment, built over an :class:`IoTWorld`.

    Construction wires: per-patient sensor → (sanitiser →) analyser
    channels, the statistics path into the ward manager, the emergency
    doctor standing by (unwired until an emergency), and the hospital
    policy engine's emergency rules.
    """

    def __init__(
        self,
        world: IoTWorld,
        patients: List[PatientProfile],
        sample_interval: float = NORMAL_INTERVAL,
        seed: int = 0,
        dp_epsilon: Optional[float] = None,
    ):
        # ``world`` may be a bare IoTWorld or a repro.deploy.Deployment.
        self.deploy = Deployment.of(world, name="home-monitoring")
        self.world = self.deploy.world
        self.hospital = self.deploy.domain("hospital")
        self.patients: Dict[str, PatientDeployment] = {}
        self.alerts: List[tuple] = []
        # Alerts before this index have been actuated.
        self._alerts_handled = 0
        self.emergencies_detected: List[str] = []

        domain = self.hospital
        patient_names = [p.name for p in patients]

        # Ward management (Fig. 6): manager sees only declassified stats;
        # with dp_epsilon set, the anonymisation algorithm is ε-DP (§4).
        self.stats_generator = StatisticsGenerator(
            patient_names, domain, dp_epsilon=dp_epsilon, seed=seed
        )
        domain.adopt(self.stats_generator)
        self.ward_manager = App(
            "ward-manager",
            context=SecurityContext.of(["medical", "stats"], ["anon"]),
            owner="hospital",
        )
        domain.adopt(self.ward_manager)

        # Emergency doctor (Fig. 7): wired in only when policy fires.
        self.emergency_doctor = App(
            "emergency-doctor",
            message_type=ALERT,
            context=SecurityContext.of(["medical", *patient_names],
                                       ["hosp-dev", "consent"]),
            owner="hospital",
        )
        domain.adopt(self.emergency_doctor)

        for profile in patients:
            self._deploy_patient(profile, sample_interval, seed)

        # Statistics report channel to the ward manager (Fig. 6): wired
        # once, while the generator is in its publish context.
        self.stats_generator.change_context(self.stats_generator.publish_ctx)
        self.hospital.bus.connect(
            "hospital", self.stats_generator, "report", self.ward_manager, "in"
        )
        self.stats_generator.change_context(self.stats_generator.read_ctx)

        self._install_emergency_policy()
        domain.engine.add_notifier(lambda ch, msg: self.alerts.append((ch, msg)))

    # -- construction ----------------------------------------------------------------

    def _deploy_patient(
        self, profile: PatientProfile, interval: float, seed: int
    ) -> None:
        domain = self.hospital
        name = profile.name
        sensor = Sensor(
            f"{name}-sensor",
            source=profile.signal(seed),
            interval=interval,
            unit="bpm",
            context=patient_context(name, profile.device_standard),
            owner="hospital",
            profile=DeviceProfile(DeviceClass.CONSTRAINED, battery=None),
        )
        domain.adopt(sensor)

        analyser = App(
            f"{name}-analyser",
            context=analyser_context(name),
            owner="hospital",
            process=self._make_detector(name),
        )
        domain.adopt(analyser)

        sanitiser: Optional[InputSanitiser] = None
        if profile.device_standard:
            # Fig. 4: hospital-issued device flows directly.
            domain.bus.connect("hospital", sensor, "out", analyser, "in")
        else:
            # Fig. 5: non-standard device needs the endorsing sanitiser.
            sanitiser = InputSanitiser(name, domain)
            domain.adopt(sanitiser)
            domain.bus.connect("hospital", sensor, "out", sanitiser, "in")
            # Sanitiser output context accords with the analyser; connect
            # while it is in output context, then it returns to input.
            sanitiser.change_context(sanitiser.output_ctx)
            domain.bus.connect("hospital", sanitiser, "out", analyser, "in")
            sanitiser.change_context(sanitiser.input_ctx)

        # All standardised data also feeds the statistics generator.
        feed_source: Thing = sanitiser if sanitiser is not None else sensor
        feed_endpoint = "out"
        if sanitiser is not None:
            sanitiser.change_context(sanitiser.output_ctx)
        domain.bus.connect(
            "hospital", feed_source, feed_endpoint, self.stats_generator, "in"
        )
        if sanitiser is not None:
            sanitiser.change_context(sanitiser.input_ctx)

        # Analyser alert endpoint (wired to the doctor on emergency only).
        if "alert" not in analyser.endpoints:
            analyser.add_endpoint("alert", EndpointKind.SOURCE, ALERT)

        sensor.start(self.world.sim, domain.bus)
        self.patients[name] = PatientDeployment(profile, sensor, analyser, sanitiser)

    def _make_detector(self, patient: str):
        def detect(app: App, message: Message) -> None:
            value = message.values.get("value")
            if not isinstance(value, float) or value < EMERGENCY_THRESHOLD:
                return
            event = Event(
                "emergency",
                {
                    "patient": patient,
                    "heart_rate": value,
                    "severity": "critical",
                },
                source=app.name,
                timestamp=self.world.sim.now(),
            )
            self.emergencies_detected.append(patient)
            self.hospital.engine.handle_event(event)

        return detect

    def _install_emergency_policy(self) -> None:
        """The Fig. 7 red arrows, as ECA rules."""
        engine_name = self.hospital.engine.name

        def map_alert_to_doctor(event: Event, scope) -> object:
            patient = str(event.attributes["patient"])
            return Reconfigurator.map_command(
                engine_name,
                f"{patient}-analyser",
                "alert",
                "emergency-doctor",
                "in",
            )

        self.hospital.engine.add_rule(
            Rule.build(
                name="emergency-response",
                event_type="emergency",
                condition="heart_rate > 140",
                actions=[
                    NotifyAction(
                        "emergency-services",
                        ALERT_TEMPLATE,
                    ),
                    ContextAction("emergency.active", True),
                    CommandAction(builder=map_alert_to_doctor),
                ],
                priority=100,
                author="hospital",
            )
        )

    # -- emergency actuation (application side of the Fig. 7 loop) ----------------

    def actuate_emergency_sampling(self, patient: str) -> None:
        """Switch a patient's sensor to emergency sampling (Fig. 7:
        "the home sensors may be actuated to sample more frequently")."""
        deployment = self.patients[patient]
        deployment.sensor.set_interval(EMERGENCY_INTERVAL)

    def handle_alerts(self) -> None:
        """Actuate each emergency alert raised since the last call, once.

        The patient is the exact name the alert was rendered with, so an
        alert for ``joanna`` never actuates ``ann``.
        """
        for channel, text in self.alerts[self._alerts_handled:]:
            if channel != "emergency-services" or not text.startswith(ALERT_PREFIX):
                continue
            name = text[len(ALERT_PREFIX):].rpartition(": heart rate ")[0]
            if name in self.patients:
                self.actuate_emergency_sampling(name)
        self._alerts_handled = len(self.alerts)

    # -- reporting -----------------------------------------------------------------

    def run(self, hours: float) -> None:
        """Advance the world, processing sensor samples and policy."""
        self.deploy.run(hours=hours)
        self.handle_alerts()

    def summary(self) -> Dict[str, object]:
        """Operational summary for examples and tests."""
        return {
            "patients": len(self.patients),
            "samples": sum(d.sensor.samples_taken for d in self.patients.values()),
            "sanitised": sum(
                d.sanitiser.sanitised
                for d in self.patients.values()
                if d.sanitiser is not None
            ),
            "stats_reports": self.stats_generator.reports_published,
            "emergencies": len(self.emergencies_detected),
            "alerts": len(self.alerts),
            "flows": self.world.total_flows(),
        }
