"""The Figs. 4-7 home-monitoring system, end to end."""

import pytest

from repro.apps import (
    EMERGENCY_INTERVAL,
    HomeMonitoringSystem,
    analyser_context,
    patient_context,
)
from repro.audit import RecordKind, graph_from_log
from repro.errors import FlowError
from repro.ifc import can_flow
from repro.iot import IoTWorld, PatientProfile


@pytest.fixture
def system():
    world = IoTWorld(seed=3)
    patients = [
        PatientProfile("ann", device_standard=True,
                       emergency_at=3600.0, emergency_duration=1800.0),
        PatientProfile("zeb", device_standard=False),
    ]
    return HomeMonitoringSystem(world, patients, sample_interval=300.0)


class TestFig4Contexts:
    def test_ann_flows_to_her_analyser(self):
        assert can_flow(patient_context("ann", True), analyser_context("ann"))

    def test_zeb_blocked_from_ann_analyser(self):
        assert not can_flow(patient_context("zeb", False),
                            analyser_context("ann"))

    def test_zeb_nonstandard_blocked_from_own_analyser(self):
        """Fig. 5's premise: even Zeb's own analyser demands hosp-dev."""
        assert not can_flow(patient_context("zeb", False),
                            analyser_context("zeb"))

    def test_direct_wiring_of_zeb_to_analyser_refused(self, system):
        zeb = system.patients["zeb"]
        with pytest.raises(FlowError):
            system.hospital.bus.connect(
                "hospital", zeb.sensor, "out", zeb.analyser, "in"
            )


class TestFig5Sanitiser:
    def test_nonstandard_data_reaches_analyser_via_sanitiser(self, system):
        system.run(hours=1)
        zeb = system.patients["zeb"]
        assert zeb.sanitiser is not None
        assert zeb.sanitiser.sanitised > 0
        assert len(zeb.analyser.received) == zeb.sanitiser.sanitised

    def test_sanitised_messages_carry_endorsed_context(self, system):
        system.run(hours=1)
        zeb = system.patients["zeb"]
        message = zeb.analyser.received[0]
        assert "hosp-dev" in message.context.integrity
        assert "zeb-dev" not in message.context.integrity

    def test_sanitiser_context_switches_audited(self, system):
        system.run(hours=1)
        endorsements = [
            r for r in system.hospital.audit
            if r.kind == RecordKind.ENDORSEMENT and "sanitiser" in r.actor
        ]
        assert endorsements

    def test_standard_device_needs_no_sanitiser(self, system):
        assert system.patients["ann"].sanitiser is None


class TestFig6Statistics:
    def test_ward_manager_receives_only_declassified_stats(self, system):
        system.run(hours=1)
        mean = system.stats_generator.publish_statistics()
        assert mean is not None
        received = system.ward_manager.received
        assert len(received) == 1
        assert "stats" in received[0].context.secrecy
        assert "ann" not in received[0].context.secrecy

    def test_raw_patient_data_never_reaches_manager(self, system):
        system.run(hours=2)
        system.stats_generator.publish_statistics()
        graph = graph_from_log(system.hospital.audit)
        # manager is reachable only via the stats generator
        for patient in ("ann", "zeb"):
            paths = graph.paths_between(f"{patient}-sensor", "ward-manager")
            assert all("stats-generator" in path for path in paths)

    def test_declassification_recorded_before_release(self, system):
        system.run(hours=1)
        system.stats_generator.publish_statistics()
        declass = system.hospital.audit.records(
            kind=RecordKind.DECLASSIFICATION, actor="stats-generator"
        )
        releases = system.hospital.audit.records(
            kind=RecordKind.FLOW_ALLOWED, actor="stats-generator",
            subject="ward-manager",
        )
        assert declass and releases
        assert min(r.timestamp for r in declass) <= min(
            r.timestamp for r in releases
        )

    def test_empty_window_publishes_nothing(self):
        world = IoTWorld(seed=1)
        system = HomeMonitoringSystem(
            world, [PatientProfile("solo", device_standard=True)]
        )
        assert system.stats_generator.publish_statistics() is None


class TestFig7Emergency:
    def test_emergency_detected_and_policy_fired(self, system):
        system.run(hours=2)
        assert "ann" in system.emergencies_detected
        assert any("ann" in text for __, text in system.alerts)

    def test_doctor_wired_in_by_reconfiguration(self, system):
        assert system.hospital.bus.channels_of(system.emergency_doctor) == []
        system.run(hours=2)
        channels = system.hospital.bus.channels_of(system.emergency_doctor)
        assert channels
        assert channels[0].source.name == "ann-analyser"

    def test_sensor_actuated_to_emergency_rate(self, system):
        system.run(hours=2)
        assert system.patients["ann"].sensor.interval == EMERGENCY_INTERVAL
        # the healthy patient's sensor is untouched
        assert system.patients["zeb"].sensor.interval == 300.0

    def test_alert_actuates_only_the_named_patient(self):
        """An emergency for ``joanna`` must not actuate ``ann``, whose
        name is a substring of hers."""
        world = IoTWorld(seed=3)
        patients = [
            PatientProfile("ann", device_standard=True),
            PatientProfile("joanna", device_standard=True,
                           emergency_at=3600.0, emergency_duration=1800.0),
        ]
        system = HomeMonitoringSystem(world, patients, sample_interval=300.0)
        system.run(hours=2)
        assert system.emergencies_detected
        assert set(system.emergencies_detected) == {"joanna"}
        assert system.patients["joanna"].sensor.interval == EMERGENCY_INTERVAL
        assert system.patients["ann"].sensor.interval == 300.0

    def test_each_alert_actuates_once(self, system):
        """Later runs do not replay old alerts: a sensor reset after the
        emergency stays at the rate it was reset to."""
        system.run(hours=2)
        sensor = system.patients["ann"].sensor
        assert sensor.interval == EMERGENCY_INTERVAL
        alerts = len(system.alerts)
        sensor.set_interval(300.0)
        system.run(hours=2)
        assert len(system.alerts) == alerts
        assert sensor.interval == 300.0

    def test_no_emergency_without_episode(self):
        world = IoTWorld(seed=3)
        system = HomeMonitoringSystem(
            world, [PatientProfile("calm", device_standard=True)],
            sample_interval=300.0,
        )
        system.run(hours=4)
        assert system.emergencies_detected == []

    def test_reconfiguration_trail_in_audit(self, system):
        system.run(hours=2)
        reconfigs = system.hospital.audit.records(kind=RecordKind.RECONFIGURATION)
        assert any(r.detail.get("command") == "map" for r in reconfigs)
        assert system.hospital.audit.verify()
