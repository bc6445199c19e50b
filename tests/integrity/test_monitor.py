"""Corruption injection, scrub detection and the repair ladder.

End-to-end through a real protected deployment: every corruption kind
is injected semantically (parse → architectural perturbation →
rebuild), the background scrubber detects it against the shipped
attestation, and the escalation ladder clears it at the cheapest rung
whose scope covers the damage.
"""

import pytest

from repro.cluster import DeploymentSpec, ProtectedDeployment
from repro.hardware.units import GIB
from repro.integrity import IntegrityConfig
from repro.telemetry import Recorder


def deploy(scrub_interval=0.25, allow_reseed=True, period=5.0, seed=3):
    deployment = ProtectedDeployment(
        DeploymentSpec(
            engine="here",
            period=period,
            target_degradation=0.0,
            memory_bytes=GIB,
            seed=seed,
            integrity=IntegrityConfig(
                scrub_interval=scrub_interval, allow_reseed=allow_reseed
            ),
        )
    )
    recorder = Recorder.attach(deployment.sim.telemetry)
    deployment.start_protection()
    # Let at least one continuous checkpoint commit so the replica
    # holds an attested post-translation payload to corrupt.
    deployment.run_for(period + 1.0)
    assert deployment.engine.replica_session.last_payload is not None
    return deployment, recorder


class TestIntegrityStack:
    def test_engine_grows_the_full_stack(self):
        deployment, _ = deploy()
        engine = deployment.engine
        assert engine.integrity_monitor is not None
        assert engine.repairer is not None
        assert engine.scrubber is not None
        assert engine.pipeline.has_stage("attest")
        assert engine.replica_session.last_attestation is not None

    def test_clean_replica_audits_clean(self):
        deployment, _ = deploy()
        audited, detected = deployment.engine.integrity_monitor.audit()
        assert audited > 0
        assert detected == []


class TestDetectionAndRepair:
    def test_bitrot_is_detected_and_page_refetched(self):
        deployment, recorder = deploy()
        monitor = deployment.engine.integrity_monitor
        monitor.inject("replica-bitrot")
        [event] = monitor.events
        assert event.scope == "page"
        # The corruption is invisible to the protocol (the payload
        # still parses) but the scrubber's semantic audit catches it
        # within the next interval and the cheapest rung clears it.
        deployment.run_for(1.0)
        assert event.detected
        assert event.repaired_by == "page-refetch"
        assert event.latent_window(deployment.sim.now) <= 0.5
        assert recorder.counters("integrity.corruption_detected")
        assert recorder.counters("integrity.repair.page-refetch")
        assert not deployment.engine.replica_session.corruption_suspected

    def test_repair_restores_the_pristine_payload(self):
        deployment, _ = deploy()
        session = deployment.engine.replica_session
        monitor = deployment.engine.integrity_monitor
        monitor.inject("replica-bitrot")
        corrupt = session.last_payload
        deployment.run_for(1.0)
        [event] = monitor.events
        assert session.last_payload is event.pristine
        assert session.last_payload is not corrupt
        # And the restored state audits clean again.
        _, detected = monitor.audit()
        assert detected == []

    @pytest.mark.parametrize("kind", ["replica-bitrot", "torn-apply"])
    def test_replica_on_a_down_host_is_left_alone(self, kind):
        deployment, _ = deploy()
        session = deployment.engine.replica_session
        monitor = deployment.engine.integrity_monitor
        before = (session.last_payload, session.version)
        deployment.testbed.secondary.fail("test crash")
        detail = monitor.inject(kind)
        assert detail.endswith("is down, nothing corrupted")
        assert monitor.events == []
        assert (session.last_payload, session.version) == before

    def test_torn_apply_needs_an_incremental_resync(self):
        deployment, recorder = deploy()
        monitor = deployment.engine.integrity_monitor
        monitor.inject("torn-apply")
        [event] = monitor.events
        assert event.scope == "epoch"
        deployment.run_for(1.0)
        assert event.repaired_by == "incremental-resync"
        # The ladder climbed: the page rung was attempted and failed.
        [attempt] = recorder.counters("integrity.repair.page-refetch")
        assert attempt.attrs["fixed"] is False

    def test_translator_drift_needs_a_full_reseed(self):
        deployment, recorder = deploy()
        monitor = deployment.engine.integrity_monitor
        monitor.inject("translator-drift")
        # Drift corrupts the *next* translation, not committed state.
        assert monitor.events == []
        deployment.run_for(7.0)  # one more checkpoint + scrub
        repaired = [e for e in monitor.events if e.repaired_at is not None]
        assert repaired, "armed drift never produced a repaired event"
        assert any(e.repaired_by == "full-reseed" for e in repaired)
        assert all(e.scope == "stream" for e in monitor.events)
        monitor.clear_drift()

    def test_detection_latency_gauge_is_emitted(self):
        deployment, recorder = deploy()
        deployment.engine.integrity_monitor.inject("replica-bitrot")
        deployment.run_for(1.0)
        [gauge] = recorder.gauges("integrity.detection_latency")
        assert 0.0 <= gauge.value <= 0.5

    def test_scrub_audits_are_priced_and_counted(self):
        deployment, recorder = deploy(scrub_interval=0.1)
        before = len(recorder.counters("integrity.scrub.audit"))
        deployment.run_for(1.0)
        audits = len(recorder.counters("integrity.scrub.audit")) - before
        assert audits >= 8
        assert deployment.engine.scrubber.audited_bytes > 0


class TestLadderExhaustion:
    def test_stream_corruption_without_reseed_quarantines(self):
        deployment, recorder = deploy(allow_reseed=False)
        monitor = deployment.engine.integrity_monitor
        monitor.inject("translator-drift")
        deployment.run_for(7.0)
        repairer = deployment.engine.repairer
        assert repairer.alarms >= 1
        assert recorder.counters("integrity.alarm")
        assert deployment.engine.replica_session.quarantined
        quarantined = [e for e in monitor.events if e.quarantined]
        assert quarantined
        assert all(e.repaired_by is None for e in quarantined)


class TestUnknownKind:
    def test_unknown_corruption_kind_raises(self):
        deployment, _ = deploy()
        with pytest.raises(ValueError):
            deployment.engine.integrity_monitor.inject("cosmic-ray")
