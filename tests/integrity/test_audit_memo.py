"""The auditor's per-version clean-verdict memo.

``IntegrityMonitor.audit`` skips the re-parse and re-hash when the
replica's committed state has the same ``(session, version)`` as its
last clean audit.  That is sound only if every write to the committed
state bumps ``ReplicaSession.version``, and it must move no simulated
number.  Three contracts pin it:

* **every write bumps the version** — epoch applies, each corruption
  kind and each repair overwrite, at generated injection points, and
  the audit after any injection still reports it;
* **memo off == memo on** — whole campaign fingerprints (and the
  scrub-audit count) are identical with the memo defeated;
* **the saving is structural** — on the seed-2023 corruption campaign
  the root is re-derived once per clean version plus once per
  mismatching audit, not once per audit.
"""

from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import DeploymentSpec, ProtectedDeployment
from repro.experiments.presets import BENCH_SEED
from repro.fleet import FleetCampaign
from repro.faults import ChaosCampaign
from repro.hardware.units import GIB
from repro.integrity import IntegrityConfig
from repro.integrity import monitor as monitor_module
from repro.integrity.monitor import RUNG_SCOPES, IntegrityMonitor

from tests.fleet.test_integrity_fleet import fleet_config
from tests.integrity.test_optin_and_campaign import corruption_config

PERIOD = 5.0
KINDS = ("replica-bitrot", "torn-apply", "translator-drift")


def deploy():
    deployment = ProtectedDeployment(
        DeploymentSpec(
            engine="here",
            period=PERIOD,
            target_degradation=0.0,
            memory_bytes=GIB,
            seed=3,
            integrity=IntegrityConfig(),
        )
    )
    deployment.start_protection()
    # The test drives every audit itself.
    deployment.engine.scrubber.stop()
    return deployment


def next_epoch(deployment):
    """Run until the replica commits one more epoch."""
    session = deployment.engine.replica_session
    epoch = session.last_applied_epoch
    for _ in range(40):
        deployment.run_for(PERIOD / 4)
        if session.last_applied_epoch > epoch:
            return
    raise AssertionError(f"no epoch committed after epoch {epoch}")


class TestEveryWriteBumpsTheVersion:
    @settings(max_examples=30, deadline=None, derandomize=True)
    @given(
        kind=st.sampled_from(KINDS),
        epochs_before=st.integers(min_value=1, max_value=3),
        drifted_epochs=st.integers(min_value=1, max_value=2),
        rung=st.sampled_from(sorted(RUNG_SCOPES)),
    )
    def test_writes_bump_and_audits_see_injections(
        self, kind, epochs_before, drifted_epochs, rung
    ):
        deployment = deploy()
        session = deployment.engine.replica_session
        monitor = deployment.engine.integrity_monitor
        version = session.version
        for _ in range(epochs_before):
            next_epoch(deployment)
            assert session.version > version
            version = session.version
        # The first clean audit primes the memo; the second hits it.
        assert monitor.audit()[1] == []
        assert monitor.audit()[1] == []

        monitor.inject(kind)
        if kind == "translator-drift":
            for _ in range(drifted_epochs):
                next_epoch(deployment)
                assert session.version > version
                version = session.version
        else:
            assert session.version > version
            version = session.version
        [event] = monitor.events
        assert event.kind == kind
        detected = monitor.audit()[1]
        assert detected == [event]

        fixed = monitor.rung_repair(event, rung)
        if not fixed:
            assert session.version == version
            assert monitor.rung_repair(event, "full-reseed")
        assert session.last_payload is event.pristine
        assert session.version > version
        monitor.clear_drift()
        assert monitor.audit()[1] == []
        assert not session.corruption_suspected


def _memo_off(monkeypatch):
    """Defeat the memo: forget the last clean key before each audit."""
    audit = IntegrityMonitor.audit

    def audit_without_memo(self):
        self._clean_key = None
        return audit(self)

    monkeypatch.setattr(IntegrityMonitor, "audit", audit_without_memo)


def _outcome(result):
    return result.fingerprint(), asdict(result.integrity_tally())


class TestMemoOffEqualsMemoOn:
    @pytest.mark.parametrize("seed", [BENCH_SEED, 7, 11])
    def test_chaos_corruption_campaign(self, seed, monkeypatch):
        config = corruption_config(seed=seed)
        memo_on = _outcome(ChaosCampaign(config).run())
        _memo_off(monkeypatch)
        memo_off = _outcome(ChaosCampaign(config).run())
        assert memo_off == memo_on

    def test_fleet_integrity_campaign(self, monkeypatch):
        memo_on = FleetCampaign(fleet_config()).run()
        _memo_off(monkeypatch)
        memo_off = FleetCampaign(fleet_config()).run()
        assert memo_on.integrity.scrub_audits == 376
        assert memo_off.integrity.scrub_audits == 376
        assert memo_off.fingerprint() == memo_on.fingerprint()


class TestRederivationCount:
    def test_one_rederivation_per_clean_version_or_mismatch(
        self, monkeypatch
    ):
        derivations = []
        audits = []
        root = monitor_module.semantic_root
        audit = IntegrityMonitor.audit

        def counting_root(*args, **kwargs):
            derivations.append(1)
            return root(*args, **kwargs)

        def recording_audit(self):
            session = self.session
            key = None if session is None else (session, session.version)
            audited, detected = audit(self)
            if audited:
                audits.append((key, bool(detected)))
            return audited, detected

        monkeypatch.setattr(monitor_module, "semantic_root", counting_root)
        monkeypatch.setattr(IntegrityMonitor, "audit", recording_audit)
        ChaosCampaign(corruption_config(seed=BENCH_SEED)).run()

        clean_versions = {key for key, mismatch in audits if not mismatch}
        mismatches = sum(mismatch for _, mismatch in audits)
        assert len(audits) == 400
        assert (len(clean_versions), mismatches) == (53, 9)
        assert len(derivations) == len(clean_versions) + mismatches == 62
