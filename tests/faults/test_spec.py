"""FaultSpec / FaultSchedule validation, ordering and seeded draws."""

import math
import random

import pytest

from repro.faults import (
    CORRUPTION_KINDS,
    FaultKind,
    FaultSchedule,
    FaultSpec,
    HOST_KINDS,
    LINK_KINDS,
    TRANSIENT_KINDS,
    VM_KINDS,
    ZONE_KINDS,
)


def host_crash(at=0.0, **kwargs):
    return FaultSpec(FaultKind.HOST_CRASH, target="host-A", at=at, **kwargs)


class TestFaultSpecValidation:
    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            host_crash(at=-1.0)

    def test_non_positive_duration_rejected(self):
        with pytest.raises(ValueError):
            host_crash(duration=0.0)

    def test_missing_target_rejected(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.HOST_CRASH)

    def test_exploit_needs_payload(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.EXPLOIT, target="host-A")

    def test_host_transient_needs_finite_duration(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.HOST_TRANSIENT, target="host-A")
        spec = FaultSpec(FaultKind.HOST_TRANSIENT, target="host-A", duration=3.0)
        assert spec.reverts

    def test_degrade_knob_ranges(self):
        with pytest.raises(ValueError):
            FaultSpec(
                FaultKind.LINK_DEGRADE, target="ic", bandwidth_factor=1.5
            )
        with pytest.raises(ValueError):
            FaultSpec(
                FaultKind.LINK_DEGRADE, target="ic", bandwidth_factor=0.0
            )
        with pytest.raises(ValueError):
            FaultSpec(
                FaultKind.LINK_DEGRADE,
                target="ic",
                bandwidth_factor=0.5,
                extra_latency_s=-1e-3,
            )

    def test_degrade_must_degrade_something(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.LINK_DEGRADE, target="ic")
        spec = FaultSpec(
            FaultKind.LINK_DEGRADE, target="ic", extra_latency_s=1e-3
        )
        assert not spec.reverts  # infinite duration: never undone

    def test_starvation_factor_floor(self):
        with pytest.raises(ValueError):
            FaultSpec(
                FaultKind.HYPERVISOR_STARVE, target="host-A",
                starvation_factor=0.5,
            )

    def test_correlated_needs_parts(self):
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.CORRELATED)

    def test_correlated_does_not_nest(self):
        inner = FaultSpec(FaultKind.CORRELATED, parts=(host_crash(),))
        with pytest.raises(ValueError):
            FaultSpec(FaultKind.CORRELATED, parts=(inner,))

    def test_parts_only_on_correlated(self):
        with pytest.raises(ValueError):
            host_crash(parts=(host_crash(),))

    def test_kind_partition_is_exhaustive(self):
        categorised = (
            HOST_KINDS | LINK_KINDS | VM_KINDS | ZONE_KINDS
            | CORRUPTION_KINDS
        )
        assert categorised == set(FaultKind) - {FaultKind.CORRELATED}
        assert TRANSIENT_KINDS < set(FaultKind)
        # Zone kinds are their own category: the per-pair injector
        # rejects them, only the fleet layer fans them out.
        assert not ZONE_KINDS & (HOST_KINDS | LINK_KINDS | VM_KINDS)
        # Corruption kinds dispatch to integrity monitors, not to the
        # host/link/VM registries.
        assert not CORRUPTION_KINDS & (
            HOST_KINDS | LINK_KINDS | VM_KINDS | ZONE_KINDS
        )


class TestRevertsAndDescribe:
    def test_permanent_kinds_never_revert(self):
        assert not host_crash(duration=5.0).reverts

    def test_transient_with_infinite_duration_does_not_revert(self):
        spec = FaultSpec(FaultKind.LINK_PARTITION, target="ic")
        assert not spec.reverts

    def test_describe_mentions_kind_target_and_duration(self):
        spec = FaultSpec(
            FaultKind.LINK_PARTITION, target="ic", at=2.0, duration=4.0
        )
        text = spec.describe()
        assert "link-partition" in text
        assert "'ic'" in text
        assert "4s" in text

    def test_describe_correlated_lists_parts(self):
        spec = FaultSpec(
            FaultKind.CORRELATED,
            at=1.0,
            parts=(host_crash(at=0.5),),
        )
        assert "correlated" in spec.describe()
        assert "host-crash" in spec.describe()


class TestFaultSchedule:
    def test_specs_sorted_by_time(self):
        schedule = FaultSchedule(
            specs=(host_crash(at=9.0), host_crash(at=1.0), host_crash(at=4.0))
        )
        assert [s.at for s in schedule] == [1.0, 4.0, 9.0]
        assert len(schedule) == 3

    def test_single(self):
        schedule = FaultSchedule.single(host_crash(at=2.0))
        assert len(schedule) == 1


class TestRandomSchedules:
    def test_same_seed_same_schedule(self):
        kwargs = dict(
            hosts=["h0", "h1"],
            links=["ic"],
            kinds=(
                FaultKind.HOST_CRASH,
                FaultKind.LINK_PARTITION,
                FaultKind.LINK_DEGRADE,
            ),
            count=6,
        )
        first = FaultSchedule.random(random.Random(5), **kwargs)
        second = FaultSchedule.random(random.Random(5), **kwargs)
        assert first == second

    def test_kinds_without_targets_are_skipped(self):
        schedule = FaultSchedule.random(
            random.Random(1),
            hosts=["h0"],
            kinds=(FaultKind.HOST_CRASH, FaultKind.LINK_PARTITION),
            count=8,
        )
        assert all(s.kind is FaultKind.HOST_CRASH for s in schedule)

    def test_no_eligible_kind_raises(self):
        with pytest.raises(ValueError):
            FaultSchedule.random(
                random.Random(1), kinds=(FaultKind.LINK_PARTITION,)
            )

    def test_bad_window_rejected(self):
        with pytest.raises(ValueError):
            FaultSchedule.random(
                random.Random(1), hosts=["h0"], window=(5.0, 1.0)
            )

    def test_zone_kinds_drawn_from_zone_targets(self):
        schedule = FaultSchedule.random(
            random.Random(2),
            zones=["z0", "z1", "z2"],
            kinds=(FaultKind.ZONE_OUTAGE,),
            count=6,
            transient_duration=(3.0, 8.0),
        )
        for spec in schedule:
            assert spec.kind is FaultKind.ZONE_OUTAGE
            assert spec.target in {"z0", "z1", "z2"}
            # Drawn outages are finite: the zone reboots afterwards.
            assert 3.0 <= spec.duration <= 8.0
            assert "for" in spec.describe()

    def test_draws_stay_inside_window_with_valid_knobs(self):
        schedule = FaultSchedule.random(
            random.Random(3),
            hosts=["h0"],
            links=["ic"],
            kinds=(FaultKind.LINK_DEGRADE, FaultKind.HOST_TRANSIENT),
            count=12,
            window=(2.0, 7.0),
            transient_duration=(1.0, 2.0),
        )
        for spec in schedule:
            assert 2.0 <= spec.at <= 7.0
            assert spec.reverts
            assert 1.0 <= spec.duration <= 2.0
            if spec.kind is FaultKind.LINK_DEGRADE:
                assert 0.05 <= spec.bandwidth_factor <= 0.5
            assert math.isfinite(spec.duration)
