"""Checkpoint record and statistics arithmetic."""

import math

import pytest

from repro.replication import CheckpointRecord, ReplicationStats


def record(epoch, started_at, period, pause, transfer=None, dirty=1000.0):
    return CheckpointRecord(
        epoch=epoch,
        started_at=started_at,
        period_used=period,
        pause_duration=pause,
        transfer_duration=transfer if transfer is not None else pause * 0.9,
        dirty_pages=dirty,
        bytes_sent=dirty * 4096,
    )


class TestCheckpointRecord:
    def test_degradation_is_eq1(self):
        checkpoint = record(0, 10.0, period=3.0, pause=1.0)
        assert checkpoint.degradation == pytest.approx(0.25)

    def test_degenerate_degradation(self):
        checkpoint = record(0, 0.0, period=0.0, pause=0.0)
        assert checkpoint.degradation == 0.0


class TestReplicationStats:
    @pytest.fixture
    def stats(self):
        stats = ReplicationStats(vm_name="vm", engine="here")
        stats.checkpoints = [
            record(0, 10.0, period=4.0, pause=1.0, transfer=0.8),
            record(1, 15.0, period=4.0, pause=2.0, transfer=1.6),
            record(2, 21.0, period=2.0, pause=1.5, transfer=1.2),
        ]
        return stats

    def test_means(self, stats):
        assert stats.mean_pause_duration() == pytest.approx(1.5)
        assert stats.mean_transfer_duration() == pytest.approx(1.2)
        assert stats.mean_period() == pytest.approx(10.0 / 3)

    def test_mean_degradation(self, stats):
        expected = (1 / 5 + 2 / 6 + 1.5 / 3.5) / 3
        assert stats.mean_degradation() == pytest.approx(expected)

    def test_empty_stats_report_nan(self):
        stats = ReplicationStats(vm_name="vm", engine="here")
        assert math.isnan(stats.mean_pause_duration())
        assert math.isnan(stats.mean_degradation())
        assert math.isnan(stats.mean_period())
        assert stats.checkpoint_count == 0

    def test_summary_shape(self, stats):
        summary = stats.summary()
        assert summary["vm"] == "vm"
        assert summary["checkpoints"] == 3
        assert "mean_degradation" in summary
