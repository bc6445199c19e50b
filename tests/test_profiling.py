"""Host-side profiling helpers: the cProfile wrap and throughput lines."""

import pytest

from repro.profiling import profile_call, throughput, throughput_line


class TestProfileCall:
    def test_returns_result_and_stats_text(self):
        result, text = profile_call(lambda: sum(range(100)), limit=5)
        assert result == 4950
        assert "function calls" in text

    def test_propagates_exceptions(self):
        with pytest.raises(RuntimeError, match="boom"):
            profile_call(lambda: (_ for _ in ()).throw(RuntimeError("boom")))


class TestThroughput:
    def test_rate(self):
        assert throughput(1000, 2.0) == 500.0

    def test_empty_interval_is_zero_not_an_error(self):
        assert throughput(1000, 0.0) == 0.0

    def test_line_format(self):
        line = throughput_line(12345, 0.5)
        assert "12,345 sim-events" in line
        assert "24,690 steps/sec" in line
