"""Telemetry: counters, percentiles, retry-after estimation, rendering."""

import pytest

from repro.dse import percentile
from repro.errors import AnalysisError
from repro.service import ServiceStats, format_stats


class FakeClock:
    def __init__(self):
        self.now = 100.0

    def __call__(self):
        return self.now


class TestPercentile:
    def test_nearest_rank(self):
        samples = list(range(1, 101))  # 1..100
        assert percentile(samples, 50) == 50
        assert percentile(samples, 95) == 95
        assert percentile(samples, 99) == 99
        assert percentile(samples, 100) == 100

    def test_single_sample(self):
        assert percentile([7], 50) == 7.0
        assert percentile([7], 99) == 7.0

    def test_unsorted_input(self):
        assert percentile([30, 10, 20], 50) == 20

    def test_empty_raises_no_samples(self):
        with pytest.raises(AnalysisError, match="no samples"):
            percentile([], 50)
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_bad_q(self):
        with pytest.raises(AnalysisError):
            percentile([1], 101)


class TestCounters:
    def test_hit_rate(self):
        stats = ServiceStats(clock=FakeClock())
        assert stats.hit_rate == 0.0
        for served_by, ok in (("executed", True), ("cache", True),
                              ("coalesced", True), ("executed", False)):
            stats.record_served(served_by)
            stats.record_done(0.1, ok=ok)
        assert stats.resolved == 4
        assert stats.completed == 3 and stats.failed == 1
        assert stats.hit_rate == pytest.approx(0.5)

    def test_batch_fill(self):
        stats = ServiceStats(clock=FakeClock())
        stats.record_batch(4)
        stats.record_batch(2)
        assert stats.mean_batch_fill == pytest.approx(3.0)

    def test_latency_percentiles(self):
        stats = ServiceStats(clock=FakeClock())
        assert stats.latency_percentiles() == {"p50": 0.0, "p95": 0.0,
                                               "p99": 0.0}
        for value in (0.1, 0.2, 0.3, 0.4, 1.0):
            stats.record_done(value, ok=True)
        latency = stats.latency_percentiles()
        assert latency["p50"] == pytest.approx(0.3)
        assert latency["p99"] == pytest.approx(1.0)

    def test_window_bounds_memory(self):
        stats = ServiceStats(clock=FakeClock(), window=10)
        for value in range(100):
            stats.record_done(float(value), ok=True)
        assert len(stats._latencies) == 10
        assert stats.latency_percentiles()["p50"] >= 90.0  # latest win


class TestRetryAfter:
    def test_defaults_to_one_second_without_history(self):
        stats = ServiceStats(clock=FakeClock())
        assert stats.estimate_retry_after(depth=5) == 1.0

    def test_scales_with_depth_and_latency(self):
        stats = ServiceStats(clock=FakeClock())
        for _ in range(4):
            stats.record_done(0.5, ok=True)
        stats.in_flight = 1
        assert stats.estimate_retry_after(depth=10) == pytest.approx(5.0)

    def test_clamped(self):
        stats = ServiceStats(clock=FakeClock())
        stats.record_done(100.0, ok=True)
        assert stats.estimate_retry_after(depth=1000) == 30.0
        fast = ServiceStats(clock=FakeClock())
        fast.record_done(1e-6, ok=True)
        assert fast.estimate_retry_after(depth=1) == 0.05


class TestExport:
    def test_as_dict_and_render(self):
        clock = FakeClock()
        stats = ServiceStats(clock=clock)
        stats.record_submit()
        stats.record_served("executed")
        stats.record_done(0.25, ok=True)
        clock.now += 10.0
        payload = stats.as_dict()
        assert payload["submitted"] == 1
        assert payload["completed"] == 1
        assert payload["latency_s"]["p50"] == pytest.approx(0.25)
        assert payload["jobs_per_second"] == pytest.approx(0.1)
        text = format_stats(payload)
        assert "coalesce+cache hit rate" in text
        assert "latency p99" in text
        assert "250.0 ms" in text

    def test_render_shows_every_pool_counter(self):
        stats = ServiceStats(clock=FakeClock())
        stats.pool.retries, stats.pool.crashes = 11, 12
        stats.pool.stalls, stats.pool.restarts = 13, 14
        stats.pool.poisoned = 15
        rows = dict(line.rsplit(None, 1)
                    for line in format_stats(stats.as_dict()).splitlines()[2:])
        assert rows["worker retries"] == "11"
        assert rows["worker crashes"] == "12"
        assert rows["worker stalls"] == "13"
        assert rows["worker pool restarts"] == "14"
        assert rows["poisoned points"] == "15"
