"""Tiered load shedding: bulk loses admission first, interactive last."""

import asyncio

import pytest

from repro.errors import QueueFullError
from repro.service import JobQueue, JobRequest, ShedPolicy, SimulationService


class _FakeJob:
    def __init__(self, priority):
        self.request = JobRequest(core="cv32e40p", config="SLT",
                                  workload="yield_pingpong", iterations=1,
                                  priority=priority)


class TestShedPolicy:
    def test_default_limits(self):
        shed = ShedPolicy()
        assert shed.limit("bulk", 100) == 50
        assert shed.limit("batch", 100) == 85
        assert shed.limit("interactive", 100) == 100

    def test_limits_never_below_one(self):
        shed = ShedPolicy(bulk_fraction=0.1)
        assert shed.limit("bulk", 2) == 1

    @pytest.mark.parametrize("kwargs", [
        {"bulk_fraction": 0.0}, {"bulk_fraction": 1.5},
        {"bulk_fraction": 0.9, "batch_fraction": 0.5},
        {"batch_fraction": 1.1},
    ])
    def test_invalid_fractions(self, kwargs):
        with pytest.raises(ValueError):
            ShedPolicy(**kwargs)


class TestTieredQueue:
    def _queue(self, capacity=10):
        return JobQueue(capacity=capacity, retry_after=lambda: 0.5,
                        shed=ShedPolicy())

    def test_bulk_shed_first(self):
        queue = self._queue()
        for _ in range(5):
            queue.put(_FakeJob("bulk"))
        with pytest.raises(QueueFullError) as exc_info:
            queue.put(_FakeJob("bulk"))
        assert exc_info.value.tier == "bulk"
        assert "bulk tier" in str(exc_info.value)
        # batch and interactive still admitted at the same depth
        queue.put(_FakeJob("batch"))
        queue.put(_FakeJob("interactive"))

    def test_batch_shed_second_interactive_protected(self):
        queue = self._queue()
        for _ in range(8):
            queue.put(_FakeJob("batch"))
        with pytest.raises(QueueFullError) as exc_info:
            queue.put(_FakeJob("batch"))
        assert exc_info.value.tier == "batch"
        for _ in range(2):
            queue.put(_FakeJob("interactive"))
        with pytest.raises(QueueFullError) as exc_info:
            queue.put(_FakeJob("interactive"))
        # True capacity: a full-queue rejection, not a shed one.
        assert "interactive" == exc_info.value.tier
        assert exc_info.value.capacity == 10

    def test_no_shed_policy_is_uniform(self):
        queue = JobQueue(capacity=4, retry_after=lambda: 0.5)
        for _ in range(4):
            queue.put(_FakeJob("bulk"))
        with pytest.raises(QueueFullError) as exc_info:
            queue.put(_FakeJob("bulk"))
        assert exc_info.value.tier is None


class TestServiceShedding:
    def test_shed_rejections_counted_separately(self, monkeypatch):
        def never_batch(points, jobs=1, retries=1, timeout=None,
                        health=None):  # pragma: no cover - queue stays full
            raise AssertionError("scheduler must not drain in this test")

        async def go():
            service = SimulationService(queue_depth=4,
                                        shed=ShedPolicy(bulk_fraction=0.5))
            # Stall the scheduler so the queue holds depth: no batches.
            service.batcher.next_batch = _never_ready
            service.start()
            for iterations in range(1, 3):
                await service.submit(_request("bulk", iterations))
            with pytest.raises(QueueFullError) as exc_info:
                await service.submit(_request("bulk", 99))
            assert exc_info.value.tier == "bulk"
            assert service.stats.shed == 1
            assert service.stats.rejected == 1
            # Interactive work is still admitted past the bulk limit.
            await service.submit(_request("interactive", 100))
            service._scheduler_task.cancel()

        async def _never_ready():
            await asyncio.sleep(3600)

        def _request(priority, iterations):
            # Distinct iterations make distinct contents: none coalesces.
            return JobRequest(core="cv32e40p", config="SLT",
                              workload="yield_pingpong",
                              iterations=iterations, seed=0,
                              priority=priority)

        asyncio.run(go())
