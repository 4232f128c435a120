"""Coalescing and dedup: the service's core efficiency guarantee.

Includes the subsystem acceptance test: 50 concurrent submissions over
20 seeded grid points (10 seeds of each of 2 contents) must complete
with at least 60% of jobs served by coalescing or the cache — i.e. at
most one real execution per content.
"""

import asyncio

from repro.dse import GridPoint, ResultCache
from repro.service import Coalescer, JobRequest, SimulationService


def _point(seed=0, config="SLT"):
    return GridPoint(core="cv32e40p", config=config,
                     workload="yield_pingpong", iterations=1, seed=seed)


class TestKeyScheme:
    def test_key_matches_result_cache(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f00d")
        coalescer = Coalescer(cache)
        point = _point(seed=7)
        assert coalescer.key(point) == cache.key(point)

    def test_key_sensitivity(self):
        coalescer = Coalescer(fingerprint="f00d")
        base = coalescer.key(_point(seed=0))
        assert coalescer.key(_point(seed=0)) == base
        assert coalescer.key(_point(seed=1)) == base
        assert coalescer.key(_point(config="S")) != base
        assert coalescer.key(GridPoint(core="cva6", config="SLT",
                                       workload="yield_pingpong",
                                       iterations=1)) != base
        assert coalescer.key(GridPoint(core="cv32e40p", config="SLT",
                                       workload="sem_signal",
                                       iterations=1)) != base
        assert coalescer.key(GridPoint(core="cv32e40p", config="SLT",
                                       workload="yield_pingpong",
                                       iterations=2)) != base

    def test_fingerprint_inherited_from_cache(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="abcd")
        assert Coalescer(cache).fingerprint == "abcd"


class TestLookup:
    def test_new_then_inflight_then_released(self):
        coalescer = Coalescer(fingerprint="f00d")
        point = _point()
        kind, key = coalescer.lookup(point)
        assert kind == "new"
        leader = object()
        coalescer.lease(key, leader)
        kind, value = coalescer.lookup(point)
        assert kind == "inflight" and value is leader
        coalescer.release(key)
        assert coalescer.lookup(point)[0] == "new"

    def test_seed_twin_joins_the_leader(self):
        coalescer = Coalescer(fingerprint="f00d")
        kind, key = coalescer.lookup(_point(seed=0))
        leader = object()
        coalescer.lease(key, leader)
        assert coalescer.lookup(_point(seed=5)) == ("inflight", leader)
        assert coalescer.lookup(_point(seed=0, config="S"))[0] == "new"

    def test_cache_hit_preferred_over_enqueue(self, tmp_path):
        cache = ResultCache(tmp_path, fingerprint="f00d")
        point = _point()
        fake = {"fake": "payload", "seed": point.run_seed}
        cache.put(point, fake)
        kind, payload = Coalescer(cache).lookup(point)
        assert kind == "cache"
        assert payload == fake


class TestAcceptance:
    """50 submissions, 20 seeded points of 2 contents, >= 60%
    coalesce+cache."""

    def test_50_jobs_over_20_points(self, tmp_path):
        unique = [JobRequest(core="cv32e40p", config=config,
                             workload="yield_pingpong", iterations=1,
                             seed=seed)
                  for config in ("vanilla", "SLT")
                  for seed in range(10)]
        assert len(unique) == 20
        # 50 requests: every seeded point once, then 30 duplicates
        # interleaved deterministically.
        requests = list(unique)
        while len(requests) < 50:
            requests.append(unique[(len(requests) * 7) % len(unique)])

        cache = ResultCache(tmp_path / "cache")
        service = SimulationService(cache=cache, queue_depth=64)

        async def submit_all():
            async with service:
                futures = [await service.submit(request)
                           for request in requests]
                return await asyncio.gather(*futures)

        results = asyncio.run(submit_all())

        assert len(results) == 50
        assert all(result.ok for result in results)
        stats = service.stats
        assert stats.failed == 0
        assert stats.executed <= 2  # at most one simulation per content
        assert stats.cache_hits + stats.coalesced >= 30
        assert stats.hit_rate >= 0.6
        # Identical requests produced identical payloads.
        by_request: dict = {}
        for request, result in zip(requests, results):
            by_request.setdefault(request, []).append(result.run)
        for payloads in by_request.values():
            assert all(payload == payloads[0] for payload in payloads)
