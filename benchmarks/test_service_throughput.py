"""Meta-benchmark: job-service throughput with coalescing and batching.

Not a paper figure — this pins down what the service layer buys over
naive one-job-at-a-time submission: 50 jobs over 20 seeded points must
resolve with >= 60% of them served by coalescing or the result cache,
and the measured throughput plus p50/p95 job latency land in
``BENCH_service.json`` at the repo root for EXPERIMENTS.md. The 20
points are 10 seeds of each of 2 contents; the seed is not part of the
content, so only the 2 contents need simulating.
"""

import asyncio
import json
import pathlib
import time

from repro.dse import ResultCache
from repro.perf import bench_record
from repro.service import (
    BatchPolicy,
    InProcessClient,
    JobRequest,
    SimulationService,
    format_stats,
)

from benchmarks.conftest import publish

BENCH_PATH = (pathlib.Path(__file__).resolve().parent.parent
              / "BENCH_service.json")
TOTAL_JOBS = 50
SEEDED_POINTS = 20
CONTENTS = 2


def _requests():
    unique = [JobRequest(core="cv32e40p", config=config,
                         workload="yield_pingpong", iterations=1, seed=seed)
              for config in ("vanilla", "SLT") for seed in range(10)]
    assert len(unique) == SEEDED_POINTS
    rows = list(unique)
    while len(rows) < TOTAL_JOBS:
        rows.append(unique[(len(rows) * 7) % len(unique)])
    return rows


def _drive(service, requests):
    async def go():
        async with service:
            results = await InProcessClient(service).submit_many(requests)
            await service.drain()
            return results

    return asyncio.run(go())


def test_service_throughput(tmp_path):
    cache_dir = tmp_path / "cache"
    service = SimulationService(
        jobs=2, cache=ResultCache(cache_dir), queue_depth=256,
        policy=BatchPolicy(max_batch=8, max_linger=0.02))

    start = time.perf_counter()
    results = _drive(service, _requests())
    wall_s = time.perf_counter() - start

    assert len(results) == TOTAL_JOBS
    assert all(result.ok for result in results)
    stats = service.stats.as_dict()
    assert stats["failed"] == 0
    assert stats["executed"] <= SEEDED_POINTS
    assert stats["hit_rate"] >= 0.6, stats

    # Second pass, fresh service, same cache directory: the coalescer
    # starts empty, so every seeded point must be served by the on-disk
    # cache tier — the tier the first pass (duplicates coalesced
    # in-memory) never actually reads.
    warm = SimulationService(
        jobs=2, cache=ResultCache(cache_dir), queue_depth=256,
        policy=BatchPolicy(max_batch=8, max_linger=0.02))
    warm_results = _drive(warm, _requests()[:SEEDED_POINTS])
    assert all(result.ok for result in warm_results)
    warm_stats = warm.stats.as_dict()
    assert warm_stats["cache_hits"] > 0, warm_stats
    assert warm_stats["executed"] == 0, warm_stats

    latency = stats["latency_s"]
    record = bench_record("service_throughput", {
        "jobs": TOTAL_JOBS,
        "seeded_points": SEEDED_POINTS,
        "contents": CONTENTS,
        "wall_seconds": round(wall_s, 3),
        "jobs_per_second": round(TOTAL_JOBS / wall_s, 2),
        "p50_ms": round(latency["p50"] * 1000.0, 2),
        "p95_ms": round(latency["p95"] * 1000.0, 2),
        "executed": stats["executed"],
        "coalesced": stats["coalesced"],
        "cache_hits": stats["cache_hits"],
        "hit_rate": round(stats["hit_rate"], 3),
        "mean_batch_fill": round(stats["mean_batch_fill"], 2),
        "second_pass_cache_hits": warm_stats["cache_hits"],
    })
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    publish("bench_service_throughput",
            json.dumps(record, indent=2, sort_keys=True) + "\n"
            + format_stats(stats))
