"""Meta-benchmark: service availability under a fixed host-fault rate.

Not a paper figure — the resilience counterpart of
``test_service_throughput``: the in-process service is driven through a
seeded :mod:`repro.chaos` policy that crashes workers and corrupts
result-cache blobs at fixed rates, and must keep interactive
availability at or above 95% while every delivered payload stays
byte-identical to the chaos-free golden run (zero silent corruptions,
by construction of the digest-verified caches). The 10 seeded points
are 5 seeds of each of 2 contents: every cache hit and coalesced job is
stamped with its own seed, and the golden payloads are kept per seed.
The measured availability and p95 job latency land in
``BENCH_chaos.json`` at the repo root for EXPERIMENTS.md.
"""

import asyncio
import json
import pathlib
import time

from repro.chaos import ChaosPolicy, ChaosSpec, installed, uninstall
from repro.dse import ResultCache
from repro.perf import bench_record
from repro.service import (
    InProcessClient,
    JobRequest,
    SimulationService,
    format_stats,
)

from benchmarks.conftest import publish

BENCH_PATH = (pathlib.Path(__file__).resolve().parent.parent
              / "BENCH_chaos.json")
TOTAL_JOBS = 30
SEEDED_POINTS = 10
CONTENTS = 2
CRASH_RATE = 0.12    # worker.run worker_crash probability per visit
CORRUPT_RATE = 0.25  # cache.read corrupt_blob probability per visit
CHAOS_SEED = 42
AVAILABILITY_FLOOR = 0.95


def _requests():
    unique = [JobRequest(core="cv32e40p", config=config,
                         workload="yield_pingpong", iterations=1, seed=seed,
                         priority="interactive")
              for config in ("vanilla", "SLT") for seed in range(5)]
    assert len(unique) == SEEDED_POINTS
    rows = list(unique)
    while len(rows) < TOTAL_JOBS:
        rows.append(unique[(len(rows) * 3) % len(unique)])
    return rows


def _key(request):
    return (request.config, request.seed)


def _drive(service, requests):
    async def go():
        async with service:
            results = await InProcessClient(service).submit_many(requests)
            await service.drain()
            return results

    return asyncio.run(go())


def test_chaos_resilience(tmp_path):
    uninstall()
    requests = _requests()

    # Chaos-free golden pass: one payload per seeded point.
    golden_service = SimulationService(
        cache=ResultCache(tmp_path / "golden-cache"), queue_depth=256)
    golden = {}
    for result in _drive(golden_service, requests[:SEEDED_POINTS]):
        assert result.ok
        golden[_key(result.request)] = json.dumps(result.run,
                                                  sort_keys=True)

    # Chaos pass: same points, seeded host faults on the hot paths. Two
    # waves against a shared cache directory — the second wave's fresh
    # service has an empty coalescer, so every seeded point goes through
    # the on-disk cache tier and its reads face the corruption rate.
    policy = ChaosPolicy(seed=CHAOS_SEED, specs=(
        ChaosSpec("worker_crash", "worker.run", rate=CRASH_RATE),
        ChaosSpec("corrupt_blob", "cache.read", rate=CORRUPT_RATE),
    ))
    cache_dir = tmp_path / "chaos-cache"
    warm_cache = ResultCache(cache_dir)
    cache = ResultCache(cache_dir)
    start = time.perf_counter()
    with installed(policy):
        results = _drive(
            SimulationService(cache=warm_cache, queue_depth=256),
            requests[:SEEDED_POINTS])
        service = SimulationService(cache=cache, queue_depth=256)
        results += _drive(service, requests)
    wall_s = time.perf_counter() - start

    assert len(results) == SEEDED_POINTS + TOTAL_JOBS
    done = [r for r in results if r.ok]
    degraded = [r for r in results if not r.ok]
    # Degraded jobs must be structured quarantines, never raw crashes.
    for result in degraded:
        assert result.error["type"] == "PoisonPointError", result.error
    availability = len(done) / len(results)
    assert availability >= AVAILABILITY_FLOOR, (
        f"interactive availability {availability:.2%} under chaos "
        f"(floor {AVAILABILITY_FLOOR:.0%})")

    # Zero silent corruptions: every delivered payload is golden.
    silent = sum(1 for r in done
                 if json.dumps(r.run, sort_keys=True) != golden[_key(r.request)])
    assert silent == 0

    stats = service.stats.as_dict()
    # The healing proof: the cache tier was actually read under chaos,
    # and at least one corrupted blob was caught and evicted (seeded,
    # so this is deterministic) — without a payload going bad above.
    assert stats["cache_hits"] > 0
    evictions = (warm_cache.stats.corrupt_evictions
                 + cache.stats.corrupt_evictions)
    assert evictions >= 1
    latency = stats["latency_s"]
    record = bench_record("chaos_resilience", {
        "jobs": len(results),
        "seeded_points": SEEDED_POINTS,
        "contents": CONTENTS,
        "chaos_seed": CHAOS_SEED,
        "crash_rate": CRASH_RATE,
        "corrupt_rate": CORRUPT_RATE,
        "availability": round(availability, 4),
        "availability_floor": AVAILABILITY_FLOOR,
        "degraded_jobs": len(degraded),
        "silent_corruptions": silent,
        "wall_seconds": round(wall_s, 3),
        "p50_ms": round(latency["p50"] * 1000.0, 2),
        "p95_ms": round(latency["p95"] * 1000.0, 2),
        "cache_hits": stats["cache_hits"],
        "cache_corrupt_evictions": evictions,
        "worker_retries": stats["pool"]["retries"],
        "worker_poisoned": stats["pool"]["poisoned"],
    })
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    publish("bench_chaos_resilience",
            json.dumps(record, indent=2, sort_keys=True) + "\n"
            + format_stats(stats))
