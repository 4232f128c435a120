"""Meta-benchmark: warm-start speedup + byte-identity gate.

Not a paper figure — this is the CI gate for the warm-start engine
(``repro.snapshot``): the kernel build cache, the boot/final snapshot
tiers and the copy-on-write memory image. It runs the headline suite
(cv32e40p / vanilla, 20 iterations) three ways:

* **cold** — ``REPRO_SNAPSHOT=0``: build, assemble and simulate from
  scratch, the exact path every run took before this engine existed;
* **populate** — warm-start enabled, empty store: pays the cold cost
  plus the capture overhead (reported so a capture-cost regression is
  visible);
* **warm** — the same suite again: every run replays its final
  snapshot;
* **boundary** — final snapshots evicted, boundary snapshots kept: every
  run restores the first-measured-switch state and simulates only the
  measured phase, exercising the mid-tier resume path end to end.

and asserts that the warm pass is at least ``WARM_SPEEDUP_GATE`` times
faster than cold, that capture overhead stays bounded, that the
boundary pass actually resumes (``boundary_hits`` covers every
workload), and that the warm *and* boundary results are
**byte-identical** to cold — latencies, every switch record, core
stats, and the final register banks of the materialized end state.

A second test gates the NumPy substrate under those captures: the
vectorised snapshot page scans (``REPRO_NUMPY=1``) against the
bytearray loop fallback on a 1 MiB RAM with scattered dirty bytes must
be at least ``CAPTURE_SPEEDUP_GATE`` times faster.

Numbers land in ``BENCH_snapshot.json`` at the repo root (see
docs/SNAPSHOT.md); each test rewrites only its own keys.
"""

import dataclasses
import json
import pathlib
import random
import time

import pytest

from repro.harness.experiment import run_suite
from repro.kernel.builder import KernelBuilder, reset_program_cache
from repro.mem.regions import MemoryLayout
from repro.mem.substrate import get_numpy
from repro.rtosunit.config import parse_config
from repro.perf import bench_record
from repro.snapshot import final_system, reset_store, store
from repro.snapshot.cache import snapshot_key
from repro.snapshot.pages import capture_image, restore_image
from repro.workloads.suite import RTOSBENCH_WORKLOADS

from benchmarks.conftest import publish

BENCH_PATH = (pathlib.Path(__file__).resolve().parent.parent
              / "BENCH_snapshot.json")
ITERATIONS = 20
HEADLINE = ("cv32e40p", "vanilla")
#: Gated: warm suite vs cold suite wall-clock ratio.
WARM_SPEEDUP_GATE = 3.0
#: Gated: the populate pass (cold + capture) may cost at most this much
#: more than the plain cold pass.
CAPTURE_OVERHEAD_CEILING = 2.0
COLD_REPEATS = 3
#: Gated: vectorised capture+restore vs the bytearray loop.
CAPTURE_SPEEDUP_GATE = 3.0
RAM_BYTES = 1 << 20
CAPTURE_REPEATS = 3


def _write_record(payload: dict) -> None:
    """Write *payload*'s keys to ``BENCH_snapshot.json``, keeping the
    keys the other test of this file wrote."""
    record = (json.loads(BENCH_PATH.read_text()) if BENCH_PATH.exists()
              else {})
    record.update(bench_record("snapshot_speed", payload))
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")


def _suite_pass(core, config, monkey_env=None):
    import os

    saved = os.environ.get("REPRO_SNAPSHOT")
    if monkey_env is not None:
        os.environ["REPRO_SNAPSHOT"] = monkey_env
    else:
        os.environ.pop("REPRO_SNAPSHOT", None)
    try:
        start = time.perf_counter()
        suite = run_suite(core, config, iterations=ITERATIONS)
        wall = time.perf_counter() - start
    finally:
        if saved is None:
            os.environ.pop("REPRO_SNAPSHOT", None)
        else:
            os.environ["REPRO_SNAPSHOT"] = saved
    return suite, wall


def _suite_obs(suite):
    return [
        {
            "workload": run.workload,
            "latencies": run.latencies,
            "switches": [dataclasses.asdict(s) for s in run.switches],
            "cycles": run.cycles,
            "instret": run.instret,
            "core_stats": dict(vars(run.core_stats)),
        }
        for run in suite.runs
    ]


def test_warm_start_speedup():
    core, config_name = HEADLINE
    config = parse_config(config_name)

    # Cold: warm-start off, and no memoized builds left over. Best of
    # N so machine-load noise cannot fake a speedup regression.
    cold_walls = []
    for _ in range(COLD_REPEATS):
        reset_store()
        reset_program_cache()
        cold_suite, wall = _suite_pass(core, config, monkey_env="0")
        cold_walls.append(wall)
    cold_wall = min(cold_walls)

    reset_store()
    reset_program_cache()
    populate_suite, populate_wall = _suite_pass(core, config)
    warm_suite, warm_wall = _suite_pass(core, config)
    stats = store().stats

    # -- identity: warm results replay the cold ones byte-for-byte ------
    cold_obs = _suite_obs(cold_suite)
    assert _suite_obs(populate_suite) == cold_obs
    assert _suite_obs(warm_suite) == cold_obs
    for factory in RTOSBENCH_WORKLOADS:
        workload = factory(iterations=ITERATIONS)
        builder = KernelBuilder(config=config, objects=workload.objects,
                                tick_period=workload.tick_period)
        reference = builder.build(core,
                                  external_events=workload.external_events)
        reference.run(workload.max_cycles)
        warm_system = final_system(core, config, workload)
        assert warm_system is not None
        assert [list(b) for b in warm_system.core.banks] == \
            [list(b) for b in reference.core.banks], (
                f"{workload.name}: final register banks diverged warm vs "
                f"cold")
        assert bytes(warm_system.memory.data) == bytes(reference.memory.data)

    # -- boundary tier: evict finals, keep boundary snapshots, re-run ---
    layout = MemoryLayout()
    for factory in RTOSBENCH_WORKLOADS:
        workload = factory(iterations=ITERATIONS)
        builder = KernelBuilder(config=config, objects=workload.objects,
                                layout=layout, tick_period=workload.tick_period)
        key = snapshot_key(core, config, layout, workload, builder.source())
        entry = store().peek(key)
        assert entry is not None, f"{workload.name}: no snapshot entry"
        assert entry.boundary is not None, (
            f"{workload.name}: no boundary snapshot captured")
        entry.final = None
    boundary_hits_before = store().stats.boundary_hits
    boundary_suite, boundary_wall = _suite_pass(core, config)
    boundary_hits = store().stats.boundary_hits - boundary_hits_before
    assert _suite_obs(boundary_suite) == cold_obs
    stats = store().stats

    speedup = cold_wall / warm_wall if warm_wall else float("inf")
    capture_overhead = populate_wall / cold_wall if cold_wall else 1.0
    record = {
        "iterations": ITERATIONS,
        "workloads": len(RTOSBENCH_WORKLOADS),
        "headline": {"core": core, "config": config_name,
                     "speedup_gate": WARM_SPEEDUP_GATE,
                     "capture_overhead_ceiling": CAPTURE_OVERHEAD_CEILING},
        "cold_wall_s": round(cold_wall, 4),
        "populate_wall_s": round(populate_wall, 4),
        "warm_wall_s": round(warm_wall, 4),
        "boundary_wall_s": round(boundary_wall, 4),
        "speedup": round(speedup, 2),
        "capture_overhead": round(capture_overhead, 3),
        "boundary_hits": boundary_hits,
        "store": stats.as_dict(),
    }
    _write_record(record)
    publish("bench_snapshot_speed", "\n".join([
        f"cold     {cold_wall * 1000:8.1f} ms  (best of {COLD_REPEATS})",
        f"populate {populate_wall * 1000:8.1f} ms  "
        f"(overhead {capture_overhead:.2f}x)",
        f"warm     {warm_wall * 1000:8.1f} ms  (speedup {speedup:.1f}x)",
        f"boundary {boundary_wall * 1000:8.1f} ms  "
        f"({boundary_hits} boundary hits)",
        f"store    {stats.final_hits} final hits / "
        f"{stats.boundary_hits} boundary hits / {stats.misses} misses",
    ]))

    assert stats.final_hits == len(RTOSBENCH_WORKLOADS), (
        "warm pass did not replay every workload from the store")
    assert boundary_hits >= len(RTOSBENCH_WORKLOADS), (
        "boundary pass did not resume every workload from its "
        "first-measured-switch snapshot")
    assert stats.boundary_hits > 0
    assert speedup >= WARM_SPEEDUP_GATE, (
        f"warm-start speedup {speedup:.2f}x below the "
        f"{WARM_SPEEDUP_GATE}x gate")
    assert capture_overhead <= CAPTURE_OVERHEAD_CEILING, (
        f"populate pass costs {capture_overhead:.2f}x cold: snapshot "
        f"capture overhead regressed")


def _dirty_ram() -> bytearray:
    rng = random.Random(1234)
    data = bytearray(RAM_BYTES)
    for _ in range(200):
        addr = rng.randrange(0, RAM_BYTES - 64)
        data[addr:addr + 64] = rng.randbytes(64)
    return data


def _capture_cycle_cost(env_value: str | None, monkeypatch) -> float:
    """Best mean seconds per capture-diff-restore cycle on one backend."""
    if env_value is None:
        monkeypatch.delenv("REPRO_NUMPY", raising=False)
    else:
        monkeypatch.setenv("REPRO_NUMPY", env_value)
    rng = random.Random(99)
    data = _dirty_ram()
    base = capture_image(data)
    cycles = 30
    best = float("inf")
    for _ in range(CAPTURE_REPEATS):
        start = time.perf_counter()
        for _ in range(cycles):
            addr = rng.randrange(0, RAM_BYTES - 4)
            data[addr:addr + 4] = rng.randbytes(4)
            capture_image(data, base)
            restore_image(data, base)
            base = capture_image(data, base)
        best = min(best, (time.perf_counter() - start) / cycles)
    return best


@pytest.mark.skipif(get_numpy() is None,
                    reason="the substrate gate needs numpy")
def test_vectorised_capture_speedup(monkeypatch):
    numpy_cost = _capture_cycle_cost(None, monkeypatch)
    loop_cost = _capture_cycle_cost("0", monkeypatch)
    monkeypatch.delenv("REPRO_NUMPY", raising=False)
    speedup = loop_cost / numpy_cost
    _write_record({"capture": {
        "ram_bytes": RAM_BYTES,
        "numpy_ms": round(numpy_cost * 1000.0, 4),
        "loop_ms": round(loop_cost * 1000.0, 4),
        "speedup": round(speedup, 2),
        "gate": CAPTURE_SPEEDUP_GATE,
    }})
    publish("bench_snapshot_capture",
            f"capture/restore 1 MiB: numpy {numpy_cost * 1000:.2f} ms, "
            f"loop {loop_cost * 1000:.2f} ms "
            f"({speedup:.1f}x, gate {CAPTURE_SPEEDUP_GATE:.1f}x)")
    assert speedup >= CAPTURE_SPEEDUP_GATE, (
        f"vectorised capture/restore only {speedup:.2f}x the loop path "
        f"(gate {CAPTURE_SPEEDUP_GATE}x)")
