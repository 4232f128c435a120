"""Serial/parallel and cold/warm byte-identity of sweep exports.

The acceptance property of the whole subsystem: for a fixed seed, the
JSON a sweep exports is a pure function of the grid — not of the number
of worker processes and not of the cache state.
"""

from repro.dse import ResultCache
from repro.harness import sweep, sweep_dict, write_json
from repro.workloads import delay_periodic, yield_pingpong

GRID = dict(cores=("cv32e40p",), configs=("vanilla", "SLT"), iterations=2,
            workloads=(yield_pingpong, delay_periodic), seed=7)


def _export(tmp_path, name, results):
    path = tmp_path / name
    write_json(str(path), sweep_dict(results))
    return path.read_bytes()


class TestSerialParallelIdentity:
    def test_jobs1_vs_jobs4_byte_identical(self, tmp_path):
        serial = _export(tmp_path, "serial.json", sweep(jobs=1, **GRID))
        parallel = _export(tmp_path, "parallel.json", sweep(jobs=4, **GRID))
        assert serial == parallel

    def test_seed_is_recorded_per_grid_position(self):
        results = sweep(jobs=1, **GRID)
        again = sweep(jobs=4, **GRID)
        for key, suite in results.items():
            for run, rerun in zip(suite.runs, again[key].runs):
                assert run.seed == rerun.seed
                assert run.seed != 0

    def test_different_seed_changes_export_not_latencies(self, tmp_path):
        a = sweep(jobs=1, **GRID)
        b = sweep(jobs=1, **dict(GRID, seed=8))
        key = ("cv32e40p", "SLT")
        # The simulation is deterministic: latencies don't move...
        assert a[key].runs[0].latencies == b[key].runs[0].latencies
        # ...but the recorded per-run seeds do (cache keys do not).
        assert a[key].runs[0].seed != b[key].runs[0].seed


class TestWarmCacheIdentity:
    def test_cold_and_warm_exports_byte_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "cache")
        cold = _export(tmp_path, "cold.json", sweep(cache=cache, **GRID))
        assert cache.stats.misses == 4 and cache.stats.hits == 0
        warm_cache = ResultCache(tmp_path / "cache")
        warm = _export(tmp_path, "warm.json",
                       sweep(cache=warm_cache, **GRID))
        assert warm_cache.stats.hits == 4 and warm_cache.stats.misses == 0
        assert cold == warm
