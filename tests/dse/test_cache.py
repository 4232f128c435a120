"""Content-addressed cache: hits, misses, invalidation, resume."""

import json

import pytest

from repro.dse import (
    DSEExecutor,
    GridPoint,
    ResultCache,
    source_fingerprint,
)
from repro.dse import executor as executor_module
from repro.dse.cache import CACHE_SCHEMA, stamp_payload
from repro.harness.export import run_dict

from tests.dse.helpers import CONTENTS, reference_payload, seeded_grid

POINT = GridPoint("cv32e40p", "SLT", "yield_pingpong", iterations=2, seed=1)
PAYLOAD = {"core": "cv32e40p", "config": "SLT", "seed": POINT.run_seed,
           "latencies": [69, 70]}


class TestFingerprint:
    def test_stable_within_process(self):
        assert source_fingerprint() == source_fingerprint()
        assert len(source_fingerprint()) == 16


class TestResultCache:
    def test_miss_then_hit(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert cache.get(POINT) is None
        cache.put(POINT, PAYLOAD)
        assert cache.get(POINT) == PAYLOAD
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1
        assert cache.stats.stores == 1
        assert cache.stats.hit_rate == 0.5

    def test_key_depends_on_every_axis(self, tmp_path):
        cache = ResultCache(tmp_path)
        base = cache.key(POINT)
        for other in (
            GridPoint("cva6", "SLT", "yield_pingpong", 2, 1),
            GridPoint("cv32e40p", "T", "yield_pingpong", 2, 1),
            GridPoint("cv32e40p", "SLT", "sem_signal", 2, 1),
            GridPoint("cv32e40p", "SLT", "yield_pingpong", 3, 1),
        ):
            assert cache.key(other) != base
        # The seed is recorded bookkeeping, not content.
        assert cache.key(GridPoint("cv32e40p", "SLT", "yield_pingpong",
                                   2, 2)) == base

    def test_source_change_invalidates(self, tmp_path):
        old = ResultCache(tmp_path, fingerprint="aaaa")
        old.put(POINT, PAYLOAD)
        new = ResultCache(tmp_path, fingerprint="bbbb")
        assert new.get(POINT) is None
        assert new.stats.invalidated == 1
        assert len(list(tmp_path.glob("*.json"))) == 0

    def test_corrupt_entry_is_dropped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(POINT, PAYLOAD)
        cache.path(POINT).write_text("not json{")
        assert cache.get(POINT) is None
        assert cache.stats.corrupt_evictions == 1
        assert not cache.path(POINT).exists()

    def test_payload_digest_verified_on_read(self, tmp_path):
        # A decodable entry whose payload no longer matches its stored
        # digest (silent disk rot) must be evicted, not served.
        cache = ResultCache(tmp_path)
        cache.put(POINT, PAYLOAD)
        path = cache.path(POINT)
        entry = json.loads(path.read_text())
        entry["run"]["latencies"] = [1, 2]  # rot: digest now stale
        path.write_text(json.dumps(entry))
        assert cache.get(POINT) is None
        assert cache.stats.corrupt_evictions == 1
        assert not path.exists()
        # The tier self-heals: a re-store serves clean hits again.
        cache.put(POINT, PAYLOAD)
        assert cache.get(POINT) == PAYLOAD

    def test_flipped_byte_in_payload_detected(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(POINT, PAYLOAD)
        path = cache.path(POINT)
        blob = bytearray(path.read_bytes())
        # Flip a digit inside the served payload: still valid JSON, but
        # the content no longer matches the stored digest.
        pos = blob.index(b"69", blob.index(b'"run"'))
        blob[pos] ^= 0x01
        path.write_bytes(bytes(blob))
        assert cache.get(POINT) is None
        assert cache.stats.corrupt_evictions == 1

    def test_len_counts_entries(self, tmp_path):
        cache = ResultCache(tmp_path)
        assert len(cache) == 0
        cache.put(POINT, PAYLOAD)
        assert len(cache) == 1


class TestStampPayload:
    """The payload stamp swaps the seed and changes nothing else."""

    RUN = {"core": "cv32e40p", "seed": 17, "config": "SLT",
           "latencies": [69, 70]}

    def test_sets_the_points_seed_and_keeps_key_order(self):
        assert POINT.run_seed != self.RUN["seed"]
        stamped = stamp_payload(self.RUN, POINT)
        assert stamped == dict(self.RUN, seed=POINT.run_seed)
        assert list(stamped) == list(self.RUN)

    def test_leaves_the_stored_payload_untouched(self):
        before = json.dumps(self.RUN)
        stamp_payload(self.RUN, POINT)
        assert json.dumps(self.RUN) == before


class TestSeedStamp:
    """One entry per content; every hit carries the asking point's seed."""

    RUN = {"core": "cv32e40p", "config": "SLT", "workload": "yield_pingpong",
           "seed": POINT.run_seed, "latencies": [69, 70]}

    def test_entry_names_and_stores_content_only(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(POINT, self.RUN)
        path = cache.path(POINT)
        assert path.name.startswith("cv32e40p-SLT-yield_pingpong-i2.")
        entry = json.loads(path.read_text())
        assert entry["schema"] == CACHE_SCHEMA == 4
        assert entry["point"] == {"core": "cv32e40p", "config": "SLT",
                                  "workload": "yield_pingpong",
                                  "iterations": 2}
        # The stored run keeps the writer's seed; readers stamp their own.
        assert entry["run"] == self.RUN

    def test_hit_under_another_seed_is_stamped(self, tmp_path):
        cache = ResultCache(tmp_path)
        cache.put(POINT, self.RUN)
        other = GridPoint("cv32e40p", "SLT", "yield_pingpong", 2, seed=9)
        payload = cache.get(other)
        assert payload == dict(self.RUN, seed=other.run_seed)
        assert cache.get(POINT) == self.RUN
        assert cache.stats.hits == 2 and len(cache) == 1

    def test_rot_is_evicted_even_when_stamped_over(self, tmp_path):
        # The digest covers the stored bytes, checked before the stamp:
        # a rotted seed field is caught although the stamp replaces it.
        cache = ResultCache(tmp_path)
        cache.put(POINT, self.RUN)
        path = cache.path(POINT)
        entry = json.loads(path.read_text())
        entry["run"]["seed"] += 1
        path.write_text(json.dumps(entry))
        other = GridPoint("cv32e40p", "SLT", "yield_pingpong", 2, seed=9)
        assert cache.get(other) is None
        assert cache.stats.corrupt_evictions == 1
        assert not path.exists()

    def test_stale_entry_is_reaped_under_any_seed(self, tmp_path):
        ResultCache(tmp_path, fingerprint="aaaa").put(POINT, self.RUN)
        cache = ResultCache(tmp_path, fingerprint="bbbb")
        other = GridPoint("cv32e40p", "SLT", "yield_pingpong", 2, seed=9)
        assert cache.get(other) is None
        assert cache.stats.invalidated == 1
        assert len(cache) == 0

    def test_one_file_per_content(self, tmp_path):
        cache = ResultCache(tmp_path)
        DSEExecutor(jobs=1, cache=cache).run(seeded_grid())
        assert len(cache) == len(CONTENTS)
        assert cache.stats.stores == len(CONTENTS)
        assert cache.stats.misses == len(CONTENTS)

    def test_warm_run_at_new_seed_is_all_hits(self, tmp_path, monkeypatch):
        DSEExecutor(jobs=1, cache=ResultCache(tmp_path)).run(seeded_grid())
        executed = []
        monkeypatch.setattr(executor_module, "execute_point",
                            lambda point: executed.append(point))
        warm = ResultCache(tmp_path)
        grid = seeded_grid(seeds=(7, 8))
        runs = DSEExecutor(jobs=1, cache=warm).run(grid)
        assert executed == []
        assert warm.stats.hits == len(CONTENTS)
        assert warm.stats.misses == 0
        for point in grid:
            assert runs[point].seed == point.run_seed
            assert run_dict(runs[point]) == reference_payload(point)

    def test_corrupt_entry_is_recomputed(self, tmp_path, monkeypatch):
        DSEExecutor(jobs=1, cache=ResultCache(tmp_path)).run(seeded_grid())
        grid = seeded_grid(seeds=(5, 6))
        warm = ResultCache(tmp_path)
        path = warm.path(grid[0])
        blob = path.read_bytes()
        pos = blob.index(b'"cycles": ') + len(b'"cycles": ')
        path.write_bytes(blob[:pos] + b"1" + blob[pos:])  # still JSON
        executed = []
        real = executor_module.execute_point

        def counting(point):
            executed.append(point)
            return real(point)

        monkeypatch.setattr(executor_module, "execute_point", counting)
        runs = DSEExecutor(jobs=1, cache=warm).run(grid)
        assert warm.stats.corrupt_evictions == 1
        assert executed == [grid[0]]
        assert warm.stats.hits == len(CONTENTS) - 1
        for point in grid:
            assert run_dict(runs[point]) == reference_payload(point)
        assert ResultCache(tmp_path).get(grid[0]) == \
            reference_payload(grid[0])

    def test_schema3_seed_files_are_reaped(self, tmp_path):
        # Schema 3 named entries per seed: <content>-s<seed>.<key>.json.
        old = [tmp_path / f"cv32e40p-SLT-yield_pingpong-i2-s{seed}."
               f"0123456789abcdef.json" for seed in (1, 42)]
        other = tmp_path / ("cv32e40p-SLT-yield_pingpong-i20-s1."
                            "0123456789abcdef.json")
        for path in (*old, other):
            path.write_text(json.dumps({"schema": 3, "run": PAYLOAD}))
        cache = ResultCache(tmp_path)
        assert len(cache) == 3
        assert cache.get(POINT) is None
        assert cache.stats.invalidated == 2
        assert not any(path.exists() for path in old)
        assert other.exists()  # another content (20 iterations)
        cache.put(POINT, PAYLOAD)
        assert len(cache) == 2


class TestResumeFromCache:
    def test_interrupted_sweep_resumes_from_the_cache(self, tmp_path):
        grid = seeded_grid()

        class Interrupted(Exception):
            pass

        def interrupt(_point, _run, _from_cache):
            raise Interrupted

        # Interrupted as the first content completes: it is stored
        # before progress fires, the second content never runs.
        with pytest.raises(Interrupted):
            DSEExecutor(cache=ResultCache(tmp_path),
                        progress=interrupt).run(grid)

        cache = ResultCache(tmp_path)
        runs = DSEExecutor(cache=cache).run(grid)
        stats = cache.stats
        assert (stats.hits, stats.misses, stats.stores) == (1, 1, 1)
        uncached = DSEExecutor().run(grid)
        assert list(runs) == list(uncached) == grid
        assert ([run_dict(run) for run in runs.values()]
                == [run_dict(run) for run in uncached.values()])
