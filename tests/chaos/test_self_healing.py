"""Chaos-driven self-healing: every cache detects, evicts, recomputes.

The acceptance proof for the hardened read paths: a chaos injection
flips bytes in (or tears) a stored blob mid-run, and the stack still
delivers byte-identical results while the corruption shows up in the
healing counters — never in the payload.
"""

import json

from repro.chaos import ChaosPolicy, ChaosSpec, installed
from repro.dse.cache import ResultCache
from repro.dse.executor import GridPoint, execute_point
from repro.harness.export import run_dict
from repro.kernel.builder import BUILD_CACHE_HEALTH

POINT = GridPoint("cv32e40p", "SLT", "yield_pingpong", iterations=2, seed=0)


def _golden_payload():
    return run_dict(execute_point(POINT))


def _canon(payload):
    return json.dumps(payload, sort_keys=True)


class TestResultCacheHealing:
    def _heal(self, tmp_path, kind):
        cache = ResultCache(tmp_path)
        golden = _golden_payload()
        cache.put(POINT, golden)
        policy = ChaosPolicy(specs=(ChaosSpec(kind, "cache.read", at=1),))
        with installed(policy):
            assert cache.get(POINT) is None  # corrupt entry never served
        assert cache.stats.corrupt_evictions == 1
        cache.put(POINT, golden)
        assert _canon(cache.get(POINT)) == _canon(golden)

    def test_corrupt_blob_detected_and_recomputed(self, tmp_path):
        self._heal(tmp_path, "corrupt_blob")

    def test_truncated_blob_detected_and_recomputed(self, tmp_path):
        self._heal(tmp_path, "truncate_blob")

    def test_partial_write_detected_on_next_read(self, tmp_path):
        cache = ResultCache(tmp_path)
        golden = _golden_payload()
        policy = ChaosPolicy(specs=(
            ChaosSpec("partial_write", "cache.write", at=1),))
        with installed(policy):
            cache.put(POINT, golden)  # torn file under the final name
        assert cache.get(POINT) is None
        assert cache.stats.corrupt_evictions == 1
        cache.put(POINT, golden)
        assert _canon(cache.get(POINT)) == _canon(golden)


class TestBuildCacheHealing:
    def test_corrupt_program_blob_reassembled(self):
        golden = _golden_payload()  # populates the program cache
        policy = ChaosPolicy(specs=(
            ChaosSpec("corrupt_blob", "build.read", at=1),))
        with installed(policy):
            healed = _golden_payload()  # hit fires chaos, digest catches it
        assert BUILD_CACHE_HEALTH.corrupt_evictions == 1
        assert _canon(healed) == _canon(golden)

