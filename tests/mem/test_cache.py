"""Cache timing models: hits, misses, LRU, invalidation."""

import random

import pytest

from repro.errors import ConfigurationError
from repro.mem.cache import CacheModel, WriteBackCache, WriteThroughCache


class TestBasics:
    def test_cold_miss_then_hit(self):
        cache = CacheModel(size_bytes=1024, line_bytes=32, ways=2)
        assert not cache.lookup(0x100, is_write=False)
        assert cache.lookup(0x100, is_write=False)

    def test_same_line_hits(self):
        cache = CacheModel(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0x100, is_write=False)
        assert cache.lookup(0x11C, is_write=False)  # same 32-byte line

    def test_different_line_misses(self):
        cache = CacheModel(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0x100, is_write=False)
        assert not cache.lookup(0x120, is_write=False)

    def test_stats(self):
        cache = CacheModel(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0, False)
        cache.lookup(0, False)
        assert (cache.hits, cache.misses) == (1, 1)

    def test_bad_geometry_rejected(self):
        with pytest.raises(ConfigurationError):
            CacheModel(size_bytes=1000, line_bytes=32, ways=3)


class TestReplacement:
    def test_lru_eviction(self):
        cache = CacheModel(size_bytes=64, line_bytes=32, ways=2)  # 1 set
        cache.lookup(0x000, False)
        cache.lookup(0x020, False)
        cache.lookup(0x040, False)  # evicts 0x000
        assert not cache.contains(0x000)
        assert cache.contains(0x020)
        assert cache.contains(0x040)

    def test_lru_refreshed_by_hit(self):
        cache = CacheModel(size_bytes=64, line_bytes=32, ways=2)
        cache.lookup(0x000, False)
        cache.lookup(0x020, False)
        cache.lookup(0x000, False)  # refresh
        cache.lookup(0x040, False)  # evicts 0x020, not 0x000
        assert cache.contains(0x000)
        assert not cache.contains(0x020)


class TestWritePolicies:
    def test_write_through_no_allocate(self):
        cache = WriteThroughCache(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0x100, is_write=True)
        assert not cache.contains(0x100)

    def test_write_through_write_hits_existing_line(self):
        cache = WriteThroughCache(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0x100, is_write=False)
        assert cache.lookup(0x100, is_write=True)

    def test_write_back_allocates_on_write(self):
        cache = WriteBackCache(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0x100, is_write=True)
        assert cache.contains(0x100)


class TestInvalidation:
    def test_invalidate_line(self):
        """CV32RT on NaxRiscv invalidates the bypassed snapshot lines."""
        cache = WriteBackCache(size_bytes=1024, line_bytes=32, ways=2)
        cache.lookup(0x200, False)
        cache.invalidate_line(0x200)
        assert not cache.contains(0x200)

    def test_invalidate_missing_line_is_noop(self):
        cache = WriteBackCache(size_bytes=1024, line_bytes=32, ways=2)
        cache.invalidate_line(0x200)  # must not raise
        assert not cache.contains(0x200)


class _ReferenceCache:
    """Plain-list LRU model: one list per set, most recent way last."""

    def __init__(self, cache):
        self.line_bytes = cache.line_bytes
        self.ways = cache.ways
        self.write_allocate = cache.write_allocate
        self.sets = [[] for _ in range(cache.sets)]
        self.hits = self.misses = 0

    def _set(self, addr):
        line = addr // self.line_bytes
        return self.sets[line % len(self.sets)], line

    def lookup(self, addr, is_write):
        ways, line = self._set(addr)
        if line in ways:
            ways.remove(line)
            ways.append(line)
            self.hits += 1
            return True
        self.misses += 1
        if not is_write or self.write_allocate:
            ways.append(line)
            if len(ways) > self.ways:
                del ways[0]
        return False

    def invalidate_line(self, addr):
        ways, line = self._set(addr)
        if line in ways:
            ways.remove(line)


class TestAgainstReference:
    @pytest.mark.parametrize("seed", range(8))
    @pytest.mark.parametrize("cls", [WriteThroughCache, WriteBackCache])
    def test_random_traffic_matches_plain_lru(self, cls, seed):
        # Few sets and lines, so hits on the MRU way, hits deeper in a
        # set, conflict evictions and invalidations all occur.
        rng = random.Random(seed)
        cache = cls(size_bytes=256, line_bytes=32, ways=2)  # 4 sets
        ref = _ReferenceCache(cache)
        for _ in range(2000):
            addr = rng.randrange(0, 24 * 32, 4)
            if rng.random() < 0.05:
                cache.invalidate_line(addr)
                ref.invalidate_line(addr)
                continue
            is_write = rng.random() < 0.3
            assert cache.lookup(addr, is_write) == ref.lookup(addr, is_write)
        assert (cache.hits, cache.misses) == (ref.hits, ref.misses)
        assert ref.hits and ref.misses
        for index, ways in enumerate(ref.sets):
            assert cache._lines.get(index, []) == ways
