"""NaxRiscv-specific behaviour (§5.3): OoO timing, LSU, ctxQueue costs."""

from hypothesis import given, settings, strategies as st

from repro.cores import NaxRiscv, build_system
from repro.mem.cache import WriteBackCache
from repro.rtosunit.config import parse_config
from tests.cores.helpers import run_fragment


def cycles_of(source: str) -> int:
    return run_fragment(source, core="naxriscv").core.cycle


class TestLSUSerialisation:
    def test_memory_ops_single_port(self):
        """Bursts of independent stores cannot dual-issue: one LSU."""
        stores = "    li a0, 0x1000\n" + "".join(
            f"    sw a0, {4 * i}(a0)\n" for i in range(24))
        alus = "    li a0, 0x1000\n" + "".join(
            f"    addi x{5 + (i % 8)}, x0, {i}\n" for i in range(24))
        assert cycles_of(stores) > cycles_of(alus)

    def test_miss_occupies_port_longer(self):
        """A cache miss blocks the LSU for part of the refill."""
        same_line = "    li a0, 0x1000\n" + "".join(
            f"    lw a{1 + (i % 5)}, {4 * (i % 8)}(a0)\n" for i in range(16))
        spread_lines = "    li a0, 0x1000\n" + "".join(
            f"    lw a{1 + (i % 5)}, {64 * i}(a0)\n" for i in range(16))
        assert cycles_of(spread_lines) > cycles_of(same_line)


def _cache_state(cache):
    """Each set's LRU order, in the order the sets were first touched,
    and the hit and miss counters."""
    return ([(index, list(ways)) for index, ways in cache._lines.items()],
            cache.hits, cache.misses)


class TestCtxQueueCosts:
    def test_frame_cost_hit_vs_miss(self):
        system = build_system("naxriscv", parse_config("SLT"))
        core = system.core
        miss = core.rtosunit_frame_cost(0x4000, [0], False)
        hit = core.rtosunit_frame_cost(0x4000, [0], False)
        assert miss == 1 + core.params.cache_line_words
        assert hit == 1

    def test_contexts_stay_cacheable(self):
        """§5.3: LSU-level arbitration needs no cache invalidation, so a
        second switch to the same task hits in the D$."""
        system = build_system("naxriscv", parse_config("SLT"))
        region = system.layout.context_region
        slot = region.slot_addr(0)
        system.core.rtosunit_frame_cost(slot, range(32), True)
        assert system.core.rtosunit_frame_cost(slot, range(31), False) == 31

    @settings(max_examples=80, deadline=None)
    @given(geometry=st.sampled_from([(16 * 1024, 4), (256, 2), (64, 2),
                                     (32, 1)]),
           warm=st.lists(st.tuples(st.integers(0, 511), st.booleans()),
                         max_size=24),
           slot=st.integers(0, 255),
           words=st.sets(st.integers(0, 31), min_size=1),
           is_write=st.booleans())
    def test_frame_cost_is_per_word_probes_in_word_order(
            self, geometry, warm, slot, words, is_write):
        """The frame cost, the D$ per-set LRU order and its counters end
        where one ``dcache.lookup`` per word, in word order, leaves them,
        on the real D$ and on small ones whose sets the frame's lines
        share."""
        size, ways = geometry
        core = build_system("naxriscv", parse_config("SLT")).core
        core.dcache = WriteBackCache(size_bytes=size, ways=ways,
                                     line_bytes=32)
        reference = WriteBackCache(size_bytes=size, ways=ways, line_bytes=32)
        for word, write in warm:
            core.dcache.lookup(4 * word, write)
            reference.lookup(4 * word, write)
        slot *= 4
        words = sorted(words)
        miss = 1 + core.params.cache_line_words
        expected = sum(1 if reference.lookup(slot + 4 * index, is_write)
                       else miss for index in words)
        assert core.rtosunit_frame_cost(slot, words, is_write) == expected
        assert _cache_state(core.dcache) == _cache_state(reference)

    def test_cv32rt_invalidation_forces_misses(self):
        """§6: the dedicated-port bypass invalidates the snapshot lines."""
        system = build_system("naxriscv", parse_config("vanilla"))
        core = system.core
        base = 0x3000
        core.dcache.lookup(base, False)
        core.dcache.lookup(base + 32, False)
        assert core.dcache.contains(base)
        core.cv32rt_invalidate(base, 64)
        assert not core.dcache.contains(base)
        assert not core.dcache.contains(base + 32)


class TestOoOWindow:
    def test_independent_chains_overlap(self):
        """Two independent dependency chains interleave on 2-wide issue."""
        single_chain = "    li a0, 1\n" + "    addi a0, a0, 1\n" * 40
        two_chains = ("    li a0, 1\n    li a1, 1\n"
                      + ("    addi a0, a0, 1\n    addi a1, a1, 1\n" * 20))
        assert cycles_of(two_chains) < cycles_of(single_chain) + 5

    def test_custom_commit_delay_charged(self):
        params = NaxRiscv.PARAMS
        assert params.custom_commit_delay >= 1

    def test_csr_serialises_window(self):
        with_csr = ("    li a0, 1\n"
                    + "    csrw mscratch, a0\n" * 8
                    + "    addi a1, a1, 1\n" * 8)
        without = ("    li a0, 1\n"
                   + "    addi a2, a2, 1\n" * 8
                   + "    addi a1, a1, 1\n" * 8)
        assert cycles_of(with_csr) > cycles_of(without) + 8


class TestTrapCosts:
    def test_deep_pipeline_trap_cost(self):
        assert NaxRiscv.PARAMS.trap_entry_cycles > 8
        assert NaxRiscv.PARAMS.mret_cycles > 8
