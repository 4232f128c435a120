"""Timing-model behaviour of the in-order and OoO cores."""

from repro.cores import CORE_CLASSES, CV32E40P, CVA6, NaxRiscv
from tests.cores.helpers import run_fragment


def cycles_of(source: str, core: str = "cv32e40p") -> int:
    return run_fragment(source, core=core).core.cycle


class TestInOrderTiming:
    def test_alu_chain_is_one_per_cycle(self):
        base = cycles_of("nop\n")
        ten = cycles_of("nop\n" * 11)
        assert ten - base == 10

    def test_load_use_stall(self):
        """Consuming a load result in the next instruction stalls."""
        independent = cycles_of(
            "li a0, 0x1000\nlw a1, 0(a0)\nadd a2, a3, a4\n")
        dependent = cycles_of(
            "li a0, 0x1000\nlw a1, 0(a0)\nadd a2, a1, a1\n")
        assert dependent == independent + 1

    def test_taken_branch_penalty(self):
        not_taken = cycles_of("li a0, 1\nbeqz a0, skip\nnop\nskip: nop\n")
        taken = cycles_of("li a0, 0\nbeqz a0, skip\nnop\nskip: nop\n")
        # Taken skips one instruction (-1) but pays the flush (+2).
        assert taken == not_taken + CV32E40P.PARAMS.branch_taken_penalty - 1

    def test_div_occupies_pipeline(self):
        fast = cycles_of("li a0, 100\nli a1, 7\nmul a2, a0, a1\n")
        slow = cycles_of("li a0, 100\nli a1, 7\ndiv a2, a0, a1\n")
        assert slow - fast >= 30

    def test_mul_latency_hidden_if_not_consumed(self):
        spaced = cycles_of(
            "li a0, 3\nmul a1, a0, a0\nnop\nnop\nadd a2, a1, a1\n")
        tight = cycles_of(
            "li a0, 3\nmul a1, a0, a0\nadd a2, a1, a1\nnop\nnop\n")
        assert spaced <= tight + 1


class TestCVA6Timing:
    def test_cache_warm_loads_faster(self):
        cold_then_warm = """
    li   a0, 0x1000
    lw   a1, 0(a0)
    lw   a2, 0(a0)
"""
        system = run_fragment(cold_then_warm, core="cva6")
        assert system.core.dcache.hits >= 1
        assert system.core.dcache.misses >= 1

    def test_predictor_learns_loop_branch(self):
        loop = """
    li   a0, 50
loop:
    addi a0, a0, -1
    bnez a0, loop
"""
        system = run_fragment(loop, core="cva6")
        predictor = system.core.predictor
        assert predictor.mispredictions < predictor.predictions / 4

    def test_write_through_stores_hit_bus(self):
        system = run_fragment(
            "li a0, 0x1000\nli a1, 1\nsw a1, 0(a0)\nsw a1, 4(a0)\n",
            core="cva6")
        assert system.timeline.core_cycles >= 2


class TestNaxRiscvTiming:
    def test_dual_issue_beats_scalar_on_independent_code(self):
        independent = "\n".join(
            f"    addi x{5 + (i % 8)}, x0, {i}" for i in range(64)) + "\n"
        nax = cycles_of(independent, core="naxriscv")
        scalar = cycles_of(independent, core="cv32e40p")
        assert nax < scalar

    def test_dependent_chain_no_dual_issue_benefit(self):
        chain = "    li a0, 0\n" + "    addi a0, a0, 1\n" * 64
        nax = cycles_of(chain, core="naxriscv")
        # A fully dependent chain issues one per cycle at best.
        assert nax >= 64

    def test_mispredict_penalty_visible(self):
        # Alternating branch direction defeats the bimodal predictor.
        src = """
    li   s0, 40
    li   s1, 0
loop:
    andi t0, s0, 1
    beqz t0, even
    addi s1, s1, 1
even:
    addi s0, s0, -1
    bnez s0, loop
"""
        system = run_fragment(src, core="naxriscv")
        assert system.core.stats.mispredicts > 5

    def test_cache_shared_with_rtosunit_frame_cost(self):
        system = run_fragment("nop\n", core="naxriscv")
        core = system.core
        addr = 0x2000
        first = core.rtosunit_frame_cost(addr, [0], False)
        second = core.rtosunit_frame_cost(addr, [0], False)
        assert first > second == 1  # miss then hit


class TestStatsAccounting:
    def test_instret_counts(self):
        system = run_fragment("nop\nnop\nnop\n")
        # 3 nops + 2 halt-tail instructions (li is one instruction here).
        assert system.core.stats.instret >= 5

    def test_load_store_counters(self):
        system = run_fragment(
            "li a0, 0x1000\nsw a0, 0(a0)\nlw a1, 0(a0)\n")
        assert system.core.stats.loads == 1
        assert system.core.stats.stores >= 2  # data store + halt store

    def test_branch_counters(self):
        system = run_fragment("li a0, 2\nl: addi a0, a0, -1\nbnez a0, l\n")
        assert system.core.stats.branches == 2
        assert system.core.stats.taken_branches == 1
