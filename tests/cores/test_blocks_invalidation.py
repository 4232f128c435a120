"""Block-cache invalidation: self-modifying code, faults, bank switches.

The block cache caches *decoded* instructions, so anything that mutates
instruction memory — a self-modifying store or an injected bit flip —
must drop the affected blocks, and re-predecoded execution must match
the exact per-instruction path bit-for-bit.
"""

import dataclasses

import pytest

from repro.cores import CORE_CLASSES
from repro.cores.blocks import (K_LINK, MAX_BLOCK_INSTRS,
                                SUPERBLOCK_MAX_RECORDS,
                                SUPERBLOCK_MAX_SEGMENTS, BlockEngine)
from repro.cores.system import System
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultSpec
from repro.isa.assembler import assemble
from repro.kernel.builder import KernelBuilder
from repro.rtosunit.config import parse_config
from repro.workloads.suite import workload_by_name
from tests.cores.helpers import HALT_TAIL, loop_superblocks


def _encoding(line: str) -> int:
    """Word encoding of a single assembly instruction."""
    return assemble("    " + line.strip(), origin=0).words[0]


def _run(source, core="cv32e40p", config="vanilla", blocks=True,
         max_cycles=200_000):
    system = System(CORE_CLASSES[core], parse_config(config),
                    tick_period=1 << 30)
    cpu = system.core
    if blocks:
        cpu.block_engine = BlockEngine(cpu)
    else:
        cpu.block_engine = None
    system.load(assemble(source + HALT_TAIL, origin=0))
    system.run(max_cycles=max_cycles)
    return system


def _state(system):
    core = system.core
    return (core.cycle, vars(core.stats).copy(), list(core.regs), core.pc)


#: Hot loops that close on their own head: 60 trips, enough to promote.
SELF_LOOP = """
    li   s0, 60
loop:
    addi s1, s1, 1
    addi s0, s0, -1
    bnez s0, loop
"""
TWO_BLOCK_LOOP = """
    li   s0, 60
loop:
    addi s1, s1, 1
    bnez s1, mid
mid:
    addi s0, s0, -1
    bnez s0, loop
"""


class TestSelfModifyingStores:
    def test_patched_loop_body_executed_with_both_encodings(self):
        """A loop patches its own body: iteration 1 runs the original
        instruction, later iterations the patched one. Both dispatch
        modes must agree, and block mode must record invalidations."""
        patch = _encoding("addi s1, s1, 16")
        source = f"""
    li   s0, 4
    la   t0, patchme
    la   t1, patchword
    lw   t2, 0(t1)
    j    loop
patchword: .word {patch:#010x}
loop:
patchme:
    addi s1, s1, 1
    sw   t2, 0(t0)
    addi s0, s0, -1
    bnez s0, loop
"""
        on = _run(source, blocks=True)
        off = _run(source, blocks=False)
        assert _state(on) == _state(off)
        # 1 original + 3 patched iterations.
        assert on.core.regs[9] == 1 + 3 * 16
        assert on.core.block_engine.invalidations >= 1

    def test_store_patches_upcoming_instruction_in_same_block(self):
        """The store targets the instruction straight after itself, so
        the stale predecoded record must never execute."""
        patch = _encoding("addi s1, s1, 100")
        source = f"""
    la   t0, target
    la   t1, patchword
    lw   t2, 0(t1)
    j    go
patchword: .word {patch:#010x}
go:
    sw   t2, 0(t0)
target:
    addi s1, s1, 1
"""
        on = _run(source, blocks=True)
        off = _run(source, blocks=False)
        assert _state(on) == _state(off)
        assert on.core.regs[9] == 100

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_parity_across_cores(self, core):
        patch = _encoding("addi s3, s3, 5")
        source = f"""
    li   s0, 3
    la   t0, spot
    la   t1, patchword
    lw   t2, 0(t1)
    j    loop
patchword: .word {patch:#010x}
loop:
    sw   t2, 0(t0)
spot:
    addi s3, s3, 1
    addi s0, s0, -1
    bnez s0, loop
"""
        on = _run(source, core=core, blocks=True)
        off = _run(source, core=core, blocks=False)
        assert _state(on) == _state(off)
        assert on.core.regs[19] == 5 + 5 + 5


class TestInvalidateCode:
    def _ran_system(self):
        return _run("""
    li   s0, 30
loop:
    addi s1, s1, 1
    addi s0, s0, -1
    bnez s0, loop
""")

    def test_invalidate_drops_block_and_decode_entry(self):
        system = self._ran_system()
        core = system.core
        engine = core.block_engine
        word = next(iter(engine.addr_map))
        assert word in core._decode_cache
        core.invalidate_code(word)
        assert word not in engine.addr_map
        assert word not in core._decode_cache
        assert all(word not in b.addrs for b in engine.cache.values())

    def test_fault_mode_keeps_decode_cache_stale(self):
        """``decode_cache=False`` (fault-campaign semantics): the block
        side is dropped so it stays coherent with the decode cache, but
        the decode entry itself survives — blocks rebuild through it."""
        system = self._ran_system()
        core = system.core
        engine = core.block_engine
        word = next(iter(engine.addr_map))
        core.invalidate_code(word, decode_cache=False)
        assert word not in engine.addr_map
        assert word in core._decode_cache

    def test_injected_mem_flip_drops_covering_blocks(self):
        system = self._ran_system()
        core = system.core
        engine = core.block_engine
        word = next(iter(engine.addr_map))
        before = core.mem.read_word_raw(word)
        injector = FaultInjector(
            system, [FaultSpec(kind="mem_flip", cycle=0, target=word, bit=3)])
        injector.on_step(core)
        assert injector.done
        assert core.mem.read_word_raw(word) == before ^ 8
        assert word not in engine.addr_map
        # Campaign contract: the decode cache is deliberately left alone.
        assert word in core._decode_cache


class TestSuperblockInvalidation:
    """Promoted superblocks obey the same lockstep invalidation contract
    as plain blocks: any write into a covered range — raw poke, fault
    flip or self-modifying store — must drop every chained trace."""

    def _hot_system(self, source):
        """Run a loop long enough to promote its back-edge superblock.

        Both hot loops close on their own head, so the superblock is the
        loop unrolled: the self-loop repeats its one block, the
        two-block loop (split by its mid-loop branch) repeats the pair.
        """
        system = _run(source)
        supers = loop_superblocks(system.core.block_engine)
        assert supers
        return system, supers[0]

    def _assert_raw_write_drops(self, source):
        system, sb = self._hot_system(source)
        engine = system.core.block_engine
        # Dirty the *last* covered word so the whole chain must go, not
        # just the head segment.
        word = sb.addrs[-1]
        system.memory.write_word_raw(word, _encoding("nop"))
        assert all(word not in b.addrs for b in engine.cache.values())
        assert sb.entry not in engine.cache

    def _assert_fault_flip_drops(self, source):
        system, sb = self._hot_system(source)
        engine = system.core.block_engine
        word = sb.addrs[-1]
        injector = FaultInjector(
            system, [FaultSpec(kind="mem_flip", cycle=0, target=word, bit=3)])
        injector.on_step(system.core)
        assert injector.done
        assert all(word not in b.addrs for b in engine.cache.values())
        assert sb.entry not in engine.cache

    def test_raw_write_drops_covering_superblock(self):
        self._assert_raw_write_drops(TWO_BLOCK_LOOP)

    def test_raw_write_drops_self_loop_superblock(self):
        self._assert_raw_write_drops(SELF_LOOP)

    def test_fault_flip_drops_covering_superblock(self):
        self._assert_fault_flip_drops(TWO_BLOCK_LOOP)

    def test_fault_flip_drops_self_loop_superblock(self):
        self._assert_fault_flip_drops(SELF_LOOP)

    def test_smc_after_promotion_stays_exact(self):
        """A loop hot enough to be promoted patches its own body on a
        second pass: the stale superblock must never replay the old
        encoding, and both dispatch modes must agree bit-for-bit."""
        patch = _encoding("addi s1, s1, 50")
        source = f"""
    li   s0, 24
    j    loop
patchword: .word {patch:#010x}
loop:
body:
    addi s1, s1, 1
    bnez s1, mid
mid:
    addi s0, s0, -1
    bnez s0, loop
    bnez s2, done
    li   s2, 1
    la   t0, body
    la   t1, patchword
    lw   t2, 0(t1)
    sw   t2, 0(t0)
    li   s0, 8
    j    loop
done:
"""
        on = _run(source, blocks=True)
        off = _run(source, blocks=False)
        assert _state(on) == _state(off)
        # 24 original + 8 patched iterations.
        assert on.core.regs[9] == 24 + 8 * 50
        engine = on.core.block_engine
        assert engine.superblocks > 0
        assert engine.invalidations >= 1

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_smc_into_self_loop_tail_stays_exact(self, core):
        """A promoted self-loop's back-edge (its superblock's last word)
        is patched to branch to the loop's second instruction: the
        unrolled superblock must drop, and every later trip must skip
        the first instruction in both dispatch modes."""
        patch = assemble("""
skip:
    addi s0, s0, -1
    bnez s0, skip
""", origin=0).words[4]
        source = f"""
    li   s0, 24
    j    loop
patchword: .word {patch:#010x}
loop:
    addi s1, s1, 1
    addi s0, s0, -1
tail:
    bnez s0, loop
    bnez s2, done
    li   s2, 1
    la   t0, tail
    la   t1, patchword
    lw   t2, 0(t1)
    sw   t2, 0(t0)
    li   s0, 8
    j    loop
done:
"""
        on = _run(source, core=core, blocks=True)
        off = _run(source, core=core, blocks=False)
        assert _state(on) == _state(off)
        # 24 original trips + the first instruction of the patched pass.
        assert on.core.regs[9] == 24 + 1
        engine = on.core.block_engine
        assert engine.superblocks > 0
        assert engine.invalidations >= 1


#: Counted loops: a 40-trip pass promotes the loop superblock, then a
#: second pass of ``{trips}`` trips leaves it at the guard that trip
#: count reaches. Keyed by shape, with the blocks per iteration.
COUNTED_LOOPS = {
    "self_loop": (1, """
    li   s0, 40
    li   s2, 2
loop:
    addi s1, s1, 3
    addi s0, s0, -1
    bnez s0, loop
    addi s2, s2, -1
    li   s0, {trips}
    bnez s2, loop
"""),
    "two_block_bnez": (2, """
    li   s0, 40
    li   s2, 2
loop:
    addi s1, s1, 3
    bnez s1, mid
mid:
    addi s0, s0, -1
    bnez s0, loop
    addi s2, s2, -1
    li   s0, {trips}
    bnez s2, loop
"""),
    "two_block_beqz_j": (2, """
    li   s0, 40
    li   s2, 2
loop:
    addi s1, s1, 3
    addi s0, s0, -1
    beqz s0, out
    j    loop
out:
    addi s2, s2, -1
    li   s0, {trips}
    bnez s2, loop
"""),
}


class TestLoopSuperblocks:
    """A trace that returns to its own head unrolls into whole
    iterations within the superblock caps. Every back-edge is an
    ordinary ``K_LINK`` guard, so a loop may leave at any of them."""

    def _loop_superblock(self, source):
        system = _run(source)
        (sb,) = loop_superblocks(system.core.block_engine)
        return sb

    def test_self_loop_unrolls_to_segment_cap(self):
        sb = self._loop_superblock(SELF_LOOP)
        assert sb.segs == (sb.entry,) * SUPERBLOCK_MAX_SEGMENTS
        links = [rec for rec in sb.records if rec[0] == K_LINK]
        # One guard per back-edge, each expecting the head again.
        assert len(links) == SUPERBLOCK_MAX_SEGMENTS - 1
        assert all(rec[4] == sb.entry for rec in links)
        assert len(sb.records) == 3 * SUPERBLOCK_MAX_SEGMENTS + len(links)
        assert len(set(sb.addrs)) == 3

    def test_two_block_loop_unrolls_whole_iterations(self):
        sb = self._loop_superblock(TWO_BLOCK_LOOP)
        iteration = sb.segs[:2]
        assert iteration[0] == sb.entry and iteration[1] != sb.entry
        assert sb.segs == iteration * (SUPERBLOCK_MAX_SEGMENTS // 2)

    def test_record_cap_bounds_the_unroll(self):
        """A full-size self-loop block repeats only as often as
        ``SUPERBLOCK_MAX_RECORDS`` allows."""
        body = "    addi s1, s1, 1\n" * (MAX_BLOCK_INSTRS - 2)
        sb = self._loop_superblock(f"""
    li   s0, 40
loop:
{body}    addi s0, s0, -1
    bnez s0, loop
""")
        repeats = SUPERBLOCK_MAX_RECORDS // MAX_BLOCK_INSTRS
        assert 1 < repeats < SUPERBLOCK_MAX_SEGMENTS
        assert sb.segs == (sb.entry,) * repeats
        body_records = [rec for rec in sb.records if rec[0] != K_LINK]
        assert len(body_records) == repeats * MAX_BLOCK_INSTRS

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    @pytest.mark.parametrize("shape", sorted(COUNTED_LOOPS))
    def test_every_exit_guard_stays_exact(self, shape, core):
        """Trip counts 1 .. 2 x unroll + 1 leave the unrolled loop at
        every guard position, at its end, and after whole repeats."""
        blocks_per_iteration, template = COUNTED_LOOPS[shape]
        unroll = SUPERBLOCK_MAX_SEGMENTS // blocks_per_iteration
        for trips in range(1, 2 * unroll + 2):
            source = template.format(trips=trips)
            on = _run(source, core=core, blocks=True)
            off = _run(source, core=core, blocks=False)
            assert _state(on) == _state(off), (shape, trips)
            assert on.core.regs[9] == 3 * (40 + trips)
            (sb,) = loop_superblocks(on.core.block_engine)
            assert len(sb.segs) == unroll * blocks_per_iteration


class TestBankSwitchBoundaries:
    """Hardware context switches (SWITCH_RF / trap / mret) are block
    boundaries by construction; the full RTOS workloads crossing them
    must be identical either way on the hardware-assisted configs."""

    @pytest.mark.parametrize("config_name", ["S", "SLT", "SDLOT"])
    def test_workload_parity_on_hw_configs(self, config_name):
        results = {}
        for blocks in (False, True):
            config = parse_config(config_name)
            workload = workload_by_name("yield_pingpong", iterations=6)
            builder = KernelBuilder(config=config, objects=workload.objects,
                                    tick_period=workload.tick_period)
            system = builder.build("cv32e40p",
                                   external_events=workload.external_events)
            cpu = system.core
            if blocks:
                cpu.block_engine = BlockEngine(cpu)
            else:
                cpu.block_engine = None
            system.run(workload.max_cycles)
            results[blocks] = (
                cpu.cycle, cpu.stats.instret, list(cpu.regs),
                cpu.stats.custom_ops, cpu.stats.traps, cpu.stats.mrets,
                [dataclasses.asdict(s) for s in system.switches],
            )
        assert results[True] == results[False]
        # The run must actually have crossed hardware boundaries.
        assert results[True][3] > 0 or results[True][4] > 0
