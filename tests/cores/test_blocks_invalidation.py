"""Block-cache invalidation: self-modifying code, faults, bank switches.

The block cache caches *decoded* instructions, so anything that mutates
instruction memory — a self-modifying store or an injected bit flip —
must drop the affected blocks, and re-predecoded execution must match
the exact per-instruction path bit-for-bit.
"""

import dataclasses

import pytest

from repro.cores import CORE_CLASSES
from repro.cores.blocks import BlockEngine
from repro.cores.system import System
from repro.faults.injector import FaultInjector
from repro.faults.model import FaultSpec
from repro.isa.assembler import assemble
from repro.kernel.builder import KernelBuilder
from repro.rtosunit.config import parse_config
from repro.workloads.suite import workload_by_name
from tests.cores.helpers import HALT_TAIL


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


#: Loops of 60 trips that chain: the self-loop's block is its own
#: successor, the two-block loop's mid-loop branch splits each trip into
#: two blocks that chain into each other.
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


class TestChainedInvalidation:
    """Chaining keeps no state of its own: every transition probes the
    block cache again. A raw write or fault flip into a block that a
    loop chains into drops it like any other block, and the next
    transition into it misses, so dispatch rebuilds it."""

    def _assert_drops_then_misses(self, source, label, poke, core):
        """Run a chaining loop, then *poke* the last word of its block
        at *label* (the self-loop's own block, or the two-block loop's
        mid-loop successor)."""
        program = assemble(source + HALT_TAIL, origin=0)
        system = _run(source, core=core)
        core = system.core
        engine = core.block_engine
        assert engine.chained > 0
        block = engine.cache[program.symbol(label)]
        word = block.addrs[-1]
        poke(system, word)
        assert all(word not in b.addrs for b in engine.cache.values())
        assert block.entry not in engine.cache
        # Three more trips from the loop head: the dropped block is
        # rebuilt once, on its next entry, and chains again.
        misses, chained = engine.misses, engine.chained
        core.regs[8] = 3  # s0: trips left
        core.pc = program.symbol("loop")
        core.halted = False
        system.run(max_cycles=200_000)
        assert core.halted
        assert engine.misses == misses + 1
        assert block.entry in engine.cache
        assert engine.chained > chained

    @staticmethod
    def _raw_write(system, word):
        # The same encoding: the write drops the block, the program
        # stays as it was.
        system.memory.write_word_raw(word, system.memory.read_word_raw(word))

    @staticmethod
    def _fault_flip(system, word):
        injector = FaultInjector(
            system, [FaultSpec(kind="mem_flip", cycle=0, target=word, bit=3)])
        injector.on_step(system.core)
        assert injector.done

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_raw_write_drops_chained_successor(self, core):
        self._assert_drops_then_misses(TWO_BLOCK_LOOP, "mid",
                                       self._raw_write, core)

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_raw_write_drops_chained_self_loop(self, core):
        self._assert_drops_then_misses(SELF_LOOP, "loop", self._raw_write,
                                       core)

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_fault_flip_drops_chained_successor(self, core):
        self._assert_drops_then_misses(TWO_BLOCK_LOOP, "mid",
                                       self._fault_flip, core)

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_fault_flip_drops_chained_self_loop(self, core):
        self._assert_drops_then_misses(SELF_LOOP, "loop", self._fault_flip,
                                       core)

    def test_smc_after_promotion_stays_exact(self):
        """A chained loop patches its own body on a second pass: no
        transition may re-enter the stale block, and both dispatch
        modes must agree bit-for-bit."""
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
        assert engine.chained > 0
        assert engine.invalidations >= 1

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_smc_into_self_loop_tail_stays_exact(self, core):
        """A chained self-loop's back-edge (its block's last word) is
        patched to branch to the loop's second instruction: the block
        must drop, and every later trip must skip the first
        instruction in both dispatch modes."""
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
        assert engine.chained > 0
        assert engine.invalidations >= 1


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
