"""Unit tests for the basic-block predecoded interpreter.

Covers predecode boundaries, the block cache (LRU bounds, eviction,
slow-pc memoisation), the interrupt horizon, per-fragment and
per-fault parity between block dispatch and the exact per-instruction
path on every core, and the executor's compilation per timing model.
The broader suite-level equivalence lives in
``test_blocks_differential.py``.
"""

import dis
import inspect
import pathlib

import pytest

from repro.cores import CORE_CLASSES
from repro.cores.blocks import (MAX_BLOCK_INSTRS, BlockEngine, _classify,
                                _classify_csr)
from repro.cores.system import System
from repro.errors import ConfigurationError, ReproError
from repro.isa.assembler import assemble
from repro.isa.instructions import SPECS, SYNC_OPS, Instr
from repro.rtosunit.config import parse_config
from tests.cores.helpers import HALT_TAIL, timing_state


def _run(source, core="cv32e40p", config="vanilla", blocks=True,
         max_cycles=200_000, capacity=None, tick_period=1 << 30):
    system = System(CORE_CLASSES[core], parse_config(config),
                    tick_period=tick_period)
    cpu = system.core
    if blocks:
        cpu.block_engine = BlockEngine(cpu, capacity=capacity)
    else:
        cpu.block_engine = None
    system.load(assemble(source + HALT_TAIL, origin=0))
    system.run(max_cycles=max_cycles)
    return system


def _state(system):
    core = system.core
    return (core.cycle, core.stats.instret, list(core.regs),
            core.stats.as_dict() if hasattr(core.stats, "as_dict")
            else vars(core.stats).copy(), timing_state(core))


FRAGMENTS = {
    "alu_chain": """
    li   s0, 100
loop:
    addi s1, s1, 3
    xori s2, s1, 0x55
    slt  s3, s2, s1
    addi s0, s0, -1
    bnez s0, loop
""",
    "memory_mix": """
    li   s0, 20
    la   s1, buf
loop:
    sw   s0, 0(s1)
    lw   s2, 0(s1)
    sh   s2, 4(s1)
    lhu  s3, 4(s1)
    sb   s3, 8(s1)
    lb   s4, 8(s1)
    addi s0, s0, -1
    bnez s0, loop
    j    out
buf: .word 0
    .word 0
    .word 0
out:
""",
    "muldiv": """
    li   s0, 12
    li   s1, 40
loop:
    mul  s2, s0, s1
    div  s3, s2, s0
    rem  s4, s2, s1
    addi s0, s0, -1
    bnez s0, loop
""",
    "call_tree": """
    li   s0, 15
loop:
    jal  ra, leaf
    addi s0, s0, -1
    bnez s0, loop
    j    out
leaf:
    addi s5, s5, 7
    lui  s6, 0x12
    auipc s7, 1
    jr   ra
out:
""",
    "fence": """
    li   s0, 10
loop:
    addi s1, s1, 1
fence_pc:
    fence
    addi s0, s0, -1
    bnez s0, loop
""",
}


class TestFragmentParity:
    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    @pytest.mark.parametrize("name", sorted(FRAGMENTS))
    def test_blocks_match_exact_path(self, core, name):
        on = _run(FRAGMENTS[name], core=core, blocks=True)
        off = _run(FRAGMENTS[name], core=core, blocks=False)
        assert _state(on) == _state(off)
        assert on.core.perf_counters()["fast_instret"] > 0
        assert off.core.perf_counters()["fast_instret"] == 0

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_trap_roundtrip_parity(self, core):
        source = """
    la   t0, handler
    csrw mtvec, t0
    li   t0, 0x888
    csrw mie, t0
    csrsi mstatus, 8
    li   s0, 200
loop:
    addi s1, s1, 1
    addi s0, s0, -1
    bnez s0, loop
    j    out
handler:
    addi s2, s2, 1
    li   t1, 0x200BFF8
    lw   t2, 0(t1)
    addi t2, t2, 300
    li   t3, 0x2004000
    sw   t2, 0(t3)
    mret
out:
"""
        on = _run(source, core=core, blocks=True, tick_period=300)
        off = _run(source, core=core, blocks=False, tick_period=300)
        assert _state(on) == _state(off)
        assert on.core.stats.traps == off.core.stats.traps
        assert on.core.stats.traps > 0

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_csr_then_rescheduling_custom_op_parity(self, core):
        # SWITCH_RF issues from ``next_issue``, which NaxRiscv fixes
        # before a CSR op's serialising front flush, not after it.
        source = """
    li   s0, 20
loop:
    addi s1, s1, 1
    csrrw s2, mscratch, s1
    switch_rf
    addi s0, s0, -1
    bnez s0, loop
"""
        on = _run(source, core=core, config="S", blocks=True)
        off = _run(source, core=core, config="S", blocks=False)
        assert _state(on) == _state(off)
        assert on.core.perf_counters()["fast_instret"] > 0


#: Each fragment faults on a record inside its first block, after
#: records whose timing (a ``mul``'s latency, a D$-probing ``lw``) the
#: executor holds in locals until it exits.
FAULTS = {
    "misaligned_lw_after_mul": """
    li   s1, 6
    li   s2, 7
    la   s3, buf
    mul  s4, s1, s2
    lw   s5, 2(s3)
""",
    "misaligned_sh": """
    la   s3, buf
    addi s1, s1, 5
    sh   s1, 1(s3)
""",
    "out_of_ram_lw": """
    li   s3, 0x100000
    addi s1, s1, 1
    lw   s5, 0(s3)
""",
    "out_of_ram_sw_after_dcache_lw": """
    la   s3, buf
    li   s4, 0x100000
    lw   s5, 0(s3)
    sw   s5, 0(s4)
""",
}


class TestFaultParity:
    @staticmethod
    def _fault(source, core, blocks):
        system = System(CORE_CLASSES[core], parse_config("vanilla"),
                        tick_period=1 << 30)
        cpu = system.core
        if not blocks:
            cpu.block_engine = None
        system.load(assemble(source + HALT_TAIL + "buf: .word 0x1234\n",
                             origin=0))
        with pytest.raises(ReproError) as caught:
            system.run(max_cycles=200_000)
        fast = cpu.perf_counters()["fast_instret"]
        return (type(caught.value), str(caught.value), cpu.pc,
                _state(system)), fast

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    @pytest.mark.parametrize("name", sorted(FAULTS))
    def test_fault_leaves_exact_state(self, core, name):
        # The executor's exception path writes its locals back and
        # leaves pc on the faulting record, as the exact path does.
        on, on_fast = self._fault(FAULTS[name], core, blocks=True)
        off, off_fast = self._fault(FAULTS[name], core, blocks=False)
        assert on == off
        assert on_fast > 0 and off_fast == 0  # the executor faulted


class TestSpecialisation:
    @staticmethod
    def _engine(core):
        system = System(CORE_CLASSES[core], parse_config("vanilla"))
        return system.core.block_engine

    def test_one_compiled_executor_per_core_class(self):
        codes = set()
        for core in sorted(CORE_CLASSES):
            first, second = self._engine(core), self._engine(core)
            assert first._exec_block.__func__ is second._exec_block.__func__
            assert first.dispatch.__func__ is second.dispatch.__func__
            codes.add(first._exec_block.__code__)
        assert len(codes) == len(CORE_CLASSES) == 3

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_specialised_code_points_at_its_source(self, core):
        engine = self._engine(core)
        for name in ("_exec_block", "dispatch"):
            source, first = inspect.getsourcelines(
                getattr(BlockEngine, name))
            code = getattr(engine, name).__code__
            assert pathlib.Path(code.co_filename).name == "blocks.py"
            lines = {line for _, _, line in code.co_lines() if line}
            assert first <= min(lines) <= max(lines) < first + len(source)
            # The model names folded away, and with them the other
            # models' arms: only NaxRiscv's copy touches its window.
            assert not {"INORDER", "CACHED", "WINDOW"} & set(code.co_names)
        names = {instr.argval for instr in dis.get_instructions(
            engine._exec_block) if instr.opname.endswith("_ATTR")}
        assert ("_front" in names) == (core == "naxriscv")
        assert ("uncached_ranges" in names) == (core == "cva6")


class TestPredecodeBoundaries:
    def test_block_ends_at_branch(self):
        system = _run("""
    addi s0, s0, 1
    addi s1, s1, 2
    beqz zero, next
    addi s2, s2, 99
next:
    addi s3, s3, 3
""")
        engine = system.core.block_engine
        block = engine.cache[0]
        # 2 ALU ops + the (included) branch terminator.
        assert len(block) == 3
        assert system.core.regs[18] == 0  # branch skipped s2

    def test_csr_ops_ride_inside_blocks(self):
        system = _run("""
    addi s0, s0, 1
    csrr s1, mcycle
    addi s2, s2, 1
""")
        engine = system.core.block_engine
        # The CSR read predecodes into a resident record: the block
        # runs straight through it (covering the csrr word at 0x4).
        assert len(engine.cache[0]) >= 3
        assert 4 in engine.cache[0].addrs

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_horizon_csr_writes_resync_inline_on_inorder_cores(self, core):
        source = """
    addi s0, s0, 1
    csrrw s1, mscratch, s0
    csrrci s2, mstatus, 8
    addi s3, s3, 1
"""
        system = _run(source, core=core)
        engine = system.core.block_engine
        # mscratch traffic is resident; the mstatus write carries the
        # terminal flag, but both executors resync the horizon in place,
        # so the block runs straight through it on every core.
        block = engine.cache[0]
        assert len(block) > 3
        assert block.records[2][4]  # csrrci mstatus: horizon-writing
        assert system.core.csr.read(0x340) == system.core.regs[8]

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_chaining_continues_after_a_horizon_write(self, core):
        # The second pass enables interrupts in a block that jumps back
        # into the counted loop the first pass cached. The executor
        # resyncs the horizon in place, so it chains on through the
        # whole loop instead of handing the write back to dispatch.
        source = """
    li   s1, 2
    li   s0, 4
loop:
    addi t0, t0, 3
    addi s0, s0, -1
    bnez s0, loop
    addi s1, s1, -1
    beqz s1, done
    li   s0, 4
    csrsi mstatus, 8
    j    loop
done:
"""
        system = System(CORE_CLASSES[core], parse_config("vanilla"),
                        tick_period=1 << 30)
        cpu = system.core
        engine = cpu.block_engine
        execute = engine._exec_block
        calls = []

        def counted(block, bail, limit):
            enabled = cpu.csr.mie_global
            try:
                return execute(block, bail, limit)
            finally:
                calls.append((enabled, cpu.csr.mie_global, cpu.regs[8]))

        engine._exec_block = counted
        system.load(assemble(source + HALT_TAIL, origin=0))
        system.run(max_cycles=200_000)
        # One call made the write, and it left the loop finished (s0 0).
        assert [s0 for before, after, s0 in calls
                if after and not before] == [0]
        assert _state(system) == _state(_run(source, core=core,
                                             blocks=False))

    def test_every_mnemonic_has_exactly_one_predecode_path(self):
        # Each RV32IM_Zicsr mnemonic becomes an inlined record or a CSR
        # record, or stays on the exact path: never two, never none.
        for mnemonic, spec in SPECS.items():
            instr = Instr(mnemonic, rd=5, rs1=6, rs2=7, imm=4, csr=0x340,
                          fmt=spec.fmt)
            paths = [_classify(instr) is not None,
                     _classify_csr(instr, {}) is not None,
                     mnemonic in SYNC_OPS]
            assert sum(paths) == 1, (mnemonic, paths)
        assert "fence" in SYNC_OPS

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_fence_stays_on_exact_path(self, core):
        source = FRAGMENTS["fence"]
        fence_pc = assemble(source + HALT_TAIL, origin=0).symbols["fence_pc"]
        engine = _run(source, core=core).core.block_engine
        assert fence_pc in engine.slow_pcs
        assert all(fence_pc not in block.addrs
                   for block in engine.cache.values())

    def test_max_block_length_bounds_straight_line_runs(self):
        body = "\n".join(f"    addi s0, s0, {i % 7}"
                         for i in range(MAX_BLOCK_INSTRS + 40))
        system = _run(body)
        engine = system.core.block_engine
        assert len(engine.cache[0]) == MAX_BLOCK_INSTRS

    def test_blocks_shared_suffix_registered_per_word(self):
        # Jumping into the middle of an existing block predecodes a
        # second block; both register in the word->blocks map.
        system = _run("""
    li   s0, 2
loop:
    addi s1, s1, 1
    addi s2, s2, 1
    addi s3, s3, 1
    addi s0, s0, -1
    j    mid
mid:
    addi s2, s2, 1
    bnez s0, loop
""")
        engine = system.core.block_engine
        shared = [a for a, pcs in engine.addr_map.items() if len(pcs) > 1]
        assert shared, "overlapping blocks should share word registrations"


class TestBlockCache:
    def test_capacity_bounds_and_evictions(self):
        # Many distinct single-block loop bodies against a tiny cache.
        chunks = []
        for i in range(8):
            chunks.append(f"""
    jal  ra, f{i}
""")
        funcs = []
        for i in range(8):
            funcs.append(f"""
f{i}:
    addi s0, s0, {i}
    jr   ra
""")
        src = "".join(chunks) + "    j out\n" + "".join(funcs) + "out:\n"
        system = _run(src, capacity=4)
        engine = system.core.block_engine
        assert len(engine.cache) <= 4
        assert engine.cache.evictions > 0
        # Evicted blocks must be unregistered from the address map.
        live = set(engine.cache)
        for addr, pcs in engine.addr_map.items():
            assert pcs <= live

    def test_hit_rate_reported(self):
        system = _run(FRAGMENTS["alu_chain"])
        counters = system.core.perf_counters()
        assert counters["block_hits"] > counters["block_misses"]
        assert 0.5 < counters["block_hit_rate"] <= 1.0
        assert counters["blocks_cached"] == len(system.core.block_engine.cache)

    def test_slow_pc_memoised_not_rebuilt(self):
        # ``mret`` stays on the exact path (privilege transition): its
        # pc is attempted once, then memoised as slow.
        system = _run("""
    li   s0, 50
loop:
    addi s0, s0, -1
    beqz s0, out
    la   t0, loop
    csrw mepc, t0
    mret
out:
""")
        engine = system.core.block_engine
        assert engine.slow_pcs
        # Builds are not retried 50 times: misses stay far below the
        # loop trip count.
        assert engine.misses < 10


class TestHorizon:
    def test_timer_interrupt_taken_at_identical_cycle(self):
        source = """
    la   t0, handler
    csrw mtvec, t0
    li   t0, 0x888
    csrw mie, t0
    csrsi mstatus, 8
    li   s0, 4000
loop:
    addi s1, s1, 1
    addi s0, s0, -1
    bnez s0, loop
    j    out
handler:
    addi s2, s2, 1
    li   t1, 0x200BFF8
    lw   t2, 0(t1)
    addi t2, t2, 777
    li   t3, 0x2004000
    sw   t2, 0(t3)
    mret
out:
"""
        on = _run(source, blocks=True, tick_period=777)
        off = _run(source, blocks=False, tick_period=777)
        assert on.core.stats.traps == off.core.stats.traps > 1
        assert [tuple(vars(s).values()) for s in on.switches] == \
               [tuple(vars(s).values()) for s in off.switches]

    def test_disabled_interrupts_run_free(self):
        # mstatus.MIE clear: the horizon is infinite, blocks run long.
        system = _run(FRAGMENTS["alu_chain"], tick_period=100)
        counters = system.core.perf_counters()
        assert counters["slow_ratio"] < 0.3


class TestRunModeGates:
    def test_step_hook_forces_exact_path(self):
        system = System(CORE_CLASSES["cv32e40p"], parse_config("vanilla"),
                        tick_period=1 << 30)
        seen = []
        system.core.step_hook = lambda core: seen.append(core.pc)
        system.load(assemble(FRAGMENTS["alu_chain"] + HALT_TAIL, origin=0))
        system.run(max_cycles=200_000)
        counters = system.core.perf_counters()
        assert counters["fast_instret"] == 0
        assert len(seen) == system.core.stats.instret

    @pytest.mark.parametrize("core, hook", [("cv32e40p", "_mem_time"),
                                            ("cva6", "_branch_time"),
                                            ("naxriscv", "_mem_latency")])
    def test_unmodelled_timing_hook_is_refused(self, core, hook):
        # The executors inline each core's timing hooks; an override they
        # cannot see must fail when the engine is built, not time wrong.
        cls = CORE_CLASSES[core]
        original = getattr(cls, hook)
        tweaked = type("Tweaked", (cls,),
                       {hook: lambda self, *args: original(self, *args)})
        with pytest.raises(ConfigurationError, match="Tweaked"):
            System(tweaked, parse_config("vanilla"))
