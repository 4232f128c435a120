"""System wiring: MMIO routing, probes, console, banking."""

import gc
import weakref

import pytest

from repro.cores import CORE_CLASSES, build_system
from repro.cores.system import System
from repro.errors import ConfigurationError, SimulationError
from repro.isa.csr import CAUSE_MSI
from repro.isa.assembler import assemble
from repro.kernel.builder import KernelBuilder
from repro.mem.timeline import MemoryTimeline
from repro.rtosunit.config import parse_config
from repro.workloads import yield_pingpong
from tests.cores.helpers import run_fragment


def _run_vanilla(core, timeline=None):
    workload = yield_pingpong(iterations=3)
    builder = KernelBuilder(config=parse_config("vanilla"),
                            objects=workload.objects,
                            tick_period=workload.tick_period)
    system = builder.build(core, external_events=workload.external_events)
    if timeline is not None:
        system.timeline = system.core.timeline = timeline
    assert system.run(workload.max_cycles) == 0
    return system


class TestBuildSystem:
    def test_unknown_core_rejected(self):
        with pytest.raises(ConfigurationError):
            build_system("m68k", parse_config("vanilla"))

    def test_core_names_case_insensitive(self):
        system = build_system("CV32E40P", parse_config("vanilla"))
        assert system.core.__class__.__name__ == "CV32E40P"

    def test_vanilla_has_no_unit(self):
        assert build_system("cv32e40p", parse_config("vanilla")).unit is None

    def test_accelerated_has_unit(self):
        system = build_system("cv32e40p", parse_config("SLT"))
        assert system.unit is not None
        assert system.unit.core is system.core

    def test_cva6_context_region_uncached(self):
        system = build_system("cva6", parse_config("SLT"))
        region = system.layout.context_region
        assert (region.base, region.end) in system.core.uncached_ranges

    def test_vanilla_cva6_caches_everything(self):
        assert build_system("cva6", parse_config("vanilla")).core \
            .uncached_ranges == []

    @pytest.mark.parametrize("core, cold, warm", [
        ("cv32e40p", 31, 31), ("cva6", 31, 31),
        # Four cold lines cost a refill each on NaxRiscv's shared D$.
        ("naxriscv", 31 + 4 * 8, 31),
    ])
    def test_unit_costs_frames_through_its_core(self, core, cold, warm):
        system = build_system(core, parse_config("SLT"))
        unit = system.unit
        unit.boot(0)
        costs = []
        for cycle in (10, 500):
            unit.on_interrupt_entry(cycle, CAUSE_MSI)
            costs.append(unit._pending[-1].cost)
        assert costs == [cold, warm]

    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_vanilla_timeline_keeps_no_port_marks(self, core):
        # Only an RTOSUnit consumes port marks. A vanilla run counts the
        # core's port cycles exactly as a marks-keeping timeline does,
        # and queues none of them.
        quiet = _run_vanilla(core)
        kept = _run_vanilla(core, MemoryTimeline())
        assert not quiet.timeline._busy
        assert kept.timeline._busy
        assert quiet.timeline.core_cycles > 0
        assert ((quiet.timeline.core_cycles, quiet.timeline._last_marked)
                == (kept.timeline.core_cycles, kept.timeline._last_marked))
        assert quiet.core.cycle == kept.core.cycle


class TestRelease:
    @pytest.mark.parametrize("core", sorted(CORE_CLASSES))
    def test_released_system_is_freed_by_reference_counting(self, core):
        """The block engine holds the unit's op functions bound to the
        unit; release() drops them with the other back-references, so a
        finished system needs no cyclic collection."""
        workload = yield_pingpong(iterations=2)
        system = KernelBuilder(config=parse_config("SDLOT"),
                               objects=workload.objects,
                               tick_period=workload.tick_period).build(core)
        system.run(workload.max_cycles)
        system.release()
        refs = [weakref.ref(part) for part in (
            system, system.core, system.memory, system.unit,
            system.core.block_engine)]
        gc.disable()
        try:
            del system
            assert [ref() for ref in refs] == [None] * len(refs)
        finally:
            gc.enable()


class TestSimulatorControl:
    def test_console_collects_characters(self):
        system = run_fragment("""
    li   t0, 0xFFFF0004
    li   a0, 'h'
    sw   a0, 0(t0)
    li   a0, 'i'
    sw   a0, 0(t0)
""")
        assert system.console_text == "hi"

    def test_probe_records_value_and_cycle(self):
        system = run_fragment("""
    li   t0, 0xFFFF0008
    li   a0, 7
    sw   a0, 0(t0)
    nop
    nop
    li   a0, 9
    sw   a0, 0(t0)
""")
        values = [value for value, _ in system.probes]
        cycles = [cycle for _, cycle in system.probes]
        assert values == [7, 9]
        assert cycles[1] > cycles[0]

    def test_halt_sets_exit_code(self):
        system = run_fragment("""
    li   t0, 0xFFFF0000
    li   a0, 123
    sw   a0, 0(t0)
""", halt=False)
        assert system.core.exit_code == 123
        assert system.core.halted

    def test_unhandled_mmio_raises(self):
        from repro.errors import ReproError

        # An address just past the simulator-control block is neither
        # MMIO nor RAM: the access must fail loudly, not silently.
        with pytest.raises(ReproError):
            run_fragment("""
    li   t0, 0xFFFF0008
    lw   a0, 4(t0)
""")


class TestRegisterBanking:
    def _system(self, config_name):
        system = build_system("cv32e40p", parse_config(config_name))
        return system

    def test_store_configs_have_two_banks(self):
        assert len(self._system("S").core.banks) == 2
        assert len(self._system("SLT").core.banks) == 2

    def test_vanilla_and_t_have_one_bank(self):
        assert len(self._system("vanilla").core.banks) == 1
        assert len(self._system("T").core.banks) == 1

    def test_cv32rt_has_no_banking(self):
        """CV32RT snapshots; it does not switch register banks."""
        assert len(self._system("CV32RT").core.banks) == 1

    def test_app_bank_is_bank_zero(self):
        core = self._system("SLT").core
        core.active_bank = 1
        assert core.app_bank is core.banks[0]
        assert core.regs is core.banks[1]

    def test_bank_isolation_during_isr(self):
        """ISR writes under banking must not corrupt the APP bank."""
        source = """
    la   t0, handler
    csrw mtvec, t0
    li   t0, 0x888
    csrw mie, t0
    li   s0, 0x1234
    csrsi mstatus, 8
    li   t0, 0x2000000
    li   t1, 1
    sw   t1, 0(t0)         # yield into the ISR
after:
    li   t6, 0xFFFF0000
    sw   s0, 0(t6)         # exit code = s0 (must survive)
handler:
    li   s0, 0xBAD         # clobbers the ISR bank only
    la   t2, 0x60000       # restore path: set_context_id for task 0
    li   a0, 0
    set_context_id a0
    mret
"""
        system = build_system("cv32e40p", parse_config("SL"),
                              tick_period=1 << 30)
        program = assemble(source)
        # Seed task 0's context slot so the restore lands back at 'after'
        # with s0 preserved.
        system.load(program)
        core = system.core
        system.unit.boot(0)
        slot = system.layout.context_region.slot_addr(0)
        # Context layout: x8 (s0) sits at index 5 of the saved order.
        from repro.mem.regions import CONTEXT_REG_ORDER
        for index, reg in enumerate(CONTEXT_REG_ORDER):
            value = 0x1234 if reg == 8 else 0
            system.memory.write_word_raw(slot + 4 * index, value)
        system.memory.write_word_raw(slot + 4 * 29, 0x1880)  # mstatus
        system.memory.write_word_raw(slot + 4 * 30,
                                     program.symbols["after"])  # mepc
        system.run(max_cycles=100_000)
        assert core.exit_code == 0x1234
