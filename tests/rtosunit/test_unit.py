"""RTOSUnit functional behaviour with a stub core attached."""

import copy
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.cores.base import BaseCore
from repro.errors import ConfigurationError, SimulationError
from repro.isa import csr as csrmod
from repro.isa.csr import CSRFile
from repro.isa.custom import CustomOp
from repro.mem.memory import Memory
from repro.mem.regions import (
    CONTEXT_REG_ORDER,
    ContextRegion,
    MEPC_SLOT_INDEX,
    MSTATUS_SLOT_INDEX,
)
from repro.mem.timeline import MemoryTimeline
from repro.rtosunit.config import parse_config
from repro.rtosunit.unit import CV32RT_HW_REGS, RTOSUnit


class _StubCore:
    def __init__(self):
        self.app_bank = [0] * 32
        self.csr = CSRFile()
        self.dirty_mask = 0

    rtosunit_frame_cost = BaseCore.rtosunit_frame_cost


def _dirty_configs():
    """Every valid letter configuration with dirty bits (D)."""
    names = []
    for count in range(2, 7):
        for letters in itertools.combinations("SDLOTY", count):
            name = "".join(letters)
            if "D" not in name:
                continue
            try:
                parse_config(name)
            except ConfigurationError:
                continue
            names.append(name)
    return names


DIRTY_CONFIGS = _dirty_configs()


def _unit_state(unit):
    return (copy.deepcopy(unit.scheduler), copy.deepcopy(unit.hwsync),
            copy.deepcopy(unit._pending), vars(unit.stats).copy(),
            unit.current_task_id)


def make_unit(config_name, list_length=8):
    config = parse_config(config_name, list_length=list_length)
    memory = Memory(size=1 << 17)
    timeline = MemoryTimeline()
    region = ContextRegion(base=0x8000, max_tasks=8)
    unit = RTOSUnit(config, memory, timeline, region)
    core = _StubCore()
    unit.attach(core)
    return unit, core


class TestStoreFSM:
    def test_store_writes_context_words(self):
        unit, core = make_unit("S")
        for reg in range(32):
            core.app_bank[reg] = 0x100 + reg
        core.csr.write(csrmod.MSTATUS, 0x1888)
        core.csr.write(csrmod.MEPC, 0x4444)
        unit.boot(3)
        unit.on_interrupt_entry(cycle=100, cause=csrmod.CAUSE_MSI)
        slot = unit.region.slot_addr(3)
        for index, reg in enumerate(CONTEXT_REG_ORDER):
            assert unit.memory.read_word_raw(slot + 4 * index) == 0x100 + reg
        assert unit.memory.read_word_raw(
            slot + 4 * MSTATUS_SLOT_INDEX) == 0x1888
        assert unit.memory.read_word_raw(slot + 4 * MEPC_SLOT_INDEX) == 0x4444

    def test_store_before_boot_raises(self):
        unit, _ = make_unit("S")
        with pytest.raises(SimulationError):
            unit.on_interrupt_entry(0, csrmod.CAUSE_MSI)

    def test_store_skips_gp_tp_zero(self):
        unit, core = make_unit("S")
        unit.boot(0)
        core.app_bank[3] = 0xBAD  # gp
        unit.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        slot_words = [unit.memory.read_word_raw(
            unit.region.slot_addr(0) + 4 * i) for i in range(31)]
        assert 0xBAD not in slot_words

    def test_switch_rf_waits_for_store(self):
        unit, _ = make_unit("S")
        unit.boot(0)
        unit.on_interrupt_entry(cycle=10, cause=csrmod.CAUSE_MSI)
        result = unit.exec_custom(CustomOp.SWITCH_RF, 0, 0, cycle=12)
        # 31 words occupy cycles 11..41 on an otherwise idle port.
        assert result.complete_cycle >= 41
        assert result.switch_banks

    def test_switch_rf_after_long_scheduler_is_free(self):
        unit, _ = make_unit("S")
        unit.boot(0)
        unit.on_interrupt_entry(cycle=10, cause=csrmod.CAUSE_MSI)
        result = unit.exec_custom(CustomOp.SWITCH_RF, 0, 0, cycle=500)
        assert result.complete_cycle == 500


class TestRestoreFSM:
    def test_set_context_id_loads_registers(self):
        unit, core = make_unit("SL")
        unit.boot(0)
        slot = unit.region.slot_addr(2)
        for index, reg in enumerate(CONTEXT_REG_ORDER):
            unit.memory.write_word_raw(slot + 4 * index, 0x900 + reg)
        unit.memory.write_word_raw(slot + 4 * MSTATUS_SLOT_INDEX, 0x1880)
        unit.memory.write_word_raw(slot + 4 * MEPC_SLOT_INDEX, 0x1234)
        unit.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        unit.exec_custom(CustomOp.SET_CONTEXT_ID, 2, 0, cycle=50)
        for reg in CONTEXT_REG_ORDER:
            assert core.app_bank[reg] == 0x900 + reg
        assert core.csr.read(csrmod.MEPC) == 0x1234
        assert unit.current_task_id == 2

    def test_mret_stalls_for_restore(self):
        unit, _ = make_unit("SL")
        unit.boot(0)
        unit.on_interrupt_entry(cycle=0, cause=csrmod.CAUSE_MSI)
        unit.exec_custom(CustomOp.SET_CONTEXT_ID, 1, 0, cycle=10)
        done = unit.on_mret(cycle=15)
        # Store (31) then restore (31) serialised over the single port.
        assert done >= 62

    def test_store_then_restore_are_serialised(self):
        unit, _ = make_unit("SL")
        unit.boot(0)
        unit.on_interrupt_entry(cycle=0, cause=csrmod.CAUSE_MSI)
        unit.exec_custom(CustomOp.SET_CONTEXT_ID, 1, 0, cycle=1)
        done = unit.on_mret(cycle=2)
        # Store occupies 1..31, restore 32..62 on the shared port.
        assert done >= 62


class TestLoadOmission:
    def test_same_task_skips_restore(self):
        unit, _ = make_unit("SDLO")
        unit.boot(4)
        unit.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        unit.exec_custom(CustomOp.SET_CONTEXT_ID, 4, 0, cycle=10)
        assert unit.stats.loads_omitted == 1
        assert unit.stats.words_loaded == 0

    def test_different_task_still_loads(self):
        unit, _ = make_unit("SDLO")
        unit.boot(4)
        unit.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        unit.exec_custom(CustomOp.SET_CONTEXT_ID, 5, 0, cycle=10)
        assert unit.stats.loads_omitted == 0
        assert unit.stats.words_loaded == 31


class TestDirtyBits:
    def test_only_dirty_registers_stored(self):
        unit, core = make_unit("SD")
        unit.boot(0)
        core.app_bank[10] = 0xAA
        core.dirty_mask = 1 << 10  # only a0 dirty
        unit.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        # 1 dirty register + mstatus + mepc.
        assert unit.stats.words_stored == 3
        assert unit.stats.dirty_words_skipped == 28

    def test_dirty_cleared_on_mret(self):
        unit, core = make_unit("SD")
        unit.boot(0)
        core.dirty_mask = 0xFFF0
        unit.on_mret(cycle=100)
        assert core.dirty_mask == 0

    def test_clean_slot_retains_previous_values(self):
        unit, core = make_unit("SD")
        unit.boot(0)
        slot = unit.region.slot_addr(0)
        unit.memory.write_word_raw(slot, 0x111)  # previous ra
        core.dirty_mask = 0
        unit.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        assert unit.memory.read_word_raw(slot) == 0x111

    @settings(max_examples=80, deadline=None)
    @given(config=st.sampled_from(DIRTY_CONFIGS),
           mask=st.integers(0, (1 << 32) - 1), task=st.integers(0, 7))
    def test_store_writes_exactly_the_dirty_frame(self, config, mask, task):
        """Under every (D) config the store writes the dirty registers,
        MSTATUS and MEPC, and nothing else: clean words of the slot, its
        padding word and the neighbouring slots keep what they held."""
        unit, core = make_unit(config)
        unit.boot(task)
        base = unit.region.base
        size = unit.region.size // 4
        old = [0xC0DE_0000 + index for index in range(size)]
        unit.memory.write_words_raw(base, old)
        for reg in range(32):
            core.app_bank[reg] = 0x5000 + reg
        core.csr.write(csrmod.MSTATUS, 0x1888)
        core.csr.write(csrmod.MEPC, 0x4444)
        core.dirty_mask = mask
        unit.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        dirty = [index for index, reg in enumerate(CONTEXT_REG_ORDER)
                 if (mask >> reg) & 1]
        expected = list(old)
        first = (unit.region.slot_addr(task) - base) // 4
        for index in dirty:
            expected[first + index] = 0x5000 + CONTEXT_REG_ORDER[index]
        expected[first + MSTATUS_SLOT_INDEX] = 0x1888
        expected[first + MEPC_SLOT_INDEX] = 0x4444
        assert list(unit.memory.read_words_raw(base, size)) == expected
        assert unit.stats.words_stored == len(dirty) + 2
        assert unit.stats.dirty_words_skipped == (len(CONTEXT_REG_ORDER)
                                                  - len(dirty))
        assert unit._pending[-1].cost == len(dirty) + 2


class TestHardwareScheduling:
    def test_get_hw_sched_returns_head(self):
        unit, _ = make_unit("SLT")
        unit.exec_custom(CustomOp.ADD_READY, 0, 2, cycle=0)
        unit.exec_custom(CustomOp.ADD_READY, 1, 5, cycle=0)
        result = unit.exec_custom(CustomOp.GET_HW_SCHED, 0, 0, cycle=100)
        assert result.rd_value == 1
        assert unit.current_task_id == 1

    def test_add_delay_uses_current_task(self):
        unit, _ = make_unit("T")
        unit.exec_custom(CustomOp.ADD_READY, 7, 1, cycle=0)
        unit.exec_custom(CustomOp.GET_HW_SCHED, 0, 0, cycle=20)
        unit.exec_custom(CustomOp.RM_TASK, 7, 0, cycle=30)
        unit.exec_custom(CustomOp.ADD_DELAY, 1, 3, cycle=31)
        assert unit.scheduler.delayed_ids() == [7]

    def test_timer_tick_advances_delays(self):
        unit, _ = make_unit("T")
        unit.exec_custom(CustomOp.ADD_READY, 0, 1, cycle=0)
        unit.exec_custom(CustomOp.GET_HW_SCHED, 0, 0, cycle=10)
        unit.exec_custom(CustomOp.RM_TASK, 0, 0, cycle=20)
        unit.exec_custom(CustomOp.ADD_DELAY, 1, 1, cycle=21)
        unit.on_interrupt_entry(1000, csrmod.CAUSE_MTI)
        assert unit.scheduler.ready_ids() == [0]
        assert unit.stats.ticks == 1

    def test_sched_ops_without_t_raise(self):
        unit, _ = make_unit("S")
        with pytest.raises(SimulationError):
            unit.exec_custom(CustomOp.ADD_READY, 0, 1, cycle=0)
        with pytest.raises(SimulationError):
            unit.exec_custom(CustomOp.GET_HW_SCHED, 0, 0, cycle=0)

    @pytest.mark.parametrize("op, config, needs", [
        (CustomOp.ADD_READY, "S", "hardware scheduling (T)"),
        (CustomOp.ADD_DELAY, "SL", "hardware scheduling (T)"),
        (CustomOp.RM_TASK, "SD", "hardware scheduling (T)"),
        (CustomOp.GET_HW_SCHED, "CV32RT", "hardware scheduling (T)"),
        (CustomOp.SEM_TAKE, "SLT",
         "the hardware synchronisation extension (Y)"),
        (CustomOp.SEM_GIVE, "S",
         "the hardware synchronisation extension (Y)"),
    ])
    def test_absent_extension_names_it_and_leaves_the_unit(self, op, config,
                                                          needs):
        unit, _ = make_unit(config)
        unit.boot(1)
        if unit.scheduler is not None:
            unit.exec_custom(CustomOp.ADD_READY, 1, 3, cycle=0)
        before = _unit_state(unit)
        with pytest.raises(SimulationError) as raised:
            unit.exec_custom(op, 1, 2, cycle=5)
        assert str(raised.value) == (f"{op.name} needs {needs}; config is "
                                     f"{unit.config.name}")
        assert _unit_state(unit) == before
        assert op not in unit.fast_custom_handlers()

    def test_add_delay_without_current_raises(self):
        unit, _ = make_unit("T")
        with pytest.raises(SimulationError):
            unit.exec_custom(CustomOp.ADD_DELAY, 1, 5, cycle=0)


class TestPreloading:
    def _prepare(self):
        unit, core = make_unit("SPLIT")
        for task in (0, 1):
            slot = unit.region.slot_addr(task)
            for index in range(31):
                unit.memory.write_word_raw(slot + 4 * index,
                                           (task << 8) | index)
        unit.exec_custom(CustomOp.ADD_READY, 0, 1, cycle=0)
        unit.exec_custom(CustomOp.ADD_READY, 1, 1, cycle=0)
        unit.exec_custom(CustomOp.GET_HW_SCHED, 0, 0, cycle=10)  # current=0
        return unit, core

    def test_preload_scheduled_after_mret(self):
        unit, _ = self._prepare()
        unit.on_mret(cycle=100)
        assert unit._preload_transfer is not None
        assert unit._preload_predicted == 1

    def test_preload_hit_skips_restore_transfer(self):
        unit, core = self._prepare()
        unit.on_mret(cycle=100)
        unit.on_interrupt_entry(cycle=1000, cause=csrmod.CAUSE_MSI)
        result = unit.exec_custom(CustomOp.GET_HW_SCHED, 0, 0, cycle=1020)
        assert result.rd_value == 1
        assert unit.stats.preload_hits == 1
        # The APP RF still received task 1's context functionally.
        assert core.app_bank[CONTEXT_REG_ORDER[0]] == (1 << 8) | 0

    def test_preload_incomplete_counts_as_miss_path(self):
        unit, _ = self._prepare()
        unit.on_mret(cycle=100)
        # Interrupt arrives immediately: 31 words cannot have transferred.
        unit.on_interrupt_entry(cycle=105, cause=csrmod.CAUSE_MSI)
        unit.exec_custom(CustomOp.GET_HW_SCHED, 0, 0, cycle=110)
        assert unit.stats.preload_hits == 0

    def test_mispredicted_preload_loads_normally(self):
        unit, core = self._prepare()
        unit.on_mret(cycle=100)
        # A higher-priority task 2 appears before the next switch.
        slot = unit.region.slot_addr(2)
        for index in range(31):
            unit.memory.write_word_raw(slot + 4 * index, (2 << 8) | index)
        unit.exec_custom(CustomOp.ADD_READY, 2, 7, cycle=900)
        unit.on_interrupt_entry(cycle=1000, cause=csrmod.CAUSE_MSI)
        result = unit.exec_custom(CustomOp.GET_HW_SCHED, 0, 0, cycle=1020)
        assert result.rd_value == 2
        assert unit.stats.preload_misses == 1
        assert core.app_bank[CONTEXT_REG_ORDER[0]] == (2 << 8) | 0

    def test_no_preload_when_alone(self):
        unit, _ = make_unit("SPLIT")
        unit.exec_custom(CustomOp.ADD_READY, 0, 1, cycle=0)
        unit.exec_custom(CustomOp.GET_HW_SCHED, 0, 0, cycle=10)
        unit.on_mret(cycle=50)
        assert unit._preload_transfer is None


class TestCV32RT:
    def test_snapshot_writes_half_the_registers(self):
        unit, core = make_unit("CV32RT")
        core.app_bank[2] = 0x2000  # sp
        for reg in CV32RT_HW_REGS:
            core.app_bank[reg] = 0x700 + reg
        unit.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        frame = 0x2000 - 31 * 4
        from repro.isa.registers import CONTEXT_SAVED_REGS
        for reg in CV32RT_HW_REGS:
            addr = frame + 4 * CONTEXT_SAVED_REGS.index(reg)
            assert unit.memory.read_word_raw(addr) == 0x700 + reg
        assert unit.stats.words_stored == 16

    def test_snapshot_is_half_the_context(self):
        assert len(CV32RT_HW_REGS) == 16
        assert len(set(CV32RT_HW_REGS)) == 16
