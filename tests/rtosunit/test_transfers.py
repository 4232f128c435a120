"""FSM transfer timing: serialisation and arbitration properties."""

from hypothesis import given, settings, strategies as st

from repro.cores.base import BaseCore
from repro.isa import csr as csrmod
from repro.isa.csr import CSRFile
from repro.isa.custom import CustomOp
from repro.mem.memory import Memory
from repro.mem.regions import ContextRegion
from repro.mem.timeline import MemoryTimeline
from repro.rtosunit.config import parse_config
from repro.rtosunit.unit import RTOSUnit


class _StubCore:
    def __init__(self):
        self.app_bank = [0] * 32
        self.csr = CSRFile()
        self.dirty_mask = 0

    rtosunit_frame_cost = BaseCore.rtosunit_frame_cost


class _SlowPortCore(_StubCore):
    def rtosunit_frame_cost(self, slot, words, is_write):
        return 3 * len(words)


def make_unit(config_name="SL", core_class=_StubCore):
    unit = RTOSUnit(parse_config(config_name), Memory(size=1 << 17),
                    MemoryTimeline(), ContextRegion(base=0x8000,
                                                    max_tasks=8))
    unit.attach(core_class())
    return unit


class TestSerialisation:
    @settings(max_examples=50, deadline=None)
    @given(busy=st.lists(st.integers(0, 200), unique=True, max_size=60),
           entry=st.integers(0, 40), set_at=st.integers(41, 80),
           mret_at=st.integers(81, 120))
    def test_restore_never_completes_before_store(self, busy, entry,
                                                  set_at, mret_at):
        """The single port serialises the FSMs: restore completion is
        at least 62 transfer slots after interrupt entry."""
        unit = make_unit("SL")
        unit.boot(0)
        for cycle in sorted(busy):
            unit.timeline.mark_core_busy(cycle)
        unit.on_interrupt_entry(entry, csrmod.CAUSE_MSI)
        unit.exec_custom(CustomOp.SET_CONTEXT_ID, 1, 0, set_at)
        done = unit.on_mret(mret_at)
        # 62 words must fit between entry and completion.
        free_slots = [c for c in range(entry + 1, done + 1)
                      if c not in set(busy)]
        assert len(free_slots) >= 62
        assert done >= mret_at or done >= entry + 62

    @settings(max_examples=30, deadline=None)
    @given(entry=st.integers(0, 50), query=st.integers(0, 300))
    def test_switch_rf_monotone_in_query_time(self, entry, query):
        """Waiting longer can never make SWITCH_RF complete earlier."""
        unit = make_unit("S")
        unit.boot(0)
        unit.on_interrupt_entry(entry, csrmod.CAUSE_MSI)
        result = unit.exec_custom(CustomOp.SWITCH_RF, 0, 0,
                                  max(query, entry + 1))
        assert result.complete_cycle >= entry + 31  # 31 words minimum

    def test_back_to_back_switches_keep_order(self):
        """A second switch's transfers queue behind the first's."""
        unit = make_unit("SL")
        unit.boot(0)
        unit.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        unit.exec_custom(CustomOp.SET_CONTEXT_ID, 1, 0, 5)
        first_done = unit.on_mret(10)
        unit.on_interrupt_entry(first_done + 5, csrmod.CAUSE_MSI)
        unit.exec_custom(CustomOp.SET_CONTEXT_ID, 0, 0, first_done + 10)
        second_done = unit.on_mret(first_done + 15)
        assert second_done >= first_done + 62


class TestArbitrationPriority:
    def test_core_busy_cycles_delay_the_unit(self):
        """Port cycles the core uses are unavailable to the FSMs."""
        idle_unit = make_unit("SL")
        idle_unit.boot(0)
        idle_unit.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        idle_unit.exec_custom(CustomOp.SET_CONTEXT_ID, 1, 0, 1)
        idle_done = idle_unit.on_mret(2)

        busy_unit = make_unit("SL")
        busy_unit.boot(0)
        for cycle in range(0, 40):
            busy_unit.timeline.mark_core_busy(cycle)
        busy_unit.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        busy_unit.exec_custom(CustomOp.SET_CONTEXT_ID, 1, 0, 1)
        busy_done = busy_unit.on_mret(2)
        assert busy_done > idle_done

    def test_frame_cost_hook_scales_transfer_time(self):
        """NaxRiscv-style frame costs (cache misses) stretch the FSM."""
        cheap = make_unit("SL")
        cheap.boot(0)
        cheap.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        cheap.exec_custom(CustomOp.SET_CONTEXT_ID, 1, 0, 1)
        cheap_done = cheap.on_mret(2)

        expensive = make_unit("SL", _SlowPortCore)
        expensive.boot(0)
        expensive.on_interrupt_entry(0, csrmod.CAUSE_MSI)
        expensive.exec_custom(CustomOp.SET_CONTEXT_ID, 1, 0, 1)
        expensive_done = expensive.on_mret(2)
        assert expensive_done > cheap_done * 2
