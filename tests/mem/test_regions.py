"""Context memory region layout (§4.2, optimisation 3)."""

import pytest

from repro.mem.regions import (
    ContextRegion,
    MEPC_SLOT_INDEX,
    MSTATUS_SLOT_INDEX,
    MemoryLayout,
)


class TestContextRegion:
    def test_slot_address_is_shift(self):
        """The paper: address = base + (task_id << 7)."""
        region = ContextRegion(base=0x6000, max_tasks=8)
        for task_id in range(8):
            assert region.slot_addr(task_id) == 0x6000 + (task_id << 7)

    def test_slot_out_of_range(self):
        region = ContextRegion(base=0, max_tasks=4)
        with pytest.raises(ValueError):
            region.slot_addr(4)
        with pytest.raises(ValueError):
            region.slot_addr(-1)

    def test_size_and_end(self):
        region = ContextRegion(base=0x1000, max_tasks=4)
        assert region.size == 4 * 128
        assert region.end == 0x1000 + 512

    def test_contains(self):
        region = ContextRegion(base=0x1000, max_tasks=2)
        assert region.contains(0x1000)
        assert region.contains(0x10FF)
        assert not region.contains(0x1100)
        assert not region.contains(0xFFF)

    def test_csr_slots_after_gprs(self):
        assert MSTATUS_SLOT_INDEX == 29
        assert MEPC_SLOT_INDEX == 30


class TestMemoryLayout:
    def test_default_ordering(self):
        layout = MemoryLayout()
        assert layout.text_base < layout.data_base < layout.stack_base
        assert layout.stack_base < layout.context_base

    def test_stack_tops_do_not_overlap(self):
        layout = MemoryLayout()
        tops = [layout.stack_top(i) for i in range(4)]
        assert tops == sorted(set(tops))
        assert tops[1] - tops[0] == layout.stack_words * 4

    def test_context_region_from_layout(self):
        layout = MemoryLayout()
        region = layout.context_region
        assert region.base == layout.context_base
        assert region.max_tasks == layout.max_tasks

    def test_stacks_below_context_region(self):
        layout = MemoryLayout()
        assert layout.stack_top(layout.max_tasks - 1) <= layout.context_base
