"""Memory layout shared between the kernel builder and the RTOSUnit.

§4.2 (optimisation 3): a fixed region inside DMEM holds the saved task
contexts, one 32-word (128-byte) chunk per task, so the context address is
``base + (task_id << 7)``. A context itself is 31 words: the 29 saved
general-purpose registers, then ``mstatus`` and ``mepc``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.registers import CONTEXT_SAVED_REGS, CONTEXT_SLOT_WORDS, CONTEXT_WORDS

#: Canonical save order: ra, sp, t0..t2, s0..s1, a0..a7, s2..s11, t3..t6,
#: then mstatus, mepc. Offsets are word indices within a context slot.
CONTEXT_REG_ORDER: tuple[int, ...] = CONTEXT_SAVED_REGS
MSTATUS_SLOT_INDEX: int = len(CONTEXT_REG_ORDER)
MEPC_SLOT_INDEX: int = MSTATUS_SLOT_INDEX + 1


@dataclass(frozen=True)
class ContextRegion:
    """The fixed context-save region in DMEM."""

    base: int
    max_tasks: int

    @property
    def size(self) -> int:
        return self.max_tasks * CONTEXT_SLOT_WORDS * 4

    @property
    def end(self) -> int:
        return self.base + self.size

    def slot_addr(self, task_id: int) -> int:
        """Address of *task_id*'s context chunk: ``base + (id << 7)``."""
        if not 0 <= task_id < self.max_tasks:
            raise ValueError(f"task id {task_id} outside region "
                             f"(max {self.max_tasks})")
        return self.base + (task_id << 7)

    def contains(self, addr: int) -> bool:
        return self.base <= addr < self.end


@dataclass(frozen=True)
class MemoryLayout:
    """Overall RAM layout for kernel images.

    ================  =========================================
    region            contents
    ================  =========================================
    ``text_base``     boot code, ISR, kernel routines, task code
    ``data_base``     kernel globals, TCBs, lists, ID→TCB table
    ``stack_base``    per-task stacks (grow downwards)
    ``context_base``  fixed context region (S/L configurations)
    ================  =========================================
    """

    text_base: int = 0x0000_0000
    data_base: int = 0x0002_0000
    stack_base: int = 0x0004_0000
    context_base: int = 0x0006_0000
    stack_words: int = 256
    max_tasks: int = 16

    @property
    def context_region(self) -> ContextRegion:
        return ContextRegion(base=self.context_base, max_tasks=self.max_tasks)

    def stack_top(self, task_index: int) -> int:
        """Initial stack pointer for the task at *task_index* (full stack)."""
        return self.stack_base + (task_index + 1) * self.stack_words * 4


#: Re-exported counts for convenience.
__all__ = [
    "CONTEXT_REG_ORDER",
    "CONTEXT_SLOT_WORDS",
    "CONTEXT_WORDS",
    "ContextRegion",
    "MEPC_SLOT_INDEX",
    "MSTATUS_SLOT_INDEX",
    "MemoryLayout",
]
