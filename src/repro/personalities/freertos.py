"""The ``freertos`` personality: the paper's kernel, unchanged.

This wraps the original FreeRTOS-workalike templates without touching a
byte: per-priority doubly-linked ready lists with round-robin rotation,
preemptive wakes through the machine software interrupt, and the
configuration-dependent ISR variants of Fig. 4. The rendered source for
any ``freertos`` configuration is byte-identical to the
pre-personality kernel, which keeps every DSE cache entry and exported
latency byte-stable across the refactor.
"""

from __future__ import annotations

from repro.kernel.api import api_asm as _freertos_api_asm
from repro.kernel.isr import isr_asm as _freertos_isr_asm
from repro.kernel.layout import LIST_SENTINEL_VALUE, MAX_PRIORITIES, \
    NODE_SIZE, TCB_STATE_NODE
from repro.kernel.sched import SCHED_ASM
from repro.personalities.base import Personality


class FreeRTOSPersonality(Personality):
    """Preemptive, round-robin-within-priority (the paper's kernel)."""

    name = "freertos"
    summary = ("FreeRTOS-workalike: per-priority ready lists, "
               "round-robin, preemptive wakes (the paper's kernel)")
    prelink_ready = True

    def sched_asm(self, config) -> str:
        return SCHED_ASM

    def api_asm(self, config) -> str:
        return _freertos_api_asm(hw_sched=config.sched,
                                 hwsync=config.hwsync)

    def isr_asm(self, config) -> str:
        return _freertos_isr_asm(config)

    def idle_task(self):
        from repro.kernel.tasks import IDLE_TASK

        return IDLE_TASK

    def ready_data(self, tasks, by_prio) -> list[str]:
        top = max((t.priority for t in tasks if t.auto_ready), default=0)
        lines = [f"top_ready_prio: .word {top}", ""]
        lines.append("ready_lists:")
        for prio in range(MAX_PRIORITIES):
            header = f"ready_lists+{prio * NODE_SIZE}"
            chain = by_prio.get(prio, [])
            if chain:
                head = f"tcb_{chain[0].name}+{TCB_STATE_NODE}"
                tail = f"tcb_{chain[-1].name}+{TCB_STATE_NODE}"
            else:
                head = tail = header
            lines.append(f"    .word {head}, {tail}, "
                         f"{LIST_SENTINEL_VALUE:#x}, {len(chain)}")
        return lines

    def fingerprint_text(self) -> str:
        return SCHED_ASM
