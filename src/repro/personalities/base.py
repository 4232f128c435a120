"""The personality contract: what a kernel design must provide.

A *personality* is one scheduler design rendered behind the shared
assembly-kernel interface. The builder keeps the boot sequence, the
list primitives, the task bodies and the data-section skeleton; a
personality supplies everything scheduler-shaped:

* the software scheduler block (``sw_add_ready`` /
  ``switch_context_sw`` / ``tick_handler`` / ``kernel_panic`` labels),
* the kernel API rendering (blocking, wake and preemption policy),
* the ISR dispatch (which interrupt causes reschedule),
* the idle task, the ready-structure data words, and the task-set
  shapes it can represent.

Every hook receives the :class:`repro.rtosunit.config.RTOSUnitConfig`
so a personality can specialise per configuration; non-``freertos``
personalities are software schedulers by construction (the config
layer rejects T/Y/P and CV32RT combinations before a hook ever runs).
"""

from __future__ import annotations

import hashlib


class Personality:
    """Base class for kernel personalities (see docs/PERSONALITIES.md)."""

    #: Registry key; also the ``@``-suffix spelling in config names.
    name: str = ""
    #: One-line description for CLI listings and reports.
    summary: str = ""
    #: Whether the data section statically pre-links the per-priority
    #: ready lists (FreeRTOS-style); bitmap/table personalities leave
    #: the TCB state nodes detached and seed their own structure.
    prelink_ready: bool = False

    # -- kernel assembly ---------------------------------------------------

    def sched_asm(self, config) -> str:
        """The software scheduler block (software-scheduled configs)."""
        raise NotImplementedError

    def api_asm(self, config) -> str:
        """The task-facing kernel API for *config*."""
        raise NotImplementedError

    def isr_asm(self, config) -> str:
        """The full ISR, starting at label ``isr_entry``."""
        raise NotImplementedError

    def idle_task(self):
        """The idle :class:`~repro.kernel.tasks.TaskSpec` to append."""
        raise NotImplementedError

    # -- static data -------------------------------------------------------

    def ready_data(self, tasks, by_prio) -> list[str]:
        """Data-section lines for the ready structure.

        Emitted between ``tick_count`` and ``delay_list``. *by_prio*
        maps priority → initially-ready tasks in declaration order and
        is only populated when :attr:`prelink_ready` is set.
        """
        raise NotImplementedError

    # -- validity ----------------------------------------------------------

    def task_set_conflicts(self, tasks) -> list[str]:
        """Human-readable reasons *tasks* cannot run under this design.

        An empty list means the task set is representable. ``tasks``
        includes the appended idle task.
        """
        return []

    # -- identity ----------------------------------------------------------

    def fingerprint_text(self) -> str:
        """The template text that shapes this personality's kernels."""
        return ""

    def fingerprint(self) -> str:
        """Stable digest of this personality's identity and templates.

        Feeds :func:`repro.personalities.kernel_fingerprint`, which the
        DSE cache keys incorporate — two personalities can
        never collide on a cache key because their names differ, and a
        template edit re-addresses exactly the kernels it could change.
        """
        digest = hashlib.sha256()
        digest.update(self.name.encode())
        digest.update(b"\0")
        digest.update(self.fingerprint_text().encode())
        return digest.hexdigest()[:16]
