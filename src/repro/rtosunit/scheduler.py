"""The hardware task scheduler (paper §4.4, Figure 5).

The RTOSUnit moves FreeRTOS's *ready* and *delay* lists into hardware,
while *event* lists remain in software. The hardware keeps both lists
iteratively sorted (the prototype uses bubble sort — cheap in area, and
enough time passes between insertion and head query). Ready entries are
ordered by priority, preserving insertion order among equal priorities;
the delay list is ordered by remaining delay, ties broken by priority.
Timer interrupts decrement all delay counters and move expired tasks to
the ready list automatically.

``GET_HW_SCHED`` returns the head of the ready list and rotates that
entry to the tail of its priority class (round-robin within priority,
matching FreeRTOS's time slicing).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, SimulationError


@dataclass
class ListEntry:
    """One slot of a hardware list."""

    task_id: int
    priority: int
    delay: int = 0
    seq: int = 0  # insertion order, for FIFO within equal priority
    valid: bool = True


@dataclass
class HardwareScheduler:
    """Ready + delay lists with a bubble-sort settle-time model.

    The *timing* model: after any mutation at cycle ``c``, an odd-even
    transposition network needs up to ``length`` cycles to re-sort, so the
    head is trustworthy from ``c + length``; a ``GET_HW_SCHED`` issued
    earlier stalls until then. This settle time is where the small
    residual jitter of the (T) configurations comes from.
    """

    length: int = 8
    ready: list[ListEntry] = field(default_factory=list)
    delayed: list[ListEntry] = field(default_factory=list)
    _seq: int = 0
    _settle_at: int = 0
    overflowed: bool = False

    # -- custom-instruction operations --------------------------------------

    def add_ready(self, task_id: int, priority: int, cycle: int = 0) -> None:
        """ADD_READY: insert a task into the hardware ready list."""
        if len(self.ready) >= self.length:
            # Beyond the design-time ceiling the system must fall back to
            # software scheduling (§4.4); we surface that as a flag the
            # kernel can test and an error if it keeps pushing.
            self.overflowed = True
            raise SimulationError(
                f"hardware ready list overflow (length {self.length})")
        self._seq += 1
        entry = ListEntry(task_id=task_id, priority=priority, seq=self._seq)
        self.ready.append(entry)
        self._resort_ready()
        self._touch(cycle)

    def add_delay(self, task_id: int, priority: int, delay: int,
                  cycle: int = 0) -> None:
        """ADD_DELAY: put the (current) task into the delay list."""
        if delay <= 0:
            raise SimulationError("ADD_DELAY with non-positive delay")
        if len(self.delayed) >= self.length:
            self.overflowed = True
            raise SimulationError(
                f"hardware delay list overflow (length {self.length})")
        self._seq += 1
        self.delayed.append(ListEntry(task_id=task_id, priority=priority,
                                      delay=delay, seq=self._seq))
        self._resort_delay()
        self._touch(cycle)

    def rm_task(self, task_id: int, cycle: int = 0) -> None:
        """RM_TASK: clear the valid bit of all entries matching *task_id*."""
        self.ready = [e for e in self.ready if e.task_id != task_id]
        self.delayed = [e for e in self.delayed if e.task_id != task_id]
        self._touch(cycle)

    def get_next(self, cycle: int = 0,
                 current_task_id: int | None = None) -> tuple[int, int]:
        """GET_HW_SCHED: return ``(task_id, ready_cycle)`` of the head.

        The *current* task's entry (if still ready) is first rotated to
        the tail of its priority class — FreeRTOS's round-robin within
        priorities — then the head is returned. ``ready_cycle`` accounts
        for the sort settle time; the core model stalls until then.
        """
        ready_cycle = max(cycle, self._settle_at)
        if not self.ready:
            raise SimulationError("GET_HW_SCHED with empty ready list")
        if current_task_id is not None:
            for entry in self.ready:
                if entry.task_id == current_task_id:
                    self._seq += 1
                    entry.seq = self._seq
                    self._resort_ready()
                    break
        head = self.ready[0]
        self._touch(ready_cycle)
        return head.task_id, ready_cycle

    # -- external events -----------------------------------------------------

    def on_tick(self, cycle: int = 0) -> int:
        """Timer interrupt: decrement delays, release expired tasks.

        Returns the number of tasks moved to the ready list.
        """
        released = 0
        still_delayed = []
        for entry in self.delayed:
            entry.delay -= 1
            if entry.delay <= 0:
                if len(self.ready) >= self.length:
                    self.overflowed = True
                    raise SimulationError("ready list overflow on tick release")
                self._seq += 1
                entry.seq = self._seq
                entry.delay = 0
                self.ready.append(entry)
                released += 1
            else:
                still_delayed.append(entry)
        self.delayed = still_delayed
        if released:
            self._resort_ready()
            self._resort_delay()
        self._touch(cycle)
        return released

    # -- helpers ---------------------------------------------------------------

    def _resort_ready(self) -> None:
        # Descending priority, ascending insertion order. Python's stable
        # sort reproduces the steady state of the hardware sorter.
        self.ready.sort(key=lambda e: (-e.priority, e.seq))

    def _resort_delay(self) -> None:
        self.delayed.sort(key=lambda e: (e.delay, -e.priority, e.seq))

    def _touch(self, cycle: int) -> None:
        self._settle_at = max(self._settle_at, cycle + self.length)

    def peek_next(self, current_task_id: int | None) -> int | None:
        """The task most likely to run at the next switch (§4.7).

        This is the ready-list head after the running task's round-robin
        rotation — i.e. the first entry that is not the current task; if
        the current task is alone, it is itself the prediction.
        """
        for entry in self.ready:
            if entry.task_id != current_task_id:
                return entry.task_id
        return self.ready[0].task_id if self.ready else None

    # -- snapshot/restore (repro.snapshot) -----------------------------------

    def capture_state(self) -> tuple:
        def entries(lst):
            return tuple((e.task_id, e.priority, e.delay, e.seq, e.valid)
                         for e in lst)
        return (entries(self.ready), entries(self.delayed),
                self._seq, self._settle_at, self.overflowed)

    def restore_state(self, state: tuple) -> None:
        ready, delayed, self._seq, self._settle_at, self.overflowed = state
        self.ready = [ListEntry(*fields) for fields in ready]
        self.delayed = [ListEntry(*fields) for fields in delayed]

    def ready_ids(self) -> list[int]:
        return [e.task_id for e in self.ready]

    def delayed_ids(self) -> list[int]:
        return [e.task_id for e in self.delayed]

    def __post_init__(self) -> None:
        if self.length <= 0:
            raise ConfigurationError("scheduler list length must be positive")
