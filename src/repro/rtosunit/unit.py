"""Top-level RTOSUnit model: store/restore FSMs, preloading, dirty bits.

The unit is attached to a core model and reacts to three kinds of events
(paper §4–5): interrupt entry (kick the store FSM, tick the hardware
scheduler), custom instructions (Table 1), and ``mret`` (restore-complete
stall, dirty-bit clearing, preload scheduling).

Functional effects (context words copied between the application register
file and the context memory region) are applied eagerly; *timing* is
tracked as FSM transfers that consume free cycles of the shared memory
port lazily, at the synchronisation points where the core actually
observes completion (``SWITCH_RF``, ``mret``, next interrupt entry). The
core always has port priority (§4.2, optimisation 2), so this lazy
evaluation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.isa import csr as csrmod
from repro.isa.custom import CustomOp
from repro.isa.registers import CONTEXT_SAVED_REGS
from repro.mem.memory import Memory
from repro.mem.regions import (
    CONTEXT_REG_ORDER,
    ContextRegion,
    MEPC_SLOT_INDEX,
    MSTATUS_SLOT_INDEX,
)
from repro.mem.timeline import MemoryTimeline
from repro.rtosunit.config import RTOSUnitConfig
from repro.rtosunit.scheduler import HardwareScheduler

#: Registers CV32RT snapshots in hardware (half the file: x1, x5-x15, x28-x31
#: — the "caller-ish" half Balas et al. free first), stored via the
#: dedicated port. The remaining 13 GPRs + 2 CSRs are saved in software.
CV32RT_HW_REGS: tuple[int, ...] = (1, 5, 6, 7, 10, 11, 12, 13, 14, 15, 28, 29, 30, 31, 8, 9)

#: FSM start-up latency in cycles before the first word moves.
FSM_STARTUP_CYCLES = 1


def _flat_word_cost(addr: int, is_write: bool) -> int:
    """Default port cost: one cycle per word, no side effects."""
    return 1


@dataclass
class _Transfer:
    """One pending FSM transfer over the shared port."""

    kind: str  # "store" | "restore" | "preload"
    start: int
    cost: int  # total port cycles (words x per-word cost)
    completion: int | None = None


@dataclass
class UnitStats:
    """Activity counters feeding the power model."""

    words_stored: int = 0
    words_loaded: int = 0
    words_preloaded: int = 0
    sched_ops: int = 0
    ticks: int = 0
    preload_hits: int = 0
    preload_misses: int = 0
    loads_omitted: int = 0
    dirty_words_skipped: int = 0


@dataclass
class CustomResult:
    """Outcome of a custom instruction as seen by the core."""

    rd_value: int = 0
    complete_cycle: int = 0
    switch_banks: bool = False


class RTOSUnit:
    """The configurable RTOSUnit attached to one core."""

    def __init__(
        self,
        config: RTOSUnitConfig,
        memory: Memory,
        timeline: MemoryTimeline,
        region: ContextRegion,
    ):
        self.config = config
        self.memory = memory
        self.timeline = timeline
        self.region = region
        # Per-word port cost hook; NaxRiscv shares the data cache (§5.3),
        # so the word cost depends on hit/miss there. The System rewires
        # it to the core's ``rtosunit_word_cost``.
        self.word_cost = _flat_word_cost
        self.scheduler = (HardwareScheduler(length=config.list_length)
                          if config.sched else None)
        self.hwsync = None
        if config.hwsync:
            from repro.rtosunit.hwsync import HardwareSync

            self.hwsync = HardwareSync(self.scheduler,
                                       slots=config.sem_slots,
                                       max_waiters=config.list_length)
        self.current_task_id: int | None = None
        self.next_task_id: int | None = None
        self._prev_task_id: int | None = None
        self._pending: list[_Transfer] = []
        self._preload_predicted: int | None = None
        self._preload_transfer: _Transfer | None = None
        self._preload_valid = False
        self.stats = UnitStats()
        self.core = None  # attached by the core model
        #: Optional context-lifecycle observer with
        #: ``on_context_stored(task_id, slot_addr)`` and
        #: ``on_context_restored(task_id, slot_addr)`` methods; the
        #: runtime invariant checker (repro.faults.invariants) attaches
        #: here to checksum saved contexts across save→restore.
        self.observer = None

    # -- attachment ------------------------------------------------------------

    def attach(self, core) -> None:
        """Attach the core whose APP register bank and CSRs we manage."""
        self.core = core

    def boot(self, task_id: int) -> None:
        """Declare the task whose context currently occupies the APP RF."""
        self.current_task_id = task_id

    # -- event: interrupt entry -------------------------------------------------

    def on_interrupt_entry(self, cycle: int, cause: int) -> None:
        """Interrupt taken: tick the HW scheduler, kick the store FSM."""
        if self.scheduler is not None and cause == csrmod.CAUSE_MTI:
            self.scheduler.on_tick(cycle)
            self.stats.ticks += 1
        if self.config.preload:
            self._evaluate_preload(cycle)
        if self.config.cv32rt:
            self._cv32rt_snapshot(cycle)
            return
        if self.config.store:
            self._kick_store(cycle)

    def _flat_cost(self) -> bool:
        """True when ``word_cost`` is a side-effect-free constant 1.

        The System rewires ``word_cost`` to the core's
        ``rtosunit_word_cost`` after construction, so this is evaluated
        per transfer, not cached at init.
        """
        fn = self.word_cost
        if fn is _flat_word_cost:
            return True
        owner = getattr(fn, "__self__", None)
        return (owner is not None
                and getattr(type(owner), "RTOSUNIT_FLAT_WORD_COST", False))

    def _kick_store(self, cycle: int) -> None:
        if self.current_task_id is None:
            raise SimulationError("store FSM kicked before boot()")
        regs = self.core.app_bank
        slot = self.region.slot_addr(self.current_task_id)
        dirty_mask = getattr(self.core, "dirty_mask", 0)
        if not self.config.dirty and self._flat_cost():
            # Whole slot is contiguous (regs, then MSTATUS/MEPC) and each
            # word costs exactly one port cycle: move it in one bulk write.
            values = [regs[reg] for reg in CONTEXT_REG_ORDER]
            values.append(self.core.csr.read(csrmod.MSTATUS))
            values.append(self.core.csr.read(csrmod.MEPC))
            self.memory.write_words_raw(slot, values)
            cost = len(values)
            self.stats.words_stored += cost
        else:
            cost = 0
            for index, reg in enumerate(CONTEXT_REG_ORDER):
                if self.config.dirty and not (dirty_mask >> reg) & 1:
                    self.stats.dirty_words_skipped += 1
                    continue
                addr = slot + 4 * index
                self.memory.write_word_raw(addr, regs[reg])
                cost += self.word_cost(addr, True)
                self.stats.words_stored += 1
            for index, value in (
                (MSTATUS_SLOT_INDEX, self.core.csr.read(csrmod.MSTATUS)),
                (MEPC_SLOT_INDEX, self.core.csr.read(csrmod.MEPC)),
            ):
                addr = slot + 4 * index
                self.memory.write_word_raw(addr, value)
                cost += self.word_cost(addr, True)
                self.stats.words_stored += 1
        self._pending.append(_Transfer("store", cycle + FSM_STARTUP_CYCLES, cost))
        if self.observer is not None:
            self.observer.on_context_stored(self.current_task_id, slot)

    def _cv32rt_snapshot(self, cycle: int) -> None:
        """CV32RT: snapshot half the RF over a dedicated memory port.

        The software ISR allocates a 32-word frame and saves the other
        half; the hardware writes its 16 registers into that frame in
        parallel. The dedicated port never contends with the core, so the
        snapshot always completes under the software save.
        """
        regs = self.core.app_bank
        frame_bytes = 4 * (len(CONTEXT_SAVED_REGS) + 2)
        frame = (regs[2] - frame_bytes) & 0xFFFFFFFF  # sp after the ISR's
        # frame allocation; the software ISR does the addi first.
        for reg in CV32RT_HW_REGS:
            addr = frame + 4 * CONTEXT_SAVED_REGS.index(reg)
            self.memory.write_word_raw(addr, regs[reg])
            self.stats.words_stored += 1
        invalidate = getattr(self.core, "cv32rt_invalidate", None)
        if invalidate is not None:
            # The dedicated port bypasses the write-back cache; the lines
            # holding the snapshot must be invalidated (§6).
            invalidate(frame, 16 * 4)

    # -- event: custom instruction ----------------------------------------------

    def exec_custom(self, op: CustomOp, rs1: int, rs2: int,
                    cycle: int) -> CustomResult:
        """Execute one custom instruction at *cycle*."""
        if op == CustomOp.SET_CONTEXT_ID:
            return self._set_next_task(rs1, cycle)
        if op == CustomOp.GET_HW_SCHED:
            self._require_sched("GET_HW_SCHED")
            task_id, ready_cycle = self.scheduler.get_next(
                cycle, self.current_task_id)
            self.stats.sched_ops += 1
            result = self._set_next_task(task_id, ready_cycle)
            result.rd_value = task_id
            return result
        if op == CustomOp.ADD_READY:
            self._require_sched("ADD_READY")
            self.scheduler.add_ready(rs1, rs2, cycle)
            self.stats.sched_ops += 1
            return CustomResult(complete_cycle=cycle)
        if op == CustomOp.ADD_DELAY:
            self._require_sched("ADD_DELAY")
            if self.current_task_id is None:
                raise SimulationError("ADD_DELAY with no current task")
            self.scheduler.add_delay(self.current_task_id, rs1, rs2, cycle)
            self.stats.sched_ops += 1
            return CustomResult(complete_cycle=cycle)
        if op == CustomOp.RM_TASK:
            self._require_sched("RM_TASK")
            self.scheduler.rm_task(rs1, cycle)
            self.stats.sched_ops += 1
            return CustomResult(complete_cycle=cycle)
        if op == CustomOp.SWITCH_RF:
            # Delayed while context storing is in progress (§4.2).
            done = self._complete_through("store", cycle)
            return CustomResult(complete_cycle=max(cycle, done),
                                switch_banks=True)
        if op == CustomOp.SEM_TAKE:
            self._require_hwsync("SEM_TAKE")
            value = self.hwsync.take(rs1, self.current_task_id,
                                     self._current_priority(), cycle)
            return CustomResult(rd_value=value, complete_cycle=cycle)
        if op == CustomOp.SEM_GIVE:
            self._require_hwsync("SEM_GIVE")
            value = self.hwsync.give(rs1, cycle)
            return CustomResult(rd_value=value, complete_cycle=cycle)
        raise SimulationError(f"unknown custom op {op!r}")

    # -- block-resident fast path (repro.cores.blocks) ---------------------------

    def fast_custom_handlers(self):
        """Per-op ``(handler, terminal)`` pairs for predecoded blocks.

        Each handler has the signature ``(rs1_value, rs2_value, issue)
        -> (rd_value, complete_cycle)`` and must apply exactly the
        architectural effects and cycle charging of :meth:`exec_custom`
        for its op — the on/off differential suite holds it to that.
        ``terminal`` is 1 for ops whose effects feed the interrupt
        horizon: under the (L) context loader ``SET_CONTEXT_ID`` /
        ``GET_HW_SCHED`` restore MSTATUS/MEPC, so they run resident but
        end the block with the cached horizon invalidated (the restore
        mutates the *application* bank in place, which is exact in both
        the banked-ISR and flat-RF cases). ``SWITCH_RF`` switches
        register banks mid-stream and stays a block terminator on the
        exact ``_step_custom`` path. Ops whose extension is absent from
        the config are excluded; executing one must raise through the
        exact path, FSMs untouched.
        """
        handlers = {}
        if self.scheduler is not None:
            handlers[CustomOp.ADD_READY] = (self._fast_add_ready, 0)
            handlers[CustomOp.ADD_DELAY] = (self._fast_add_delay, 0)
            handlers[CustomOp.RM_TASK] = (self._fast_rm_task, 0)
        terminal = 1 if self.config.load else 0
        handlers[CustomOp.SET_CONTEXT_ID] = (self._fast_set_context_id,
                                             terminal)
        if self.scheduler is not None:
            handlers[CustomOp.GET_HW_SCHED] = (self._fast_get_hw_sched,
                                               terminal)
        if self.hwsync is not None:
            handlers[CustomOp.SEM_TAKE] = (self._fast_sem_take, 0)
            handlers[CustomOp.SEM_GIVE] = (self._fast_sem_give, 0)
        return handlers

    def _fast_add_ready(self, rs1: int, rs2: int, cycle: int):
        self.scheduler.add_ready(rs1, rs2, cycle)
        self.stats.sched_ops += 1
        return 0, cycle

    def _fast_add_delay(self, rs1: int, rs2: int, cycle: int):
        if self.current_task_id is None:
            raise SimulationError("ADD_DELAY with no current task")
        self.scheduler.add_delay(self.current_task_id, rs1, rs2, cycle)
        self.stats.sched_ops += 1
        return 0, cycle

    def _fast_rm_task(self, rs1: int, rs2: int, cycle: int):
        self.scheduler.rm_task(rs1, cycle)
        self.stats.sched_ops += 1
        return 0, cycle

    def _fast_set_context_id(self, rs1: int, rs2: int, cycle: int):
        result = self._set_next_task(rs1, cycle)
        return result.rd_value, result.complete_cycle

    def _fast_get_hw_sched(self, rs1: int, rs2: int, cycle: int):
        task_id, ready_cycle = self.scheduler.get_next(
            cycle, self.current_task_id)
        self.stats.sched_ops += 1
        result = self._set_next_task(task_id, ready_cycle)
        return task_id, result.complete_cycle

    def _fast_sem_take(self, rs1: int, rs2: int, cycle: int):
        value = self.hwsync.take(rs1, self.current_task_id,
                                 self._current_priority(), cycle)
        return value, cycle

    def _fast_sem_give(self, rs1: int, rs2: int, cycle: int):
        value = self.hwsync.give(rs1, cycle)
        return value, cycle

    def _require_hwsync(self, what: str) -> None:
        if self.hwsync is None:
            raise SimulationError(
                f"{what} needs the hardware synchronisation extension (Y); "
                f"config is {self.config.name}")

    def _current_priority(self) -> int:
        """Priority of the running task, read from its ready-list entry."""
        if self.current_task_id is None:
            raise SimulationError("SEM_TAKE with no current task")
        for entry in self.scheduler.ready:
            if entry.task_id == self.current_task_id:
                return entry.priority
        raise SimulationError(
            f"running task {self.current_task_id} is not in the hardware "
            f"ready list")

    def _require_sched(self, what: str) -> None:
        if self.scheduler is None:
            raise SimulationError(
                f"{what} needs hardware scheduling (T); config is "
                f"{self.config.name}")

    def _set_next_task(self, task_id: int, cycle: int) -> CustomResult:
        """Latch the next task; kick the restore FSM when (L) is enabled."""
        self._prev_task_id = self.current_task_id
        self.next_task_id = task_id
        restore_needed = True
        if self.config.omit and task_id == self._prev_task_id:
            # Load omission: APP RF already holds this task (§4.6).
            restore_needed = False
            self.stats.loads_omitted += 1
        if self.config.preload and self._preload_valid:
            if self._preload_predicted == task_id:
                # Correct speculation: the restore happened in lockstep
                # with the store (§4.7) — no separate transfer.
                self.stats.preload_hits += 1
                restore_needed = False
            else:
                self.stats.preload_misses += 1
            self._preload_valid = False
        if self.config.load:
            if restore_needed:
                cost = self._load_context(task_id)
                self._pending.append(
                    _Transfer("restore", cycle + FSM_STARTUP_CYCLES, cost))
            elif self.config.preload and task_id != self._prev_task_id:
                # Preload hit: the register values still have to land in
                # the APP RF, functionally.
                self._apply_context_words(task_id)
        self.current_task_id = task_id
        return CustomResult(rd_value=task_id, complete_cycle=cycle)

    def _load_context(self, task_id: int) -> int:
        """Functional restore; returns the port cost in cycles."""
        n = len(CONTEXT_REG_ORDER) + 2
        if self._flat_cost():
            cost = n
        else:
            cost = 0
            slot = self.region.slot_addr(task_id)
            for index in range(n):
                cost += self.word_cost(slot + 4 * index, False)
        self.stats.words_loaded += n
        self._apply_context_words(task_id)
        return cost

    def _apply_context_words(self, task_id: int) -> None:
        regs = self.core.app_bank
        slot = self.region.slot_addr(task_id)
        if self.observer is not None:
            # Verify before the words land in the RF: corruption of the
            # slot between save and restore is still observable here.
            self.observer.on_context_restored(task_id, slot)
        words = self.memory.read_words_raw(slot, len(CONTEXT_REG_ORDER) + 2)
        for index, reg in enumerate(CONTEXT_REG_ORDER):
            regs[reg] = words[index]
        self.core.csr.write(csrmod.MSTATUS, words[MSTATUS_SLOT_INDEX])
        self.core.csr.write(csrmod.MEPC, words[MEPC_SLOT_INDEX])

    # -- snapshot/restore (repro.snapshot) -------------------------------------

    def capture_state(self) -> dict:
        """Snapshot the FSM/scheduler state for :meth:`System.capture`.

        Pending transfers are stored as plain tuples; the preload
        transfer — which may be aliased *into* the pending list, or
        detached but still referenced after ``_complete_through``
        resolved it — is stored as its pending-list index when aliased
        so the restore rebuilds the same object identity.
        """
        pending = [(t.kind, t.start, t.cost, t.completion)
                   for t in self._pending]
        preload_index = preload_detached = None
        transfer = self._preload_transfer
        if transfer is not None:
            if transfer in self._pending:
                preload_index = self._pending.index(transfer)
            else:
                preload_detached = (transfer.kind, transfer.start,
                                    transfer.cost, transfer.completion)
        return {
            "current_task_id": self.current_task_id,
            "next_task_id": self.next_task_id,
            "prev_task_id": self._prev_task_id,
            "pending": pending,
            "preload_predicted": self._preload_predicted,
            "preload_valid": self._preload_valid,
            "preload_index": preload_index,
            "preload_detached": preload_detached,
            "stats": vars(self.stats).copy(),
            "scheduler": (self.scheduler.capture_state()
                          if self.scheduler is not None else None),
            "hwsync": (self.hwsync.capture_state()
                       if self.hwsync is not None else None),
        }

    def restore_state(self, state: dict) -> None:
        self.current_task_id = state["current_task_id"]
        self.next_task_id = state["next_task_id"]
        self._prev_task_id = state["prev_task_id"]
        self._pending[:] = [_Transfer(*fields) for fields in state["pending"]]
        self._preload_predicted = state["preload_predicted"]
        self._preload_valid = state["preload_valid"]
        if state["preload_index"] is not None:
            self._preload_transfer = self._pending[state["preload_index"]]
        elif state["preload_detached"] is not None:
            self._preload_transfer = _Transfer(*state["preload_detached"])
        else:
            self._preload_transfer = None
        self.stats.__dict__.update(state["stats"])
        if self.scheduler is not None and state["scheduler"] is not None:
            self.scheduler.restore_state(state["scheduler"])
        if self.hwsync is not None and state["hwsync"] is not None:
            self.hwsync.restore_state(state["hwsync"])

    # -- event: mret ----------------------------------------------------------

    def on_mret(self, cycle: int) -> int:
        """ISR exit. Returns the cycle at which ``mret`` may complete."""
        done = cycle
        if self.config.load:
            done = max(done, self._complete_through("restore", cycle))
            if self.config.preload:
                # On a preload hit there is no restore transfer, but the
                # lockstep swap only finishes with the store (§4.7):
                # every saved register is replaced as it is written out.
                done = max(done, self._complete_through("store", cycle))
        if self.config.dirty:
            self.core.dirty_mask = 0
        if self.config.preload:
            self._schedule_preload(done + 1)
        return done

    # -- preloading -------------------------------------------------------------

    def _schedule_preload(self, cycle: int) -> None:
        """Speculatively preload the head of the ready list (§4.7)."""
        predicted = (self.scheduler.peek_next(self.current_task_id)
                     if self.scheduler else None)
        self._preload_predicted = predicted
        self._preload_valid = False
        self._preload_transfer = None
        if predicted is None or predicted == self.current_task_id:
            return
        n = len(CONTEXT_REG_ORDER) + 2
        if self._flat_cost():
            cost = n
        else:
            slot = self.region.slot_addr(predicted)
            cost = sum(self.word_cost(slot + 4 * i, False)
                       for i in range(n))
        self._preload_transfer = _Transfer("preload",
                                           cycle + FSM_STARTUP_CYCLES, cost)
        self._pending.append(self._preload_transfer)

    def _evaluate_preload(self, entry_cycle: int) -> None:
        """At interrupt entry, decide whether the preload buffer is usable.

        The preload FSM is aborted by the interrupt: it may only consume
        idle port cycles *before* entry, never delay the store/restore
        FSMs of the switch now starting.
        """
        transfer = self._preload_transfer
        if transfer is None:
            return
        if transfer in self._pending:
            self._pending.remove(transfer)
        done = self.timeline.consume_free_until(
            transfer.start, transfer.cost, entry_cycle)
        if done is not None:
            self._preload_valid = True
            self.stats.words_preloaded += transfer.cost
        else:
            self._preload_valid = False
        self._preload_transfer = None

    # -- transfer timing ---------------------------------------------------------

    def _complete_through(self, kind: str, cycle: int) -> int:
        """Resolve pending transfers in order, up to the last one of *kind*.

        Returns that transfer's completion cycle (or *cycle* when nothing
        of *kind* is pending).
        """
        last_of_kind = None
        for index, transfer in enumerate(self._pending):
            if transfer.kind == kind:
                last_of_kind = index
        if last_of_kind is None:
            return cycle
        result = cycle
        prev_done = 0
        for transfer in self._pending[: last_of_kind + 1]:
            if transfer.completion is None:
                start = max(transfer.start, prev_done + 1)
                transfer.completion = self.timeline.consume_free(
                    start, transfer.cost)
            prev_done = transfer.completion
            result = transfer.completion
        del self._pending[: last_of_kind + 1]
        return result
