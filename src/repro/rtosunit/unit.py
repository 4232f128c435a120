"""Top-level RTOSUnit model: store/restore FSMs, preloading, dirty bits.

The unit is attached to a core model and reacts to three kinds of events
(paper §4–5): interrupt entry (kick the store FSM, tick the hardware
scheduler), custom instructions (Table 1), and ``mret`` (restore-complete
stall, dirty-bit clearing, preload scheduling).

It meets the core through one interface. Each custom op is one function
in ``_OPS``: :meth:`RTOSUnit.exec_custom` runs it on the exact path and
:meth:`RTOSUnit.fast_custom_handlers` binds the same function for the
block records. Each context frame moves by one path: the store, the (D)
dirty store and the CV32RT snapshot write their words in runs of one
:meth:`Memory.write_words_raw` each, and every store, restore and
preload transfer is costed by the core's ``rtosunit_frame_cost(slot,
words, is_write)``, which is where each core's port arbitration lives
(one bus beat per word, or NaxRiscv's shared D$).

Functional effects (context words copied between the application register
file and the context memory region) are applied eagerly; *timing* is
tracked as FSM transfers that consume free cycles of the shared memory
port lazily, at the synchronisation points where the core actually
observes completion (``SWITCH_RF``, ``mret``, next interrupt entry). The
core always has port priority (§4.2, optimisation 2), so this lazy
evaluation is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial

from repro.errors import SimulationError
from repro.isa import csr as csrmod
from repro.isa.custom import CustomOp
from repro.isa.registers import CONTEXT_SAVED_REGS, CONTEXT_WORDS
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

#: Word indices of a whole context frame, and of its two CSR words.
_FRAME_WORDS = range(CONTEXT_WORDS)
_CSR_WORDS = [MSTATUS_SLOT_INDEX, MEPC_SLOT_INDEX]
#: Frame words CV32RT's snapshot writes, ascending, in the software
#: ISR's frame layout (``CONTEXT_SAVED_REGS`` order).
_CV32RT_WORDS = sorted(CONTEXT_SAVED_REGS.index(reg) for reg in CV32RT_HW_REGS)


@dataclass
class _Transfer:
    """One pending FSM transfer over the shared port."""

    kind: str  # "store" | "restore" | "preload"
    start: int
    cost: int  # total port cycles, from the core's rtosunit_frame_cost
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


# -- the custom ops, each written once ------------------------------------------
#
# Each takes ``(unit, rs1_value, rs2_value, cycle)`` and returns
# ``(rd_value, complete_cycle)``. SWITCH_RF switches register banks, so
# it stays in :meth:`RTOSUnit.exec_custom`, on the exact path.


def _set_context_id(unit, rs1, rs2, cycle):
    return unit._set_next_task(rs1, cycle)


def _get_hw_sched(unit, rs1, rs2, cycle):
    task_id, ready_cycle = unit.scheduler.get_next(cycle, unit.current_task_id)
    unit.stats.sched_ops += 1
    return unit._set_next_task(task_id, ready_cycle)


def _add_ready(unit, rs1, rs2, cycle):
    unit.scheduler.add_ready(rs1, rs2, cycle)
    unit.stats.sched_ops += 1
    return 0, cycle


def _add_delay(unit, rs1, rs2, cycle):
    if unit.current_task_id is None:
        raise SimulationError("ADD_DELAY with no current task")
    unit.scheduler.add_delay(unit.current_task_id, rs1, rs2, cycle)
    unit.stats.sched_ops += 1
    return 0, cycle


def _rm_task(unit, rs1, rs2, cycle):
    unit.scheduler.rm_task(rs1, cycle)
    unit.stats.sched_ops += 1
    return 0, cycle


def _sem_take(unit, rs1, rs2, cycle):
    priority = unit._current_priority()
    return unit.hwsync.take(rs1, unit.current_task_id, priority, cycle), cycle


def _sem_give(unit, rs1, rs2, cycle):
    return unit.hwsync.give(rs1, cycle), cycle


#: op -> (its function, the unit attribute its extension builds, or None).
_OPS = {
    CustomOp.SET_CONTEXT_ID: (_set_context_id, None),
    CustomOp.GET_HW_SCHED: (_get_hw_sched, "scheduler"),
    CustomOp.ADD_READY: (_add_ready, "scheduler"),
    CustomOp.ADD_DELAY: (_add_delay, "scheduler"),
    CustomOp.RM_TASK: (_rm_task, "scheduler"),
    CustomOp.SEM_TAKE: (_sem_take, "hwsync"),
    CustomOp.SEM_GIVE: (_sem_give, "hwsync"),
}
#: Extension attribute -> how an absent-extension error names it.
_EXTENSIONS = {
    "scheduler": "hardware scheduling (T)",
    "hwsync": "the hardware synchronisation extension (Y)",
}
#: Ops that latch the next task and so, under (L), restore MSTATUS/MEPC.
_RESTORING = (CustomOp.SET_CONTEXT_ID, CustomOp.GET_HW_SCHED)


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
        self.scheduler = (HardwareScheduler(length=config.list_length)
                          if config.sched else None)
        self.hwsync = None
        if config.hwsync:
            from repro.rtosunit.hwsync import HardwareSync

            self.hwsync = HardwareSync(self.scheduler,
                                       slots=config.sem_slots,
                                       max_waiters=config.list_length)
        #: This config's ops: plain functions, so the unit holds no
        #: bound method of itself and is freed by reference counting.
        self._ops = {op: fn for op, (fn, extension) in _OPS.items()
                     if extension is None
                     or getattr(self, extension) is not None}
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
        """Attach the core whose APP register bank and CSRs we manage.

        The core costs every context frame through
        ``rtosunit_frame_cost(slot, words, is_write)``.
        """
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

    def _kick_store(self, cycle: int) -> None:
        """Store the APP RF's context into the current task's slot.

        Under (D) only the dirty registers are written, plus MSTATUS and
        MEPC; the clean words of the slot keep what they held.
        """
        if self.current_task_id is None:
            raise SimulationError("store FSM kicked before boot()")
        core = self.core
        regs = core.app_bank
        frame = [regs[reg] for reg in CONTEXT_REG_ORDER]
        frame.append(core.csr.read(csrmod.MSTATUS))
        frame.append(core.csr.read(csrmod.MEPC))
        if self.config.dirty:
            mask = core.dirty_mask
            words = [index for index, reg in enumerate(CONTEXT_REG_ORDER)
                     if (mask >> reg) & 1]
            self.stats.dirty_words_skipped += (len(CONTEXT_REG_ORDER)
                                               - len(words))
            words += _CSR_WORDS
        else:
            words = _FRAME_WORDS
        slot = self.region.slot_addr(self.current_task_id)
        self._write_frame(slot, words, frame)
        self.stats.words_stored += len(words)
        cost = core.rtosunit_frame_cost(slot, words, True)
        self._pending.append(_Transfer("store", cycle + FSM_STARTUP_CYCLES, cost))
        if self.observer is not None:
            self.observer.on_context_stored(self.current_task_id, slot)

    def _cv32rt_snapshot(self, cycle: int) -> None:
        """CV32RT: snapshot half the RF over a dedicated memory port.

        The software ISR allocates a 32-word frame and saves the other
        half; the hardware writes its 16 registers into that frame in
        parallel. The dedicated port never contends with the core, so the
        snapshot always completes under the software save and costs no
        port cycles.
        """
        regs = self.core.app_bank
        frame_bytes = 4 * CONTEXT_WORDS
        frame = (regs[2] - frame_bytes) & 0xFFFFFFFF  # sp after the ISR's
        # frame allocation; the software ISR does the addi first.
        self._write_frame(frame, _CV32RT_WORDS,
                          [regs[reg] for reg in CONTEXT_SAVED_REGS])
        self.stats.words_stored += len(_CV32RT_WORDS)
        invalidate = getattr(self.core, "cv32rt_invalidate", None)
        if invalidate is not None:
            # The dedicated port bypasses the write-back cache; the lines
            # holding the snapshot must be invalidated (§6).
            invalidate(frame, 16 * 4)

    def _write_frame(self, base: int, words, frame) -> None:
        """Write ``frame[i]`` to word *i* at *base* for each ascending
        index *i* of *words*: one ``write_words_raw`` per run of
        consecutive indices."""
        write = self.memory.write_words_raw
        first = last = words[0]
        for index in words[1:]:
            if index != last + 1:
                write(base + 4 * first, frame[first:last + 1])
                first = index
            last = index
        write(base + 4 * first, frame[first:last + 1])

    # -- event: custom instruction ----------------------------------------------

    def exec_custom(self, op: CustomOp, rs1: int, rs2: int,
                    cycle: int) -> CustomResult:
        """Execute one custom instruction at *cycle* on the exact path.

        Runs the op's one function from ``_OPS``, the same one the block
        records bind. An op whose extension the config lacks raises here,
        with the unit untouched, on both paths: the block records never
        hold it, so it always ends its block and arrives here.
        """
        if op == CustomOp.SWITCH_RF:
            # Delayed while context storing is in progress (§4.2).
            done = self._complete_through("store", cycle)
            return CustomResult(complete_cycle=max(cycle, done),
                                switch_banks=True)
        fn = self._ops.get(op)
        if fn is None:
            if op not in _OPS:
                raise SimulationError(f"unknown custom op {op!r}")
            raise SimulationError(
                f"{op.name} needs {_EXTENSIONS[_OPS[op][1]]}; config is "
                f"{self.config.name}")
        rd_value, done = fn(self, rs1, rs2, cycle)
        return CustomResult(rd_value=rd_value, complete_cycle=done)

    # -- block-resident fast path (repro.cores.blocks) ---------------------------

    def fast_custom_handlers(self):
        """Per-op ``(handler, terminal)`` pairs for predecoded blocks.

        Each handler is the op's one function from ``_OPS`` bound to
        this unit, with the signature ``(rs1_value, rs2_value, issue) ->
        (rd_value, complete_cycle)``; :meth:`exec_custom` runs the same
        function. ``terminal`` is 1 for ops whose effects feed the
        interrupt horizon: under the (L) context loader
        ``SET_CONTEXT_ID`` / ``GET_HW_SCHED`` restore MSTATUS/MEPC, so
        they run resident but end the block with the cached horizon
        invalidated (the restore mutates the *application* bank in
        place, which is exact in both the banked-ISR and flat-RF cases).
        ``SWITCH_RF`` switches register banks mid-stream and stays a
        block terminator on the exact ``_step_custom`` path. Ops whose
        extension is absent from the config are excluded; executing one
        raises through the exact path, FSMs untouched. The block engine
        holds the bound handlers and drops them on release.
        """
        terminal = 1 if self.config.load else 0
        return {op: (partial(fn, self), terminal if op in _RESTORING else 0)
                for op, fn in self._ops.items()}

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

    def _set_next_task(self, task_id: int, cycle: int) -> tuple[int, int]:
        """Latch the next task; kick the restore FSM when (L) is enabled.

        Returns ``(task_id, cycle)``, the op's rd value and completion.
        """
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
        return task_id, cycle

    def _load_context(self, task_id: int) -> int:
        """Functional restore; returns the port cost in cycles."""
        slot = self.region.slot_addr(task_id)
        cost = self.core.rtosunit_frame_cost(slot, _FRAME_WORDS, False)
        self.stats.words_loaded += CONTEXT_WORDS
        self._apply_context_words(task_id)
        return cost

    def _apply_context_words(self, task_id: int) -> None:
        regs = self.core.app_bank
        slot = self.region.slot_addr(task_id)
        if self.observer is not None:
            # Verify before the words land in the RF: corruption of the
            # slot between save and restore is still observable here.
            self.observer.on_context_restored(task_id, slot)
        words = self.memory.read_words_raw(slot, CONTEXT_WORDS)
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
        cost = self.core.rtosunit_frame_cost(
            self.region.slot_addr(predicted), _FRAME_WORDS, False)
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
