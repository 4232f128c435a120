"""NaxRiscv: superscalar out-of-order core with register renaming (§5.3).

Timing is modelled as a dataflow window: the front end delivers up to two
instructions per cycle, each instruction issues when its operands are
ready, and commit is in order. Wrong-path execution appears as timing
penalties (front-end refill after a mispredict) plus the custom-
instruction queue semantics: custom instructions execute only at commit
(non-speculatively, in program order), which the model charges as a
commit-stage delay.

The RTOSUnit shares the write-back data cache through the extended LSU
(the ctxQueue of Fig. 8), so context words cost one port cycle on a hit
and a line refill on a miss — no cache invalidation needed, and contexts
stay cacheable. The CV32RT comparison point instead bypasses the cache
with a dedicated port and must invalidate the snapshot lines (§6).

``_time`` (with ``_mem_latency`` and ``_flush_front``) is the reference
model: the exact path calls it per instruction, and the block
executor's ``window`` timing arms (:mod:`repro.cores.blocks`) run the
same window inline, record by record, with the window state held in
locals. The on/off differential tests compare the two, window state
included.
"""

from __future__ import annotations

from repro.cores.base import BaseCore, CoreParams
from repro.cores.predictor import BimodalPredictor
from repro.isa.instructions import Instr
from repro.mem.cache import WriteBackCache
from repro.mem.memory import is_mmio

MASK32 = 0xFFFFFFFF


class NaxRiscv(BaseCore):
    """Dual-issue out-of-order core, write-back D$, LSU-level arbitration."""

    PARAMS = CoreParams(
        name="naxriscv",
        issue_width=2,
        trap_entry_cycles=14,   # deep OoO window flush + refill
        mret_cycles=14,
        branch_taken_penalty=0,
        branch_mispredict_penalty=9,
        has_branch_predictor=True,
        jump_penalty=0,             # BTB-predicted
        load_result_latency=3,      # D$ hit latency
        mul_latency=3,
        div_cycles=18,
        csr_cycles=4,               # CSR ops serialise the OoO window
        custom_commit_delay=1,      # ctxQueue: committed without stalling
        cache_hit_latency=3,
        cache_miss_penalty=12,
        cache_line_words=8,
        switch_rf_restart_cycles=4,  # reschedule event, like a mispredict
    )

    def __init__(self, *args, **kwargs):
        # Built before ``BaseCore.__init__``, whose block engine hoists
        # both for its executor's ``window`` timing arms.
        self.dcache = WriteBackCache(size_bytes=16 * 1024, ways=4,
                                     line_bytes=32)
        self.predictor = BimodalPredictor(entries=512)
        super().__init__(*args, **kwargs)
        self._front = 1          # cycle the front end can deliver into
        self._front_slots = self.params.issue_width
        self._last_commit = 0
        self._lsu_next = 0       # single LSU port: one memory op per cycle

    def capture_state(self) -> dict:
        state = super().capture_state()
        state["dcache"] = self.dcache.capture_state()
        state["predictor"] = self.predictor.capture_state()
        state["ooo"] = (self._front, self._front_slots,
                        self._last_commit, self._lsu_next)
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.dcache.restore_state(state["dcache"])
        self.predictor.restore_state(state["predictor"])
        (self._front, self._front_slots,
         self._last_commit, self._lsu_next) = state["ooo"]

    # -- OoO timing ------------------------------------------------------------

    def _time(self, instr: Instr, info: tuple[int | None, bool, bool]) -> None:
        mem_addr, is_store, taken = info
        params = self.params
        # Take a front-end slot: ``issue_width`` per cycle.
        slots = self._front_slots
        if slots == 0:
            self._front += 1
            slots = params.issue_width
        self._front_slots = slots - 1
        front = self._front
        avail = self.reg_avail
        issue = max(front, avail[instr.rs1], avail[instr.rs2])
        self.stats.stall_cycles += issue - front
        latency = 1
        serialize_after = None
        mnemonic = instr.mnemonic
        if mem_addr is not None:
            # One LSU: memory operations serialise through a single
            # cache port even when the window could issue them together;
            # a miss blocks the port for part of the line refill.
            issue = max(issue, self._lsu_next)
            latency, occupancy = self._mem_latency(mem_addr, is_store, issue)
            self._lsu_next = issue + occupancy
        elif instr.fmt == "B":
            correct = self.predictor.predict_and_update(instr.addr, taken)
            if not correct:
                self.stats.mispredicts += 1
                self._flush_front(issue + 1 + params.branch_mispredict_penalty)
        elif mnemonic == "jalr":
            # Indirect targets resolve at issue; assume BTB hit half
            # the time is too fine-grained — charge a small redirect.
            self._flush_front(issue + 2)
        elif mnemonic == "jal":
            pass  # BTB-predicted, no redirect
        elif mnemonic in ("mul", "mulh", "mulhsu", "mulhu"):
            latency = params.mul_latency
        elif mnemonic in ("div", "divu", "rem", "remu"):
            latency = params.div_cycles
        elif instr.fmt in ("CSR", "CSRI"):
            serialize_after = issue + params.csr_cycles
            latency = params.csr_cycles
        complete = issue + latency
        if instr.rd:
            avail[instr.rd] = complete
        if complete > self._last_commit:
            self._last_commit = complete
        self.cycle = self._last_commit
        self.next_issue = max(self._front, issue + 1)
        if serialize_after is not None:
            self._flush_front(serialize_after)

    def _flush_front(self, cycle: int) -> None:
        if cycle > self._front:
            self._front = cycle
            self._front_slots = self.params.issue_width

    def _mem_latency(self, addr: int, is_store: bool,
                     issue: int) -> tuple[int, int]:
        """Return (result latency, LSU port occupancy) for one access."""
        params = self.params
        if is_mmio(addr):
            self.timeline.mark_core_busy(issue)
            return params.load_result_latency + 4, 2
        hit = self.dcache.lookup(addr, is_store)
        if hit:
            self.timeline.mark_core_busy(issue)
            latency = 1 if is_store else params.load_result_latency
            return latency, 1
        for beat in range(params.cache_line_words):
            self.timeline.mark_core_busy(issue + beat)
        refill_occupancy = params.cache_line_words // 2
        if is_store:
            return 1 + params.cache_miss_penalty // 2, refill_occupancy
        return (params.load_result_latency + params.cache_miss_penalty,
                refill_occupancy)

    # -- pipeline synchronisation points -----------------------------------------

    def _do_wfi(self) -> None:
        super()._do_wfi()
        # The base implementation advances ``cycle``/``next_issue`` to the
        # wake event, but ``_time`` derives ``cycle`` from the commit front.
        # Without projecting the skip into the front, the very next
        # ``_time`` call would rewind the clock and ``wfi`` would busy-spin
        # one cycle at a time instead of sleeping until the interrupt.
        self._flush_front(self.cycle)

    def _reset_avail(self, cycle: int) -> None:
        super()._reset_avail(cycle)
        self._flush_front(cycle + 1)
        self._last_commit = max(self._last_commit, cycle)

    # -- RTOSUnit integration ------------------------------------------------------

    def rtosunit_frame_cost(self, slot: int, words, is_write: bool) -> int:
        """Context words go through the shared write-back D$ (ctxQueue):
        one probe per word, in word order; a hit costs one port cycle and
        a miss a line refill on top."""
        lookup = self.dcache.lookup
        miss = 1 + self.params.cache_line_words
        return sum(1 if lookup(slot + 4 * index, is_write) else miss
                   for index in words)

    def cv32rt_invalidate(self, base: int, nbytes: int) -> None:
        """CV32RT's dedicated port bypasses the D$; invalidate its lines."""
        line = self.dcache.line_bytes
        addr = base & ~(line - 1)
        while addr < base + nbytes:
            self.dcache.invalidate_line(addr)
            addr += line
