"""CVA6: application-class 6-stage pipeline with a write-through D$ (§5.2).

CVA6 issues in order but retires out of order through a scoreboard; the
register file holds committed values only, so the RTOSUnit reads
architectural state directly. The D$ is write-through; the paper
arbitrates RTOSUnit memory at the *bus level* to reduce jitter, meaning
RTOSUnit words always cost a bus access, while the core's cache *hits*
leave the bus free.

``_mem_time`` and ``_branch_time`` are the reference model: the exact
path calls them per instruction, and the block executor's ``cached``
timing arms (:mod:`repro.cores.blocks`) run the same D$, uncached-range
and predictor logic inline. The on/off differential tests compare the
two, D$ and predictor state included.
"""

from __future__ import annotations

from repro.cores.base import BaseCore, CoreParams
from repro.cores.predictor import BimodalPredictor
from repro.isa.instructions import Instr
from repro.mem.cache import WriteThroughCache
from repro.mem.memory import is_mmio


class CVA6(BaseCore):
    """6-stage in-order issue / OoO write-back, WT cache, bus arbitration."""

    PARAMS = CoreParams(
        name="cva6",
        trap_entry_cycles=5,
        mret_cycles=5,
        branch_taken_penalty=0,      # predictor supplies the target
        branch_mispredict_penalty=6,
        has_branch_predictor=True,
        jump_penalty=1,
        load_result_latency=2,       # D$ hit latency
        mul_latency=2,
        div_cycles=21,
        csr_cycles=2,                # CSR ops serialise the scoreboard
        cache_hit_latency=2,
        cache_miss_penalty=10,
        cache_line_words=8,
        switch_rf_restart_cycles=3,
    )

    def __init__(self, *args, **kwargs):
        # Built before ``BaseCore.__init__``, whose block engine hoists
        # both for its executor's ``cached`` timing arms.
        self.dcache = WriteThroughCache(size_bytes=8 * 1024, ways=4,
                                        line_bytes=32)
        self.predictor = BimodalPredictor(entries=128)
        super().__init__(*args, **kwargs)
        if self.unit is not None:
            # The RTOSUnit writes contexts at the bus level, below the
            # write-through D$, so the core must not cache them.
            region = self.unit.region
            self.uncached_ranges.append((region.base, region.end))

    def capture_state(self) -> dict:
        state = super().capture_state()
        state["dcache"] = self.dcache.capture_state()
        state["predictor"] = self.predictor.capture_state()
        return state

    def restore_state(self, state: dict) -> None:
        super().restore_state(state)
        self.dcache.restore_state(state["dcache"])
        self.predictor.restore_state(state["predictor"])

    def _mem_time(self, addr: int, is_store: bool, issue: int) -> tuple[int, int]:
        params = self.params
        if is_mmio(addr) or self._uncached(addr):
            # Uncached access: always a bus transaction. The context
            # region is uncached on CVA6 because the RTOSUnit writes it
            # at the bus level, below the write-through cache.
            self.timeline.mark_core_busy(issue)
            return (0, 0) if is_store else (0, params.load_result_latency + 1)
        hit = self.dcache.lookup(addr, is_store)
        if is_store:
            # Write-through: every store produces bus traffic.
            self.timeline.mark_core_busy(issue)
            return 0, 0
        if hit:
            # Cache services the load; the bus stays free for the RTOSUnit.
            return 0, params.load_result_latency
        # Refill occupies the bus for a full line.
        for beat in range(params.cache_line_words):
            self.timeline.mark_core_busy(issue + beat)
        return 0, params.load_result_latency + params.cache_miss_penalty

    def _uncached(self, addr: int) -> bool:
        return any(lo <= addr < hi for lo, hi in self.uncached_ranges)

    def _branch_time(self, instr: Instr, taken: bool) -> int:
        if self.predictor.predict_and_update(instr.addr, taken):
            return 0
        self.stats.mispredicts += 1
        return self.params.branch_mispredict_penalty
