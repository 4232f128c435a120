"""CV32E40P: microcontroller-class 4-stage in-order pipeline (§5.1).

The simplest of the evaluated cores: strictly in-order, no caches, no
register renaming. The LSU talks directly to the single-cycle on-chip
SRAM, so RTOSUnit arbitration needs only simple multiplexers on the
outgoing memory signals. Speculative fetches are resolved early and never
executed, so no speculation handling is required and ``SWITCH_RF`` needs
no extra hazard logic.
"""

from __future__ import annotations

from repro.cores.base import BaseCore, CoreParams


class CV32E40P(BaseCore):
    """4-stage in-order scalar, no cache, direct SRAM."""

    PARAMS = CoreParams(
        name="cv32e40p",
        trap_entry_cycles=4,
        mret_cycles=4,
        branch_taken_penalty=2,   # branches resolve in EX, 2 bubble cycles
        jump_penalty=1,
        load_result_latency=2,    # rd usable 2 cycles after issue: 1 load-use bubble
        mul_latency=1,
        div_cycles=34,            # iterative divider
        csr_cycles=1,
    )
