"""Helpers to run short assembly fragments on a bare core."""

from __future__ import annotations

from repro.cores import CORE_CLASSES
from repro.cores.system import System
from repro.isa.assembler import assemble
from repro.rtosunit.config import parse_config

HALT_TAIL = """
    li   t6, 0xFFFF0000
    sw   zero, 0(t6)
"""


def run_fragment(source: str, core: str = "cv32e40p",
                 config: str = "vanilla", max_cycles: int = 200_000,
                 halt: bool = True, external_events=None,
                 tick_period: int = 1 << 30):
    """Assemble *source*, run it, return the System for inspection.

    The fragment runs with interrupts off unless it enables them itself;
    a halt store is appended unless ``halt=False``.
    """
    system = System(CORE_CLASSES[core], parse_config(config),
                    tick_period=tick_period,
                    external_events=external_events)
    program = assemble(source + (HALT_TAIL if halt else ""), origin=0)
    system.load(program)
    system.run(max_cycles=max_cycles)
    return system


def run_regs(source: str, **kwargs):
    """Run a fragment and return the register file."""
    return run_fragment(source, **kwargs).core.regs


def timing_state(core):
    """The timing-model state of *core*, read field by field.

    Covers what block dispatch keeps in executor locals or writes back
    only when a block exits: the issue pipeline, the D$ (per-set LRU
    order and counters), the branch predictor, NaxRiscv's dataflow
    window and the memory-port timeline. A missed write-back shows up
    here even when the cycle count happens to agree.
    """
    timeline = core.timeline
    state = {
        "next_issue": core.next_issue,
        "reg_avail": list(core.reg_avail),
        "timeline": (timeline.core_cycles, timeline._last_marked,
                     timeline._scan),
    }
    dcache = getattr(core, "dcache", None)
    if dcache is not None:
        state["dcache"] = ({index: list(ways)
                            for index, ways in dcache._lines.items()},
                           dcache.hits, dcache.misses)
    predictor = getattr(core, "predictor", None)
    if predictor is not None:
        state["predictor"] = (dict(predictor.counters),
                              predictor.predictions,
                              predictor.mispredictions)
    if hasattr(core, "_front"):
        state["window"] = (core._front, core._front_slots,
                           core._last_commit, core._lsu_next)
    return state
