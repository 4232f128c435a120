"""Suite-level differential: block dispatch vs the exact path.

Every RTOSBench workload runs on every core model, with and without
block dispatch, on the software baseline and two hardware-assisted
configurations: SLT, and SDLOT, whose dirty tracking reads the
register writes that chained blocks batch up. The two modes must agree on everything observable:
cycle count, retired instructions, the full core stats, every context
switch record, the final register state and the timing models' own
state (issue pipeline, D$, predictor, NaxRiscv's window, port
timeline). This is the acceptance test for the exactness contract in
``repro.cores.blocks``, block chaining included.

The two long-run workloads ride along for their loops:
``interrupt_response``'s background task spins in a two-instruction
self-loop that dispatch fast-forwards to the next interrupt, which
must still stop the loop on the same record, and ``mixed_stress``
cycles seven tasks through every kernel service.
"""

import dataclasses

import pytest

from repro.cores import CORE_NAMES
from repro.kernel.builder import KernelBuilder
from repro.rtosunit.config import parse_config
from repro.workloads.suite import (RTOSBENCH_WORKLOADS, interrupt_response,
                                   mixed_stress)
from tests.cores.helpers import timing_state

ITERATIONS = 3
CONFIGS = ("vanilla", "SLT", "SDLOT")
#: The benchmark's long-run workloads, added for their loops.
LONG_RUN_WORKLOADS = (interrupt_response, mixed_stress)


def _observable(core, system):
    return {
        "cycle": core.cycle,
        "instret": core.stats.instret,
        "stats": vars(core.stats).copy(),
        "regs": [list(bank) for bank in core.banks],
        "pc": core.pc,
        "switches": [dataclasses.asdict(s) for s in system.switches],
        "timing": timing_state(core),
    }


def _record_exits(engine):
    """Wrap *engine*'s executor; the returned list collects, per call,
    the PC it returned at and whether it ran up to its bail cycle."""
    exits = []
    execute = engine._exec_block

    def recorded(block, bail, limit):
        try:
            return execute(block, bail, limit)
        finally:
            exits.append((engine.core.pc, engine.core.cycle >= bail))

    engine._exec_block = recorded
    return exits


def _run(core_name, config_name, factory, blocks):
    config = parse_config(config_name)
    workload = factory(iterations=ITERATIONS)
    builder = KernelBuilder(config=config, objects=workload.objects,
                            tick_period=workload.tick_period)
    system = builder.build(core_name,
                          external_events=workload.external_events)
    cpu = system.core
    exits = None
    if blocks:
        exits = _record_exits(cpu.block_engine)
    else:
        cpu.block_engine = None
    system.run(workload.max_cycles)
    return (_observable(cpu, system), cpu.perf_counters(), exits,
            builder.program())


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("core_name", sorted(CORE_NAMES))
def test_suite_identical_with_and_without_blocks(core_name, config_name):
    for factory in RTOSBENCH_WORKLOADS + LONG_RUN_WORKLOADS:
        on, on_counters, exits, program = _run(core_name, config_name,
                                               factory, blocks=True)
        off, off_counters, _, _ = _run(core_name, config_name, factory,
                                       blocks=False)
        name = factory(iterations=ITERATIONS).name
        assert on == off, (
            f"{name} on {core_name}/{config_name}: block dispatch changed "
            f"observable state")
        # The comparison must actually compare something: the fast path
        # retired instructions, the exact path retired none that way.
        assert on_counters["fast_instret"] > 0, (
            f"{name} on {core_name}/{config_name}: blocks never dispatched")
        assert off_counters["fast_instret"] == 0
        if factory is interrupt_response:
            # Dispatch skipped whole iterations of the background spin
            # loop, and an interrupt still stopped an executor call
            # inside it: the skip left the last iteration to the
            # executor, which bailed on the exact path's record.
            assert on_counters["spin_skipped"] > 0, (
                f"{name} on {core_name}/{config_name}: spin loop never "
                f"fast-forwarded")
            spin = program.symbol("bg_loop")
            assert any(pc in (spin, spin + 4) and bailed
                       for pc, bailed in exits), (
                f"{name} on {core_name}/{config_name}: no interrupt "
                f"stopped the spin loop inside an executor call")
