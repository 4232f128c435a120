"""Suite-level differential: block dispatch vs the exact path.

Every RTOSBench workload runs on every core model, with and without
block dispatch, on both the software baseline and a hardware-assisted
configuration. The two modes must agree on everything observable:
cycle count, retired instructions, the full core stats, every context
switch record, the final register state and the timing models' own
state (issue pipeline, D$, predictor, NaxRiscv's window, port
timeline). This is the acceptance test for the exactness contract in
``repro.cores.blocks``. It runs twice: with superblocks, and with
plain blocks only (no block ever gets hot enough to be promoted).

The two long-run workloads ride along for their loops:
``interrupt_response``'s background task spins in a two-instruction
self-loop while external interrupts land inside its unrolled
superblock, and ``mixed_stress`` cycles seven tasks through every
kernel service.
"""

import dataclasses

import pytest

from repro.cores import CORE_NAMES
from repro.cores import blocks as blocks_module
from repro.kernel.builder import KernelBuilder
from repro.rtosunit.config import parse_config
from repro.workloads.suite import (RTOSBENCH_WORKLOADS, interrupt_response,
                                   mixed_stress)
from tests.cores.helpers import loop_superblocks, timing_state

ITERATIONS = 3
CONFIGS = ("vanilla", "SLT")
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


def _run(core_name, config_name, factory, blocks):
    config = parse_config(config_name)
    workload = factory(iterations=ITERATIONS)
    builder = KernelBuilder(config=config, objects=workload.objects,
                            tick_period=workload.tick_period)
    system = builder.build(core_name,
                          external_events=workload.external_events)
    cpu = system.core
    if not blocks:
        cpu.block_engine = None
    system.run(workload.max_cycles)
    return _observable(cpu, system), cpu.perf_counters(), cpu.block_engine


@pytest.mark.parametrize("superblocks", [True, False],
                         ids=["superblocks", "plain-blocks"])
@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("core_name", sorted(CORE_NAMES))
def test_suite_identical_with_and_without_blocks(core_name, config_name,
                                                 superblocks, monkeypatch):
    if not superblocks:
        # No block ever gets hot enough to promote. The per-class
        # dispatch clones share the module's globals, so the patch
        # reaches them.
        monkeypatch.setattr(blocks_module, "SUPERBLOCK_HOT", 1 << 62)
    for factory in RTOSBENCH_WORKLOADS + LONG_RUN_WORKLOADS:
        on, on_counters, engine = _run(core_name, config_name, factory,
                                       blocks=True)
        off, off_counters, _ = _run(core_name, config_name, factory,
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
        if not superblocks:
            assert engine.superblocks == 0, (
                f"{name} on {core_name}/{config_name}: a block was "
                f"promoted with promotion disabled")
        elif factory is interrupt_response:
            # The background spin loop ran as an unrolled superblock.
            assert loop_superblocks(engine), (
                f"{name} on {core_name}/{config_name}: spin loop never "
                f"promoted")
