"""Spin-loop fast-forward: dispatch skips accumulator self-loops.

A block of ``addi r, r, imm`` accumulators closed by a ``j`` back to
its own entry repeats the same timing, shifted in time, once its timing
state has settled. Dispatch then skips every whole iteration that ends
before the next interrupt or the cycle budget in closed form, and the
executor runs the last, partial one (``BlockEngine._spin_forward``).
Each program here runs with block dispatch on and off on all three
cores; the registers, cycle count, full core stats and timing-model
state must agree, right after every skip the blocks-on core must hold
the exact path's state at the same retired-instruction count, and the
shapes the fast-forward covers must actually skip iterations while the
others must not.

A machine timer stops the loops: the handler counts interrupts in x29,
re-arms ``mtimecmp`` one period after ``mtime`` and halts on the last
one.
"""

import pytest

from repro.cores import CORE_CLASSES
from repro.cores.blocks import _spin_shape
from repro.cores.system import System
from repro.errors import SimulationError
from repro.isa.assembler import assemble
from repro.isa.csr import MIP_MTIP, MSTATUS_MIE
from repro.mem.memory import MTIME_ADDR, MTIMECMP_ADDR
from repro.rtosunit.config import parse_config
from tests.cores.helpers import HALT_TAIL, timing_state

CORES = sorted(CORE_CLASSES)
#: Timer period; the first interrupt fires at this cycle.
PERIOD = 2000
#: The handler halts on this interrupt.
INTERRUPTS = 3

_PROLOGUE = f"""
    la   x28, handler
    csrw mtvec, x28
    li   x28, {MIP_MTIP:#x}
    csrs mie, x28
    csrsi mstatus, {MSTATUS_MIE:#x}
"""
_HANDLER = f"""
handler:
{{patch}}
    addi x29, x29, 1
    li   x30, {INTERRUPTS}
    beq  x29, x30, halt
    li   x30, {MTIME_ADDR:#x}
    lw   x28, 0(x30)
    li   x30, {PERIOD}
    add  x28, x28, x30
    li   x30, {MTIMECMP_ADDR:#x}
    sw   x28, 0(x30)
    mret
halt:
{HALT_TAIL}
data:
    .word 7
"""

#: Loops dispatch fast-forwards.
SPINS = {
    "jump_one_accumulator": """
    li   s0, 5
spin:
    addi s0, s0, 1
    j    spin
""",
    "negative_imm_wraps_past_zero": """
    li   s0, 3
spin:
    addi s0, s0, -7
    j    spin
""",
    "three_accumulators": """
    li   s1, 1000
spin:
    addi s0, s0, 3
    addi s1, s1, -11
    addi a0, a0, 2047
    j    spin
""",
}

#: Loops entered while a load is still in flight (a D$ miss on CVA6 and
#: NaxRiscv): into the accumulator, so only the pending operand tells
#: the stalled first trip from the steady ones, or into a register the
#: loop never reads, whose completion holds NaxRiscv's commit front for
#: several trips.
IN_FLIGHT = {
    "accumulator": """
    la   a1, data
    lw   s0, 0(a1)
    j    spin
spin:
    addi s0, s0, 1
    j    spin
""",
    "unread_register": """
    la   a1, data
    lw   t0, 0(a1)
    j    spin
spin:
    addi s0, s0, 1
    j    spin
""",
}

#: Loops outside the fast-forward's shape: they chain as before.
NOT_SPINS = {
    "counted_bnez": """
    li   s1, 500
spin:
    addi s0, s0, 1
    addi s1, s1, -1
    bnez s1, spin
    j    halt
""",
    "load_in_body": """
    la   a0, data
spin:
    lw   t0, 0(a0)
    addi s0, s0, 1
    j    spin
""",
    "accumulator_read_by_another_record": """
spin:
    addi s0, s0, 1
    add  t0, s0, a0
    j    spin
""",
    "jalr_back_edge": """
    la   t1, spin
spin:
    addi s0, s0, 1
    jr   t1
""",
    "jal_link_back_edge": """
spin:
    addi s0, s0, 1
    jal  ra, spin
""",
    "register_with_two_writers": """
spin:
    addi s0, s0, 1
    addi s0, s0, 2
    j    spin
""",
    # ``li t1, 42`` is ``addi t1, x0, 42``: a write that is no
    # accumulator. No workload spins with one yet.
    "invariant_write": """
spin:
    li   t1, 42
    addi s0, s0, 1
    j    spin
""",
    # No workload spins on a conditional back-edge yet.
    "conditional_back_edge": """
    li   a0, 1
    li   a1, 2
spin:
    addi s0, s0, 1
    bne  a0, a1, spin
""",
}


def _program(body, patch=""):
    return assemble(_PROLOGUE + body + _HANDLER.format(patch=patch),
                    origin=0)


def _state(cpu):
    return (cpu.cycle, vars(cpu.stats).copy(),
            [list(bank) for bank in cpu.banks], cpu.pc, timing_state(cpu))


def _run(program, core, prepare, max_cycles, wanted=None):
    """Run *program* after ``prepare(system)``; return the system, its
    final state (with the structured error's fields if the cycle budget
    stopped it) and core states by retired-instruction count. Without
    *wanted*, blocks are on and the states are taken right after each
    skip; with it, the exact path takes them before the step at each
    wanted count."""
    system = System(CORE_CLASSES[core], parse_config("vanilla"),
                    tick_period=PERIOD)
    cpu = system.core
    states = {}
    if wanted is None:
        engine = cpu.block_engine
        forward = engine._spin_forward

        def watched(block, bail, probe):
            skipped = engine.spin_skipped
            probe = forward(block, bail, probe)
            if engine.spin_skipped != skipped:
                states[cpu.stats.instret] = _state(cpu)
            return probe

        engine._spin_forward = watched
    else:
        cpu.block_engine = None

        def hook(cpu):
            # The first visit is the boundary: a step that takes an
            # interrupt retires nothing and comes back with the same count.
            count = cpu.stats.instret
            if count in wanted and count not in states:
                states[count] = _state(cpu)

        cpu.step_hook = hook
    system.load(program)
    prepare(system)
    error = None
    try:
        system.run(max_cycles=max_cycles)
    except SimulationError as exc:
        error = (exc.kind, exc.pc, exc.cycle, exc.mcause)
    return system, (error,) + _state(cpu), states


def _compare(program, core, prepare=lambda system: None,
             max_cycles=200_000):
    """Run *program* with blocks on and off, *prepare* applied to both.

    The final states must agree, and right after each skip the
    blocks-on core must hold the exact path's state at the same
    retired-instruction count. Returns the blocks-on engine and final
    state.
    """
    system, on, landed = _run(program, core, prepare, max_cycles)
    _, off, exact = _run(program, core, prepare, max_cycles, landed)
    assert on == off
    assert landed == exact
    return system.core.block_engine, on


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("name", sorted(SPINS))
def test_spin_loops_skip_and_match_the_exact_path(core, name):
    engine, _ = _compare(_program(SPINS[name]), core)
    assert engine.spin_skipped > 0


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("name", sorted(IN_FLIGHT))
def test_result_in_flight_holds_the_skip_back(core, name):
    # The probe must not take a trip the load still holds back for the
    # steady state. The in-order cores settle once the load has landed.
    engine, _ = _compare(_program(IN_FLIGHT[name]), core)
    if core != "naxriscv":
        assert engine.spin_skipped > 0


@pytest.mark.parametrize("core", CORES)
def test_cycle_budget_stops_a_skipped_loop_on_the_same_record(core):
    # Interrupts stay off: only the budget ends the loop, and blocks on
    # must raise the exact path's error, fields and all.
    program = assemble("""
    li   s0, 9
spin:
    addi s0, s0, 5
    j    spin
""", origin=0)
    engine, on = _compare(program, core, max_cycles=20_000)
    assert on[0][0] == "cycle-budget"
    assert engine.spin_skipped > 0


@pytest.mark.parametrize("core", CORES)
def test_isr_store_into_the_loop_rebuilds_it(core):
    # Every handler run rewrites the loop's first word (``addi s0, s0,
    # 1`` becomes ``addi s0, s0, 2``), which drops the cached block.
    word = assemble("    addi s0, s0, 2", origin=0).words[0]
    patch = f"""
    la   x28, spin
    li   x30, {word:#x}
    sw   x30, 0(x28)
"""
    skipped_at_drop = []

    def watch_drops(system):
        engine = system.core.block_engine
        if engine is None:
            return
        invalidate = engine.invalidate_word

        def watched(word):
            skipped_at_drop.append(engine.spin_skipped)
            invalidate(word)

        engine.invalidate_word = watched

    engine, _ = _compare(_program(SPINS["jump_one_accumulator"], patch),
                         core, watch_drops)
    assert engine.invalidations > 0
    # The rebuilt block was fast-forwarded too.
    assert skipped_at_drop[0] < engine.spin_skipped


@pytest.mark.parametrize("core", CORES)
def test_skipped_iterations_count_as_block_hits(core):
    # The engine's telemetry reads as if the executors had run every
    # skipped iteration.
    program = _program(SPINS["jump_one_accumulator"])
    counters = []
    for forward in (True, False):
        system = System(CORE_CLASSES[core], parse_config("vanilla"),
                        tick_period=PERIOD)
        engine = system.core.block_engine
        if not forward:
            engine._spin_forward = lambda block, bail, probe: None
        system.load(program)
        system.run(max_cycles=200_000)
        counters.append(engine.counters())
    skipped, stepped = counters
    assert skipped.pop("spin_skipped") > 0
    assert stepped.pop("spin_skipped") == 0
    assert skipped == stepped


@pytest.mark.parametrize("core", CORES)
@pytest.mark.parametrize("name", sorted(NOT_SPINS))
def test_other_loops_are_not_skipped(core, name):
    engine, _ = _compare(_program(NOT_SPINS[name]), core)
    assert engine.spin_skipped == 0
    assert engine.fast_instret > 0


def test_unsettled_loop_is_demoted_and_chains():
    # Three records on NaxRiscv's 2-wide front end: the free slots
    # alternate between iteration boundaries, so the timing state does
    # not repeat after one iteration within the probes, and dispatch
    # hands the loop back to the executors to chain.
    program = _program("""
spin:
    addi s0, s0, 1
    addi s1, s1, 1
    j    spin
""")
    engine, _ = _compare(program, "naxriscv")
    assert engine.chained > 0
    block = engine.cache[program.symbol("spin")]
    assert block.spin is None
    assert _spin_shape(block.entry, block.records) is not None
