"""An RTOSUnit op whose extension the config lacks fails alike on both paths.

Such an op never becomes a block-resident record: its block ends before
it, and ``_step_custom`` hands it to ``RTOSUnit.exec_custom``, which
raises before any op function runs. With blocks on and off the run must
stop with the same error at the same pc and cycle, and the unit's
scheduler, semaphores and pending transfers must be as the ops before
it left them.
"""

import copy

import pytest

from repro.cores import CORE_CLASSES, CORE_NAMES
from repro.cores.system import System
from repro.errors import SimulationError
from repro.isa.assembler import assemble
from repro.rtosunit.config import parse_config
from tests.cores.helpers import HALT_TAIL, timing_state

#: Runs before the op: ALU work, then a resident op of an extension the
#: config has, so the unit holds state the failing op must not touch.
PREFIX = """
    li   a0, 1
    li   a1, 3
    addi a2, a0, 4
    add  a3, a2, a1
    {setup}
"""
#: (op, config lacking its extension, resident op run first).
CASES = [
    ("add_ready a0, a1", "S", "set_context_id a0"),
    ("add_delay a0, a1", "SL", "set_context_id a0"),
    ("rm_task a0", "SD", "set_context_id a0"),
    ("get_hw_sched a4", "SL", "set_context_id a0"),
    ("sem_take a4, a0", "SLT", "add_ready a0, a1"),
    ("sem_give a4, a0", "SLT", "add_ready a0, a1"),
    ("sem_take a4, a0", "S", "set_context_id a0"),
]


def _unit_state(unit):
    return (copy.deepcopy(unit.scheduler), copy.deepcopy(unit.hwsync),
            copy.deepcopy(unit._pending), vars(unit.stats).copy(),
            unit.current_task_id, unit.next_task_id)


def _system(core, config, source):
    system = System(CORE_CLASSES[core], parse_config(config),
                    tick_period=1 << 30)
    program = assemble(source, origin=0)
    system.load(program)
    return system, program


def _run_to_error(core, config, op, setup, blocks):
    source = PREFIX.format(setup=setup) + f"    {op}\n    addi a5, a5, 1\n"
    system, program = _system(core, config, source)
    if not blocks:
        system.core.block_engine = None
    with pytest.raises(SimulationError) as raised:
        system.run(max_cycles=10_000)
    cpu = system.core
    fast = cpu.block_engine.fast_instret if blocks else 0
    return (str(raised.value), cpu.pc, cpu.cycle, vars(cpu.stats).copy(),
            timing_state(cpu), _unit_state(system.unit)), fast, program


def _state_before_op(core, config, setup):
    """The unit as the prefix alone leaves it, on the exact path."""
    system, _ = _system(core, config, PREFIX.format(setup=setup) + HALT_TAIL)
    system.core.block_engine = None
    system.run(max_cycles=10_000)
    return _unit_state(system.unit)


@pytest.mark.parametrize("core", CORE_NAMES)
@pytest.mark.parametrize("op, config, setup", CASES)
def test_absent_extension_op_raises_alike_with_blocks_on_and_off(
        core, op, config, setup):
    on, fast, program = _run_to_error(core, config, op, setup, blocks=True)
    off, _, _ = _run_to_error(core, config, op, setup, blocks=False)
    assert on == off
    message, pc, *_ = on
    assert message.startswith(op.split()[0].upper() + " needs ")
    assert program.words[pc] == assemble(op, origin=0).words[0]
    # The prefix, its resident custom op included, ran in a block.
    assert fast >= 5
    assert on[-1] == _state_before_op(core, config, setup)
