"""Randomised loop oracle: chained loop blocks vs the exact path.

Hypothesis generates counted loops of one to three blocks per
iteration. Bodies mix RV32IM ALU ops (``mul``/``div``/``rem``
included) with ``lw``/``sw`` into a scratch buffer and all six Zicsr
forms on ``mscratch`` (the read-only ``rs1=x0`` and ``zimm=0`` forms
included), which NaxRiscv's window serialises on. Blocks are split
by jumps and by data-dependent forward branches, some of which skip an
op, and the loop closes either with ``bnez`` or with ``beqz`` + ``j``.
An outer loop reruns it one to three times. A machine timer fires
every drawn period, so interrupts land inside running chains: the
handler, on registers the body does not touch, counts them and re-arms
``mtimecmp`` through MMIO. Some programs end with a spin phase: a
self-loop of ``addi r, r, imm`` accumulators closed by ``j`` that the
handler leaves for the halt tail one to three interrupts later, and
which dispatch fast-forwards between them. Each program runs with block
dispatch on and off on all three cores; the cycle count, the full core
stats, the registers, the buffer and the timing models' state must
agree.
"""

from hypothesis import given, settings, strategies as st

from repro.cores import CORE_CLASSES
from repro.cores.system import System
from repro.isa.assembler import assemble
from repro.isa.csr import MIP_MTIP, MSTATUS_MIE
from repro.mem.memory import MTIME_ADDR, MTIMECMP_ADDR
from repro.rtosunit.config import parse_config
from tests.cores.helpers import HALT_TAIL, timing_state

MASK = 0xFFFFFFFF
BUF_WORDS = 16

_ALU_R = ("add", "sub", "and", "or", "xor", "sll", "srl", "sra", "slt",
          "sltu", "mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem",
          "remu")
_ALU_I = ("addi", "andi", "ori", "xori", "slti", "sltiu")
_SHIFT_I = ("slli", "srli", "srai")
_BRANCHES = ("beq", "bne", "blt", "bge", "bltu", "bgeu")
_CSR_R = ("csrrw", "csrrs", "csrrc")
_CSR_I = ("csrrwi", "csrrsi", "csrrci")

# Work registers: x5..x15. x24 holds the interrupt count that ends the
# spin phase (0, never reached, without one), x25 counts passes, x26
# counts trips, x27 holds the buffer base; the timer handler owns
# x28..x30 (x29 counts interrupts) and the halt tail uses x31.
_WORK = tuple(range(5, 16))

#: Timer handler: count the interrupt, halt once the count reaches
#: x24, else set ``mtimecmp`` one period past the current ``mtime``.
_HANDLER = f"""
handler:
    addi x29, x29, 1
    beq  x29, x24, done
    li   x30, {MTIME_ADDR:#x}
    lw   x28, 0(x30)
    li   x30, {{period}}
    add  x28, x28, x30
    li   x30, {MTIMECMP_ADDR:#x}
    sw   x28, 0(x30)
    mret
"""

_reg = st.sampled_from(_WORK)
_offset = st.integers(0, BUF_WORDS - 1).map(lambda word: 4 * word)
_op = st.one_of(
    st.builds("    {} x{}, x{}, x{}".format, st.sampled_from(_ALU_R),
              _reg, _reg, _reg),
    st.builds("    {} x{}, x{}, {}".format, st.sampled_from(_ALU_I),
              _reg, _reg, st.integers(-2048, 2047)),
    st.builds("    {} x{}, x{}, {}".format, st.sampled_from(_SHIFT_I),
              _reg, _reg, st.integers(0, 31)),
    st.builds("    lw   x{}, {}(x27)".format, _reg, _offset),
    st.builds("    sw   x{}, {}(x27)".format, _reg, _offset),
    # rs1 = x0 makes csrrs/csrrc read-only, zimm = 0 csrrsi/csrrci.
    st.builds("    {} x{}, mscratch, x{}".format, st.sampled_from(_CSR_R),
              _reg, st.sampled_from((0,) + _WORK)),
    st.builds("    {} x{}, mscratch, {}".format, st.sampled_from(_CSR_I),
              _reg, st.one_of(st.just(0), st.integers(0, 31))),
)
_body = st.lists(_op, min_size=1, max_size=8)
#: Spin phase: one to four accumulators on distinct work registers.
_spin_body = st.lists(_reg, min_size=1, max_size=4, unique=True).flatmap(
    lambda regs: st.tuples(*(
        st.builds(f"    addi x{reg}, x{reg}, {{}}".format,
                  st.integers(-2048, 2047))
        for reg in regs)))


@st.composite
def loop_programs(draw):
    """Return ``(source, trips, passes, period, waits)`` for one counted
    loop, followed by a spin phase that waits for ``waits`` interrupts
    (0: none).

    The timer first fires at cycle ``period`` (the CLINT's initial
    ``mtimecmp``), then every ``period`` cycles after the handler reads
    ``mtime``. The spin phase runs until the handler's count in x29
    reaches x24, set ``waits`` interrupts ahead as the phase starts.
    """
    seeds = draw(st.lists(st.integers(0, MASK), min_size=len(_WORK),
                          max_size=len(_WORK)))
    buf = draw(st.lists(st.integers(0, MASK), min_size=BUF_WORDS,
                        max_size=BUF_WORDS))
    trips = draw(st.integers(1, 40))
    passes = draw(st.integers(1, 3))
    # Longer than the handler, so the program always makes progress.
    period = draw(st.integers(100, 2000))
    lines = ["    j    start", "buf:"]
    lines += [f"    .word {word:#010x}" for word in buf]
    lines += ["start:", "    la   x27, buf"]
    lines += [f"    li   x{reg}, {value:#x}"
              for reg, value in zip(_WORK, seeds)]
    lines += ["    la   x28, handler", "    csrw mtvec, x28",
              f"    li   x28, {MIP_MTIP:#x}", "    csrs mie, x28",
              f"    csrsi mstatus, {MSTATUS_MIE:#x}"]
    lines += [f"    li   x25, {passes}", "outer:", f"    li   x26, {trips}",
              "loop:"]
    lines += draw(_body)
    for split in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(("jump", "branch", "skip")))
        if kind == "jump":
            lines.append(f"    j    split{split}")
        else:
            lines.append(f"    {draw(st.sampled_from(_BRANCHES))} "
                         f"x{draw(_reg)}, x{draw(_reg)}, split{split}")
            if kind == "skip":
                lines.append(draw(_op))
        lines.append(f"split{split}:")
        lines += draw(_body)
    lines.append("    addi x26, x26, -1")
    if draw(st.booleans()):
        lines.append("    bnez x26, loop")
    else:
        lines += ["    beqz x26, exit", "    j    loop", "exit:"]
    lines += ["    addi x25, x25, -1", "    bnez x25, outer"]
    waits = draw(st.integers(1, 3)) if draw(st.booleans()) else 0
    if waits:
        lines += [f"    addi x24, x29, {waits}", "spin:"]
        lines += draw(_spin_body)
        lines.append("    j    spin")
    source = ("\n".join(lines) + "\ndone:" + HALT_TAIL
              + _HANDLER.format(period=period))
    return source, trips, passes, period, waits


def _run(program, core, blocks, period):
    system = System(CORE_CLASSES[core], parse_config("vanilla"),
                    tick_period=period)
    cpu = system.core
    if not blocks:
        cpu.block_engine = None
    system.load(program)
    system.run(max_cycles=2_000_000)
    assert cpu.halted
    buf = program.symbol("buf")
    return system, (cpu.cycle, vars(cpu.stats).copy(), list(cpu.regs),
                    cpu.pc, bytes(system.memory.data[buf:buf + 4 * BUF_WORDS]),
                    timing_state(cpu))


@settings(max_examples=150, deadline=None)
@given(case=loop_programs())
def test_loop_programs_identical_with_and_without_blocks(case):
    source, trips, passes, period, waits = case
    program = assemble(source, origin=0)
    for core in sorted(CORE_CLASSES):
        on_system, on = _run(program, core, blocks=True, period=period)
        _, off = _run(program, core, blocks=False, period=period)
        assert on == off, (core, source)
        # Every back-edge but the first one of the first pass finds the
        # loop head cached, so it chains unless the executor bailed in
        # the block before it, and each bail costs one interrupt.
        cpu = on_system.core
        if (trips - 1) * passes - 1 > cpu.stats.traps:
            assert cpu.block_engine.chained > 0
        # Between two of its interrupts the spin phase runs for most of a
        # timer period, which dispatch fast-forwards on the in-order
        # cores.
        if waits >= 2 and core != "naxriscv":
            assert cpu.block_engine.spin_skipped > 0, (core, source)
