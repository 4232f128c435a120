"""Decoded instruction representation and the RV32IM_Zicsr opcode tables."""

from __future__ import annotations

from dataclasses import dataclass, field

# Instruction formats.
FMT_R = "R"
FMT_I = "I"
FMT_S = "S"
FMT_B = "B"
FMT_U = "U"
FMT_J = "J"
FMT_CSR = "CSR"   # csrrw/csrrs/csrrc — imm field is the CSR address
FMT_CSRI = "CSRI"  # immediate variants — rs1 field is a zimm
FMT_SYS = "SYS"   # ecall / ebreak / mret / wfi / fence
FMT_CUSTOM = "CUSTOM"


@dataclass(frozen=True)
class InstrSpec:
    """Static encoding data for one mnemonic."""

    mnemonic: str
    fmt: str
    opcode: int
    funct3: int | None = None
    funct7: int | None = None
    fixed_imm: int | None = None  # for SYS instructions with a fixed imm12


@dataclass
class Instr:
    """One decoded instruction.

    ``imm`` is already sign-extended where the format calls for it. ``raw``
    is the 32-bit encoding, and ``addr`` the instruction address (filled in
    by program loaders; 0 for ad-hoc decodes).
    """

    mnemonic: str
    rd: int = 0
    rs1: int = 0
    rs2: int = 0
    imm: int = 0
    csr: int = 0
    raw: int = 0
    addr: int = 0
    fmt: str = field(default=FMT_R)

    @property
    def is_load(self) -> bool:
        return self.mnemonic in LOADS

    @property
    def is_store(self) -> bool:
        return self.mnemonic in STORES

    @property
    def is_branch(self) -> bool:
        return self.fmt == FMT_B

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        from repro.isa.disassembler import format_instr
        return format_instr(self)


LOADS = frozenset({"lb", "lh", "lw", "lbu", "lhu"})
STORES = frozenset({"sb", "sh", "sw"})
MUL_DIV = frozenset({"mul", "mulh", "mulhsu", "mulhu", "div", "divu", "rem", "remu"})
CSR_OPS = frozenset({"csrrw", "csrrs", "csrrc", "csrrwi", "csrrsi", "csrrci"})

#: Mnemonics the block predecoder leaves on the exact per-instruction
#: path: privilege/bank transitions, waiting and environment calls all
#: have side effects (RTOSUnit FSMs, time skips) that a predecoded block
#: cannot replay cycle-exactly, and ``fence``, which no kernel emits, has
#: no block record. Every other RV32IM mnemonic and every Zicsr op
#: predecodes into a block record.
SYNC_OPS = frozenset({"mret", "wfi", "ecall", "ebreak", "fence"})

#: Control transfers that terminate (and are included in) a basic block.
BLOCK_TERMINATORS = frozenset(
    {"jal", "jalr", "beq", "bne", "blt", "bge", "bltu", "bgeu"})


def opclass(mnemonic: str, fmt: str = "") -> str:
    """Coarse opcode class used for per-opcode cycle attribution."""
    if mnemonic in LOADS:
        return "load"
    if mnemonic in STORES:
        return "store"
    if mnemonic in MUL_DIV:
        return "muldiv"
    if mnemonic in CSR_OPS:
        return "csr"
    if mnemonic in ("jal", "jalr"):
        return "jump"
    if fmt == FMT_B or mnemonic in ("beq", "bne", "blt", "bge", "bltu", "bgeu"):
        return "branch"
    if fmt == FMT_CUSTOM or mnemonic.startswith("custom."):
        return "custom"
    if mnemonic in ("mret", "wfi", "ecall", "ebreak", "fence"):
        return "system"
    return "alu"

# Major opcodes.
OP_LUI = 0b0110111
OP_AUIPC = 0b0010111
OP_JAL = 0b1101111
OP_JALR = 0b1100111
OP_BRANCH = 0b1100011
OP_LOAD = 0b0000011
OP_STORE = 0b0100011
OP_IMM = 0b0010011
OP_REG = 0b0110011
OP_FENCE = 0b0001111
OP_SYSTEM = 0b1110011
OP_CUSTOM0 = 0b0001011

_R = lambda m, f3, f7: InstrSpec(m, FMT_R, OP_REG, f3, f7)  # noqa: E731
_I = lambda m, op, f3: InstrSpec(m, FMT_I, op, f3)  # noqa: E731

#: All RV32IM_Zicsr instruction specs, keyed by mnemonic.
SPECS: dict[str, InstrSpec] = {}


def _add(spec: InstrSpec) -> None:
    SPECS[spec.mnemonic] = spec


# RV32I — upper immediates and jumps.
_add(InstrSpec("lui", FMT_U, OP_LUI))
_add(InstrSpec("auipc", FMT_U, OP_AUIPC))
_add(InstrSpec("jal", FMT_J, OP_JAL))
_add(InstrSpec("jalr", FMT_I, OP_JALR, 0b000))

# Branches.
for _m, _f3 in (("beq", 0), ("bne", 1), ("blt", 4), ("bge", 5),
                ("bltu", 6), ("bgeu", 7)):
    _add(InstrSpec(_m, FMT_B, OP_BRANCH, _f3))

# Loads / stores.
for _m, _f3 in (("lb", 0), ("lh", 1), ("lw", 2), ("lbu", 4), ("lhu", 5)):
    _add(_I(_m, OP_LOAD, _f3))
for _m, _f3 in (("sb", 0), ("sh", 1), ("sw", 2)):
    _add(InstrSpec(_m, FMT_S, OP_STORE, _f3))

# Register-immediate ALU.
for _m, _f3 in (("addi", 0), ("slti", 2), ("sltiu", 3), ("xori", 4),
                ("ori", 6), ("andi", 7)):
    _add(_I(_m, OP_IMM, _f3))
_add(InstrSpec("slli", FMT_I, OP_IMM, 0b001, 0b0000000))
_add(InstrSpec("srli", FMT_I, OP_IMM, 0b101, 0b0000000))
_add(InstrSpec("srai", FMT_I, OP_IMM, 0b101, 0b0100000))

# Register-register ALU.
_add(_R("add", 0b000, 0b0000000))
_add(_R("sub", 0b000, 0b0100000))
_add(_R("sll", 0b001, 0b0000000))
_add(_R("slt", 0b010, 0b0000000))
_add(_R("sltu", 0b011, 0b0000000))
_add(_R("xor", 0b100, 0b0000000))
_add(_R("srl", 0b101, 0b0000000))
_add(_R("sra", 0b101, 0b0100000))
_add(_R("or", 0b110, 0b0000000))
_add(_R("and", 0b111, 0b0000000))

# M extension.
for _m, _f3 in (("mul", 0), ("mulh", 1), ("mulhsu", 2), ("mulhu", 3),
                ("div", 4), ("divu", 5), ("rem", 6), ("remu", 7)):
    _add(_R(_m, _f3, 0b0000001))

# Zicsr.
for _m, _f3 in (("csrrw", 1), ("csrrs", 2), ("csrrc", 3)):
    _add(InstrSpec(_m, FMT_CSR, OP_SYSTEM, _f3))
for _m, _f3 in (("csrrwi", 5), ("csrrsi", 6), ("csrrci", 7)):
    _add(InstrSpec(_m, FMT_CSRI, OP_SYSTEM, _f3))

# System.
_add(InstrSpec("ecall", FMT_SYS, OP_SYSTEM, 0b000, fixed_imm=0x000))
_add(InstrSpec("ebreak", FMT_SYS, OP_SYSTEM, 0b000, fixed_imm=0x001))
_add(InstrSpec("mret", FMT_SYS, OP_SYSTEM, 0b000, fixed_imm=0x302))
_add(InstrSpec("wfi", FMT_SYS, OP_SYSTEM, 0b000, fixed_imm=0x105))
_add(InstrSpec("fence", FMT_SYS, OP_FENCE, 0b000, fixed_imm=None))

# RTOSUnit custom instructions live in repro.isa.custom; the assembler and
# decoder special-case OP_CUSTOM0 with funct3 = CustomOp.
