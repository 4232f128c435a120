"""A two-pass RV32IM_Zicsr assembler.

The FreeRTOS-workalike kernel (:mod:`repro.kernel`) is written in textual
RISC-V assembly and translated by this module into loadable
:class:`Program` images. The assembler supports the subset of GNU-as
syntax the kernel needs:

* labels, numeric and ABI register names, the usual pseudo-instructions
  (``li``, ``la``, ``mv``, ``call``, ``ret``, ``beqz``...),
* directives: ``.org``, ``.align``, ``.word``, ``.half``, ``.byte``,
  ``.space``/``.zero``, ``.asciz``, ``.equ``/``.set``, ``.globl`` (ignored),
* constant expressions with ``+ - * / % << >> & | ^ ~`` and
  ``%hi()``/``%lo()``,
* RTOSUnit custom instructions (``add_ready``, ``get_hw_sched``, ...),
* ``#@ key value`` annotation comments, recorded against the next
  instruction's address (used by the WCET analyzer for loop bounds).

Every kernel variant is rendered as its own source, yet the variants share
almost all of their lines. The assembler therefore memoises, per process,
everything that depends on text alone:

* each distinct source line is split and parsed once (:data:`_LINES`);
* each distinct expression is compiled once into a closure over the
  symbol table (:data:`_EXPRS`); integer literals and bare symbols skip
  :mod:`ast` altogether;
* each instruction is encoded once per key (:data:`_ENCODED`): its text,
  its address when the encoding is pc-relative, and the values of the
  symbols it reads.

The memo is bounded and invisible: a memoised assembly returns the same
:class:`Program` as a cold one, returned programs share no mutable object,
and a malformed line raises on every call. :func:`reset_memo` (called by
:func:`repro.kernel.builder.reset_program_cache`) empties it.
"""

from __future__ import annotations

import ast
import operator
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

from repro.errors import AssemblerError, DecodeError
from repro.isa.csr import CSR_NAMES
from repro.isa.custom import CUSTOM_BY_MNEMONIC
from repro.isa.encoding import encode
from repro.isa.instructions import FMT_B, FMT_CUSTOM, LOADS, SPECS, Instr
from repro.isa.registers import reg_num
from repro.util.lru import LRUCache

MASK32 = 0xFFFFFFFF

#: Capacity of each memo. All of the paper's artifacts together need 962
#: lines, 349 expressions and 1,727 encodings, so eviction only bounds a
#: long-lived process that is fed arbitrary sources.
MEMO_CAPACITY = 1 << 14

_LINES: LRUCache = LRUCache(MEMO_CAPACITY)    # raw line -> _Line
_EXPRS: LRUCache = LRUCache(MEMO_CAPACITY)    # expression text -> _Expr
_ENCODED: LRUCache = LRUCache(MEMO_CAPACITY)  # (text, pc, values) -> words


def reset_memo() -> None:
    """Forget every memoised line, expression and encoding."""
    _LINES.clear()
    _EXPRS.clear()
    _ENCODED.clear()


@dataclass
class Program:
    """An assembled, loadable image.

    ``words`` maps word-aligned byte addresses to 32-bit values;
    ``symbols`` maps label names to addresses; ``annotations`` maps
    instruction addresses to ``{key: value}`` dicts from ``#@`` comments;
    ``source_map`` maps instruction addresses to their source line text.
    """

    words: dict[int, int] = field(default_factory=dict)
    symbols: dict[str, int] = field(default_factory=dict)
    annotations: dict[int, dict[str, str]] = field(default_factory=dict)
    source_map: dict[int, str] = field(default_factory=dict)
    entry: int = 0

    def symbol(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise AssemblerError(f"undefined symbol {name!r}") from None


# -- expressions --------------------------------------------------------------

_SYMBOL_RE = re.compile(r"[A-Za-z_.$][\w.$]*")
_LABEL_RE = re.compile(r"^([A-Za-z_.$][\w.$]*):")
_CHAR_RE = re.compile(r"'(\\?.)'")


class _Expr(NamedTuple):
    """A compiled expression: ``fn(symbols)`` and the symbols it reads."""

    fn: Callable[[dict[str, int]], int]
    names: tuple[str, ...]


def _floordiv(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise AssemblerError("division by zero")
    return lhs // rhs


def _mod(lhs: int, rhs: int) -> int:
    if rhs == 0:
        raise AssemblerError("modulo by zero")
    return lhs % rhs


def _lshift(lhs: int, rhs: int) -> int:
    if rhs < 0:
        raise AssemblerError(f"negative shift count {rhs}")
    return lhs << rhs


def _rshift(lhs: int, rhs: int) -> int:
    if rhs < 0:
        raise AssemblerError(f"negative shift count {rhs}")
    return lhs >> rhs


def _hi(value: int) -> int:
    # Compensate for the sign-extension of the low 12 bits.
    return ((value + 0x800) >> 12) & 0xFFFFF


def _lo(value: int) -> int:
    low = value & 0xFFF
    return low - 0x1000 if low >= 0x800 else low


_BINARY = {
    ast.Add: operator.add, ast.Sub: operator.sub, ast.Mult: operator.mul,
    ast.Div: _floordiv, ast.FloorDiv: _floordiv, ast.Mod: _mod,
    ast.LShift: _lshift, ast.RShift: _rshift, ast.BitAnd: operator.and_,
    ast.BitOr: operator.or_, ast.BitXor: operator.xor,
}
_UNARY = {ast.USub: operator.neg, ast.UAdd: operator.pos,
          ast.Invert: operator.invert}
_RELOCATIONS = {"__hi__": _hi, "__lo__": _lo}


def _compile(text: str) -> _Expr:
    """The compiled form of expression *text* (memoised)."""
    expr = _EXPRS.get(text)
    if expr is None:
        expr = _EXPRS[text] = _compile_uncached(text)
    return expr


def _compile_uncached(text: str) -> _Expr:
    text = text.strip()
    # A bare symbol. This also makes labels that happen to collide with
    # Python keywords ('as', 'in', ...) work; ast could not parse them.
    if _SYMBOL_RE.fullmatch(text):
        return _Expr(_lookup(text), (text,))
    # Character literals: 'a' -> ordinal.
    text = _CHAR_RE.sub(lambda m: str(_char_value(m.group(1))), text)
    if text.isascii():
        try:
            value = int(text, 0)
        except ValueError:
            pass
        else:
            return _Expr(lambda symbols: value, ())
    # %hi(expr) / %lo(expr) -> function-call syntax the parser accepts.
    source = text.replace("%hi(", "__hi__(").replace("%lo(", "__lo__(")
    try:
        tree = ast.parse(source, mode="eval")
    except (SyntaxError, ValueError, RecursionError, MemoryError) as exc:
        raise AssemblerError(f"bad expression {text!r}: {exc}") from None
    names: set[str] = set()
    try:
        fn = _build(tree.body, names)
    except AssemblerError as exc:
        raise AssemblerError(f"{exc.message} in {text!r}") from None
    except RecursionError:
        raise AssemblerError(
            f"expression nested too deeply: {text!r}") from None
    return _Expr(fn, tuple(sorted(names)))


def _lookup(name: str) -> Callable[[dict[str, int]], int]:
    def lookup(symbols: dict[str, int]) -> int:
        try:
            return symbols[name]
        except KeyError:
            raise AssemblerError(f"undefined symbol {name!r}") from None
    return lookup


def _build(node: ast.AST, names: set[str]) -> Callable[[dict[str, int]], int]:
    """Validate *node* and close over its operands, once per expression."""
    if isinstance(node, ast.Constant):
        value = node.value
        if type(value) is not int:  # bool is an int subclass: reject it
            raise AssemblerError(f"non-integer constant {value!r}")
        return lambda symbols: value
    if isinstance(node, ast.Name):
        names.add(node.id)
        return _lookup(node.id)
    if isinstance(node, ast.UnaryOp) and type(node.op) in _UNARY:
        unary = _UNARY[type(node.op)]
        operand = _build(node.operand, names)
        return lambda symbols: unary(operand(symbols))
    if isinstance(node, ast.BinOp) and type(node.op) in _BINARY:
        binary = _BINARY[type(node.op)]
        lhs, rhs = _build(node.left, names), _build(node.right, names)
        return lambda symbols: binary(lhs(symbols), rhs(symbols))
    if isinstance(node, ast.Call):
        if (not isinstance(node.func, ast.Name)
                or node.func.id not in _RELOCATIONS
                or len(node.args) != 1 or node.keywords):
            raise AssemblerError("only %hi()/%lo() calls are allowed")
        relocation = _RELOCATIONS[node.func.id]
        arg = _build(node.args[0], names)
        return lambda symbols: relocation(arg(symbols) & MASK32)
    raise AssemblerError(f"disallowed construct {type(node).__name__}")


def _char_value(text: str) -> int:
    escapes = {"\\n": 10, "\\t": 9, "\\0": 0, "\\\\": 92, "\\'": 39}
    if text in escapes:
        return escapes[text]
    return ord(text)


class _ExprEvaluator:
    """Evaluates expressions against a symbol table.

    ``pc`` is the address of the instruction being expanded. Only
    :meth:`target` reads it, so :class:`_Dependencies` sees every
    expansion that depends on its own address.
    """

    def __init__(self, symbols: dict[str, int], pc: int = 0):
        self.symbols = symbols
        self.pc = pc

    def eval(self, text: str) -> int:
        return _compile(text).fn(self.symbols)

    def target(self, text: str) -> int:
        """The offset from the current instruction to *text*."""
        return self.eval(text) - self.pc


class _Dependencies:
    """Stands in for the evaluator in a dry-run expansion.

    Records the symbols an instruction reads and whether it reads its own
    address, and yields 0 for every value. Which operands an expansion
    evaluates depends on its text only, never on the values.
    """

    def __init__(self):
        self.names: set[str] = set()
        self.pcrel = False

    def eval(self, text: str) -> int:
        self.names.update(_compile(text).names)
        return 0

    def target(self, text: str) -> int:
        self.pcrel = True
        return self.eval(text)


# -- lines --------------------------------------------------------------------


@dataclass(frozen=True)
class _Line:
    """One source line, split and parsed (memoised per distinct line).

    ``text`` is the statement without labels and comment. An instruction
    has a ``mnemonic`` and ``operands``, its ``size`` after pseudo
    expansion and what its encoding reads (``names``, ``pcrel``). A
    directive has a ``directive`` name, its compiled expressions
    (``exprs``), the ``symbol`` an ``.equ`` defines and the bytes of an
    ``.asciz`` (``data``).
    """

    labels: tuple[str, ...] = ()
    annotation: tuple[str, str] | None = None
    text: str = ""
    mnemonic: str = ""
    operands: tuple[str, ...] = ()
    size: int = 0
    names: tuple[str, ...] = ()
    pcrel: bool = False
    directive: str = ""
    exprs: tuple[_Expr, ...] = ()
    symbol: str = ""
    data: bytes = b""


_IGNORED_DIRECTIVES = frozenset((".globl", ".global", ".text", ".data",
                                 ".section", ".option", ".type", ".size"))
_DATA_UNITS = {".word": 4, ".half": 2, ".byte": 1}

#: Operand counts each mnemonic accepts.
_FORMAT_ARITY = {"R": (3,), "I": (3,), "S": (2,), "B": (3,), "U": (2,),
                 "J": (1, 2), "CSR": (3,), "CSRI": (3,), "SYS": (0,)}
_ARITY: dict[str, tuple[int, ...]] = {
    **{m: _FORMAT_ARITY[spec.fmt] for m, spec in SPECS.items()},
    **{m: (2,) for m in LOADS},
    "jalr": (1, 2, 3),
    **{m: (spec.writes_rd + spec.uses_rs1 + spec.uses_rs2,)
       for m, spec in CUSTOM_BY_MNEMONIC.items()},
    "nop": (0,), "ret": (0,), "j": (1,), "jr": (1,), "call": (1,),
    "tail": (1,), "bgt": (3,), "ble": (3,), "bgtu": (3,), "bleu": (3,),
    **{m: (2,) for m in (
        "mv", "not", "neg", "seqz", "snez", "sltz", "sgtz", "li", "la",
        "beqz", "bnez", "bltz", "bgez", "blez", "bgtz", "csrr", "csrw",
        "csrs", "csrc", "csrwi", "csrsi", "csrci")},
}


def _parse_line(raw: str) -> _Line:
    code, annotation = _split_comment(raw)
    note = None
    if annotation:
        key, _, value = annotation.partition(" ")
        note = (key.strip(), value.strip())
    code = code.strip()
    labels = []
    while (match := _LABEL_RE.match(code)) is not None:
        labels.append(match.group(1))
        code = code[match.end():].strip()
    if not code:
        return _Line(tuple(labels), note)
    if code.startswith("."):
        return _parse_directive(code, tuple(labels), note)
    mnemonic, operands = _split_instr(code)
    arity = _ARITY.get(mnemonic)
    if arity is None:
        raise AssemblerError(f"unknown mnemonic {mnemonic!r}")
    if len(operands) not in arity:
        expected = " or ".join(map(str, arity))
        raise AssemblerError(
            f"{mnemonic} takes {expected} operand(s), got {len(operands)}")
    size = _pseudo_size(mnemonic, operands)
    deps = _Dependencies()
    _expand(mnemonic, operands, size, deps)
    return _Line(tuple(labels), note, code, mnemonic=mnemonic,
                 operands=operands, size=size,
                 names=tuple(sorted(deps.names)), pcrel=deps.pcrel)


def _parse_directive(code: str, labels: tuple[str, ...],
                     note: tuple[str, str] | None) -> _Line:
    name, _, rest = code.partition(" ")
    rest = rest.strip()
    if name in _IGNORED_DIRECTIVES:
        return _Line(labels, note)
    if name in (".equ", ".set"):
        symbol, _, expr = rest.partition(",")
        symbol = symbol.strip()
        if not _SYMBOL_RE.fullmatch(symbol):
            raise AssemblerError(f"bad symbol name {symbol!r}")
        return _Line(labels, note, code, directive=name,
                     exprs=(_compile(expr),), symbol=symbol)
    if name in _DATA_UNITS:
        exprs = tuple(map(_compile, _split_operands(rest)))
    elif name in (".org", ".align", ".space", ".zero"):
        exprs = (_compile(rest),)
    elif name == ".asciz":
        try:
            text = ast.literal_eval(rest)
            if not isinstance(text, str):
                raise TypeError
            data = text.encode() + b"\0"
        except (ValueError, TypeError, SyntaxError, MemoryError,
                RecursionError):
            raise AssemblerError(
                f".asciz needs a string literal, got {rest!r}") from None
        return _Line(labels, note, code, directive=name, data=data)
    else:
        raise AssemblerError(f"unknown directive {name!r}")
    return _Line(labels, note, code, directive=name, exprs=exprs)


def _located(exc: Exception, line_no: int, text: str) -> AssemblerError:
    """*exc* as an :class:`AssemblerError` that names its source line."""
    if isinstance(exc, AssemblerError):
        if exc.line is not None:
            return exc
        return AssemblerError(exc.message, line_no, text)
    return AssemblerError(str(exc), line_no, text)


class Assembler:
    """Two-pass assembler producing :class:`Program` images."""

    def __init__(self, origin: int = 0):
        self.origin = origin

    def assemble(self, source: str, symbols: dict[str, int] | None = None) -> Program:
        """Assemble *source*; *symbols* pre-seeds the symbol table."""
        program = Program(entry=self.origin)
        program.symbols.update(symbols or {})
        statements = self._pass1(source, program)
        self._pass2(statements, program)
        return program

    # -- pass 1: layout ----------------------------------------------------

    def _pass1(self, source: str, program: Program) -> list[tuple]:
        """Lay out *source*: define labels and equates, place statements.

        Returns ``(addr, line_no, line, extra)`` per instruction or data
        line, where ``extra`` is an instruction's annotations or the size
        of a ``.space``.
        """
        statements: list[tuple] = []
        symbols = program.symbols
        pc = self.origin
        pending: dict[str, str] | None = None
        for line_no, raw in enumerate(source.splitlines(), start=1):
            line = _LINES.get(raw)
            if line is None:
                try:
                    line = _parse_line(raw)
                except AssemblerError as exc:
                    raise _located(exc, line_no, raw) from None
                _LINES[raw] = line
            if line.annotation is not None:
                if pending is None:
                    pending = {}
                key, value = line.annotation
                pending[key] = value
            for label in line.labels:
                if label in symbols:
                    raise AssemblerError(
                        f"duplicate label {label!r}", line_no, raw)
                symbols[label] = pc
            if line.mnemonic:
                statements.append((pc, line_no, line, pending))
                pending = None
                pc += line.size
            elif line.directive:
                try:
                    pc = _directive_pass1(line, pc, symbols, statements,
                                          line_no)
                except AssemblerError as exc:
                    raise _located(exc, line_no, raw) from None
        return statements

    # -- pass 2: encoding --------------------------------------------------

    def _pass2(self, statements: list[tuple], program: Program) -> None:
        symbols = program.symbols
        lookup = symbols.get
        words = program.words
        source_map = program.source_map
        for addr, line_no, line, extra in statements:
            try:
                if not line.mnemonic:
                    _store_data(program, addr, line, extra)
                    continue
                key = (line.text, addr if line.pcrel else None,
                       tuple(map(lookup, line.names)))
                encoded = _ENCODED.get(key)
                if encoded is None:
                    encoded = _ENCODED[key] = _encode(line, addr, symbols)
                if extra:
                    program.annotations[addr] = extra
                for word in encoded:
                    if addr & 3:
                        raise AssemblerError(f"misaligned word at {addr:#x}")
                    if addr in words:
                        raise AssemblerError(f"overlapping data at {addr:#x}")
                    words[addr] = word
                    source_map[addr] = line.text
                    addr += 4
            except (AssemblerError, DecodeError) as exc:
                raise _located(exc, line_no, line.text) from None


def _directive_pass1(line: _Line, pc: int, symbols: dict[str, int],
                     statements: list[tuple], line_no: int) -> int:
    name = line.directive
    if name in (".equ", ".set"):
        symbols[line.symbol] = line.exprs[0].fn(symbols)
        return pc
    if name in _DATA_UNITS:
        statements.append((pc, line_no, line, None))
        return pc + _DATA_UNITS[name] * len(line.exprs)
    if name == ".asciz":
        statements.append((pc, line_no, line, None))
        return pc + len(line.data)
    value = line.exprs[0].fn(symbols)
    if name == ".org":
        if value < pc:
            raise AssemblerError(
                f".org {value:#x} moves backwards from {pc:#x}")
        return value
    if value < 0:
        raise AssemblerError(f"{name} {value} is negative")
    if name == ".align":
        mask = (1 << value) - 1
        return (pc + mask) & ~mask
    statements.append((pc, line_no, line, value))  # .space / .zero
    return pc + value


def _encode(line: _Line, addr: int,
            symbols: dict[str, int]) -> tuple[int, ...]:
    instrs = _expand(line.mnemonic, line.operands, line.size,
                     _ExprEvaluator(symbols, addr))
    if len(instrs) * 4 != line.size:
        raise AssemblerError(
            f"pseudo expansion size changed between passes for "
            f"{line.mnemonic!r}")
    return tuple(encode(instr) & MASK32 for instr in instrs)


def _store_data(program: Program, addr: int, line: _Line, extra) -> None:
    """Emit one data directive placed at *addr* by pass 1."""
    name = line.directive
    if name == ".asciz":
        for offset, byte in enumerate(line.data):
            _store_bytes(program, addr + offset, 1, byte)
    elif name in _DATA_UNITS:
        unit = _DATA_UNITS[name]
        symbols = program.symbols
        for expr in line.exprs:
            _store_bytes(program, addr, unit, expr.fn(symbols))
            addr += unit
    else:  # .space / .zero of ``extra`` bytes
        for offset in range(0, extra, 4):
            _store_bytes(program, addr + offset, min(4, extra - offset), 0)


def _store_bytes(program: Program, addr: int, size: int, value: int) -> None:
    """Merge a .byte/.half/.word value into the word map."""
    if size == 4 and not addr & 3:
        program.words[addr] = value & MASK32
        return
    for i in range(size):
        byte = (value >> (8 * i)) & 0xFF
        word_addr = (addr + i) & ~3
        shift = 8 * ((addr + i) & 3)
        current = program.words.get(word_addr, 0)
        current &= ~(0xFF << shift)
        program.words[word_addr] = current | (byte << shift)


_STRING_RE = re.compile(r'"(?:[^"\\]|\\.)*"')


def _split_comment(line: str) -> tuple[str, str | None]:
    """Strip comments; return (code, annotation-or-None) for ``#@`` lines.

    Comment markers inside a double-quoted string are text.
    """
    # The same line with its strings blanked: markers are searched here.
    masked = _STRING_RE.sub(lambda m: "_" * len(m.group()), line)
    annotation = None
    for marker in ("#", "//", ";"):
        idx = masked.find(marker)
        if idx >= 0:
            comment = line[idx + len(marker):].strip()
            if comment.startswith("@"):
                annotation = comment[1:].strip()
            line, masked = line[:idx], masked[:idx]
    return line, annotation


def _split_instr(line: str) -> tuple[str, tuple[str, ...]]:
    parts = line.split(None, 1)
    mnemonic = parts[0].lower()
    if len(parts) == 1:
        return mnemonic, ()
    return mnemonic, tuple(_split_operands(parts[1]))


def _split_operands(text: str) -> list[str]:
    """Split on commas not inside parentheses."""
    operands, depth, current = [], 0, []
    for char in text:
        if char == "(":
            depth += 1
        elif char == ")":
            depth -= 1
        if char == "," and depth == 0:
            operands.append("".join(current).strip())
            current = []
        else:
            current.append(char)
    tail = "".join(current).strip()
    if tail:
        operands.append(tail)
    return operands


_MEM_OPERAND_RE = re.compile(r"^(.*)\(\s*([\w$]+)\s*\)$")


def _parse_mem_operand(text: str, evaluator) -> tuple[int, int]:
    """Parse ``offset(reg)`` into (offset, regnum)."""
    match = _MEM_OPERAND_RE.match(text.strip())
    if not match:
        raise AssemblerError(f"expected offset(reg), got {text!r}")
    offset_text = match.group(1).strip() or "0"
    return evaluator.eval(offset_text), reg_num(match.group(2))


def _pseudo_size(mnemonic: str, operands: tuple[str, ...]) -> int:
    """Instruction byte size after pseudo expansion (must be pass-stable)."""
    if mnemonic == "li":
        # Keep layout independent of symbol values: literal small constants
        # (including character literals) take one instruction, everything
        # else two.
        text = _CHAR_RE.sub(lambda m: str(_char_value(m.group(1))),
                            operands[1])
        try:
            value = int(text, 0)
        except ValueError:
            return 8
        return 4 if -2048 <= value <= 2047 else 8
    if mnemonic in ("la", "call", "tail"):
        return 8
    return 4


def _expand(m: str, ops: tuple[str, ...], size: int, ev) -> list[Instr]:
    """Expand one source statement into real instructions.

    *ev* is an :class:`_ExprEvaluator` bound to the statement's address,
    or :class:`_Dependencies` for a dry run.
    """

    def _r(i: int) -> int:
        return reg_num(ops[i])

    def _imm(i: int) -> int:
        return ev.eval(ops[i])

    def _target(i: int) -> int:
        return ev.target(ops[i])

    # Real instructions -----------------------------------------------------
    if m in SPECS:
        spec = SPECS[m]
        if spec.fmt == "R":
            return [Instr(m, rd=_r(0), rs1=_r(1), rs2=_r(2))]
        if spec.fmt == "I":
            if m == "jalr":
                if len(ops) == 1:
                    return [Instr(m, rd=1, rs1=_r(0), imm=0)]
                if len(ops) == 2:
                    off, base = _parse_mem_operand(ops[1], ev)
                    return [Instr(m, rd=_r(0), rs1=base, imm=off)]
                return [Instr(m, rd=_r(0), rs1=_r(1), imm=_imm(2))]
            if m in LOADS:
                off, base = _parse_mem_operand(ops[1], ev)
                return [Instr(m, rd=_r(0), rs1=base, imm=off)]
            return [Instr(m, rd=_r(0), rs1=_r(1), imm=_imm(2))]
        if spec.fmt == "S":
            off, base = _parse_mem_operand(ops[1], ev)
            return [Instr(m, rs1=base, rs2=_r(0), imm=off)]
        if spec.fmt == "B":
            return [Instr(m, rs1=_r(0), rs2=_r(1), imm=_target(2), fmt=FMT_B)]
        if spec.fmt == "U":
            return [Instr(m, rd=_r(0), imm=_imm(1) & 0xFFFFF)]
        if spec.fmt == "J":  # jal rd, target
            if len(ops) == 1:
                return [Instr(m, rd=1, imm=_target(0))]
            return [Instr(m, rd=_r(0), imm=_target(1))]
        if spec.fmt == "CSR":
            return [Instr(m, rd=_r(0), rs1=_r(2), csr=_csr(ops[1], ev))]
        if spec.fmt == "CSRI":
            return [Instr(m, rd=_r(0), imm=_imm(2), csr=_csr(ops[1], ev))]
        if spec.fmt == "SYS":
            return [Instr(m)]
    # Custom instructions ---------------------------------------------------
    if m in CUSTOM_BY_MNEMONIC:
        spec = CUSTOM_BY_MNEMONIC[m]
        rd = rs1 = rs2 = 0
        idx = 0
        if spec.writes_rd:
            rd = _r(idx)
            idx += 1
        if spec.uses_rs1:
            rs1 = _r(idx)
            idx += 1
        if spec.uses_rs2:
            rs2 = _r(idx)
        return [Instr(f"custom.{spec.op.name.lower()}",
                      rd=rd, rs1=rs1, rs2=rs2, fmt=FMT_CUSTOM)]
    # Pseudo-instructions ---------------------------------------------------
    return _expand_pseudo(m, ops, size, ev)


def _csr(name: str, ev) -> int:
    name = name.strip().lower()
    if name in CSR_NAMES:
        return CSR_NAMES[name]
    return ev.eval(name)


def _expand_pseudo(m: str, ops: tuple[str, ...], size: int, ev) -> list[Instr]:
    def _r(i: int) -> int:
        return reg_num(ops[i])

    def _target(i: int) -> int:
        return ev.target(ops[i])

    if m == "nop":
        return [Instr("addi", rd=0, rs1=0, imm=0)]
    if m == "mv":
        return [Instr("addi", rd=_r(0), rs1=_r(1), imm=0)]
    if m == "not":
        return [Instr("xori", rd=_r(0), rs1=_r(1), imm=-1)]
    if m == "neg":
        return [Instr("sub", rd=_r(0), rs1=0, rs2=_r(1))]
    if m == "seqz":
        return [Instr("sltiu", rd=_r(0), rs1=_r(1), imm=1)]
    if m == "snez":
        return [Instr("sltu", rd=_r(0), rs1=0, rs2=_r(1))]
    if m == "sltz":
        return [Instr("slt", rd=_r(0), rs1=_r(1), rs2=0)]
    if m == "sgtz":
        return [Instr("slt", rd=_r(0), rs1=0, rs2=_r(1))]
    if m == "li":
        value = ev.eval(ops[1]) & MASK32
        signed = value - (1 << 32) if value >= (1 << 31) else value
        if size == 4:
            return [Instr("addi", rd=_r(0), rs1=0, imm=signed)]
        return [Instr("lui", rd=_r(0), imm=_hi(value)),
                Instr("addi", rd=_r(0), rs1=_r(0), imm=_lo(value))]
    if m == "la":
        value = ev.eval(ops[1]) & MASK32
        return [Instr("lui", rd=_r(0), imm=_hi(value)),
                Instr("addi", rd=_r(0), rs1=_r(0), imm=_lo(value))]
    if m == "j":
        return [Instr("jal", rd=0, imm=_target(0))]
    if m == "jr":
        return [Instr("jalr", rd=0, rs1=_r(0), imm=0)]
    if m == "ret":
        return [Instr("jalr", rd=0, rs1=1, imm=0)]
    if m in ("call", "tail"):
        rel = _target(0) & MASK32
        link = 1 if m == "call" else 0
        return [Instr("auipc", rd=6, imm=_hi(rel)),
                Instr("jalr", rd=link, rs1=6, imm=_lo(rel))]
    branch_zero = {"beqz": "beq", "bnez": "bne", "bltz": "blt", "bgez": "bge"}
    if m in branch_zero:
        return [Instr(branch_zero[m], rs1=_r(0), rs2=0, imm=_target(1),
                      fmt=FMT_B)]
    if m == "blez":  # rs <= 0  →  bge zero, rs
        return [Instr("bge", rs1=0, rs2=_r(0), imm=_target(1), fmt=FMT_B)]
    if m == "bgtz":  # rs > 0  →  blt zero, rs
        return [Instr("blt", rs1=0, rs2=_r(0), imm=_target(1), fmt=FMT_B)]
    swapped = {"bgt": "blt", "ble": "bge", "bgtu": "bltu", "bleu": "bgeu"}
    if m in swapped:
        return [Instr(swapped[m], rs1=_r(1), rs2=_r(0), imm=_target(2),
                      fmt=FMT_B)]
    if m == "csrr":
        return [Instr("csrrs", rd=_r(0), rs1=0, csr=_csr(ops[1], ev))]
    if m == "csrw":
        return [Instr("csrrw", rd=0, rs1=_r(1), csr=_csr(ops[0], ev))]
    if m == "csrs":
        return [Instr("csrrs", rd=0, rs1=_r(1), csr=_csr(ops[0], ev))]
    if m == "csrc":
        return [Instr("csrrc", rd=0, rs1=_r(1), csr=_csr(ops[0], ev))]
    if m == "csrwi":
        return [Instr("csrrwi", rd=0, imm=ev.eval(ops[1]),
                      csr=_csr(ops[0], ev), fmt="CSRI")]
    if m == "csrsi":
        return [Instr("csrrsi", rd=0, imm=ev.eval(ops[1]),
                      csr=_csr(ops[0], ev), fmt="CSRI")]
    if m == "csrci":
        return [Instr("csrrci", rd=0, imm=ev.eval(ops[1]),
                      csr=_csr(ops[0], ev), fmt="CSRI")]
    raise AssemblerError(f"unknown mnemonic {m!r}")


def assemble(source: str, origin: int = 0,
             symbols: dict[str, int] | None = None) -> Program:
    """Assemble *source* starting at *origin* and return the image."""
    return Assembler(origin=origin).assemble(source, symbols=symbols)
