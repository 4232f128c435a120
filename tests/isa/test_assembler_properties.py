"""Property-based assembler tests: layout stability, expression algebra."""

import operator

from hypothesis import given, settings, strategies as st

from repro.isa.assembler import _ExprEvaluator, assemble, reset_memo
from repro.isa.encoding import decode

identifier = st.from_regex(r"[a-z][a-z0-9_]{0,8}", fullmatch=True)

MASK32 = 0xFFFFFFFF
SYMBOLS = {"A": 0x1234, "B": 7, "C": 0xDEADBEEF, "NEG": -300, "Z": 0}


def _hi(value):
    return ((value + 0x800) >> 12) & 0xFFFFF


def _lo(value):
    low = value & 0xFFF
    return low - 0x1000 if low >= 0x800 else low


_BINARY = {"+": operator.add, "-": operator.sub, "*": operator.mul,
           "&": operator.and_, "|": operator.or_, "^": operator.xor}


def _extend(children):
    """Expression trees one level deeper, as (text, python source)."""
    binary = st.tuples(st.sampled_from(sorted(_BINARY)), children, children)
    shift = st.tuples(st.sampled_from(("<<", ">>")), children,
                      st.integers(0, 31))
    return st.one_of(
        binary.map(lambda t: f"({t[1]}) {t[0]} ({t[2]})"),
        shift.map(lambda t: f"({t[1]}) {t[0]} {t[2]}"),
        children.map(lambda c: f"~({c})"),
        children.map(lambda c: f"-({c})"),
        children.map(lambda c: f"%hi({c})"),
        children.map(lambda c: f"%lo({c})"),
    )


_leaves = st.one_of(
    st.integers(0, 0xFFFF).map(str),
    st.integers(0, MASK32).map(hex),
    st.sampled_from(sorted(SYMBOLS)),
)
expression_trees = st.recursive(_leaves, _extend, max_leaves=10)


def _python_value(text: str) -> int:
    """Python's own evaluation, with %hi/%lo as the relocation functions."""
    source = text.replace("%hi(", "hi(").replace("%lo(", "lo(")
    namespace = {**SYMBOLS, "hi": lambda v: _hi(v & MASK32),
                 "lo": lambda v: _lo(v & MASK32)}
    return eval(source, {"__builtins__": {}}, namespace)  # noqa: S307


class TestExpressionEvaluator:
    @given(a=st.integers(-10_000, 10_000), b=st.integers(-10_000, 10_000))
    def test_addition_matches_python(self, a, b):
        ev = _ExprEvaluator({})
        assert ev.eval(f"({a}) + ({b})") == a + b

    @given(a=st.integers(0, 0xFFFF), s=st.integers(0, 15))
    def test_shifts_match_python(self, a, s):
        ev = _ExprEvaluator({})
        assert ev.eval(f"{a} << {s}") == a << s
        assert ev.eval(f"{a} >> {s}") == a >> s

    @given(a=st.integers(0, 0xFFFFFFFF))
    def test_hi_lo_reconstruct(self, a):
        """%hi/%lo must satisfy (hi << 12) + sext(lo) == value (mod 2^32)."""
        ev = _ExprEvaluator({"V": a})
        hi = ev.eval("%hi(V)")
        lo = ev.eval("%lo(V)")
        assert ((hi << 12) + lo) & 0xFFFFFFFF == a
        assert -2048 <= lo <= 2047
        assert 0 <= hi <= 0xFFFFF

    @given(value=st.integers(-(1 << 31), (1 << 31) - 1))
    def test_symbols_resolve(self, value):
        ev = _ExprEvaluator({"sym": value})
        assert ev.eval("sym") == value
        assert ev.eval("sym + 1") == value + 1

    @given(a=st.integers(0, 0xFFFF), b=st.integers(0, 0xFFFF))
    def test_bitwise_matches_python(self, a, b):
        ev = _ExprEvaluator({})
        assert ev.eval(f"{a} & {b}") == a & b
        assert ev.eval(f"{a} | {b}") == a | b
        assert ev.eval(f"{a} ^ {b}") == a ^ b


class TestExpressionTrees:
    @settings(max_examples=300, deadline=None)
    @given(text=expression_trees)
    def test_tree_matches_python(self, text):
        assert _ExprEvaluator(SYMBOLS).eval(text) == _python_value(text)

    @settings(max_examples=100, deadline=None)
    @given(text=expression_trees)
    def test_word_directive_matches_python(self, text):
        equates = "".join(f".equ {name}, {value}\n"
                          for name, value in SYMBOLS.items())
        program = assemble(equates + f".word {text}\n")
        assert program.words[0] == _python_value(text) & MASK32


class TestEncodeMemo:
    @settings(max_examples=100, deadline=None)
    @given(value=st.integers(-(1 << 31), MASK32),
           origin=st.integers(0, 0x4000).map(lambda v: v * 4),
           gap=st.integers(0, 64))
    def test_memoised_encoding_matches_a_cold_one(self, value, origin, gap):
        """Same text, other symbol values and addresses: never stale."""
        source = (f".equ V, {value}\n"
                  "top: li a0, V\n"
                  "    lui a1, %hi(V)\n"
                  "    addi a1, a1, %lo(V)\n"
                  "    call far\n"
                  "    beqz a0, top\n"
                  f"    .space {gap * 4}\n"
                  "far: j top\n"
                  "    .word V, far - top\n")
        warm = assemble(source, origin=origin)
        reset_memo()
        cold = assemble(source, origin=origin)
        assert (warm.words, warm.symbols) == (cold.words, cold.symbols)


class TestLiConstruction:
    @settings(max_examples=200)
    @given(value=st.integers(0, 0xFFFFFFFF))
    def test_li_materialises_any_32bit_value(self, value):
        program = assemble(f"li a0, {value:#x}\n")
        words = [program.words[a] for a in sorted(program.words)]
        if len(words) == 1:
            instr = decode(words[0], 0)
            assert instr.imm & 0xFFFFFFFF == value or instr.imm == value
            return
        hi = decode(words[0], 0)
        lo = decode(words[1], 4)
        assert ((hi.imm << 12) + lo.imm) & 0xFFFFFFFF == value


class TestLayoutStability:
    @settings(max_examples=50, deadline=None)
    @given(blocks=st.lists(st.tuples(identifier, st.integers(0, 5)),
                           min_size=2, max_size=6,
                           unique_by=lambda pair: pair[0]))
    def test_forward_and_backward_references_agree(self, blocks):
        """Jump targets resolve identically regardless of direction."""
        labels = [label for label, _ in blocks]
        lines = []
        for label, pad in blocks:
            lines.append(f"{label}:")
            lines.extend(["    nop"] * pad)
        # jump from the end back to each label, and from start forward
        source = f"    j {labels[-1]}\n" + "\n".join(lines) + "\n"
        for label in labels:
            source += f"    j {label}\n"
        program = assemble(source)
        addresses = sorted(program.words)
        for addr in addresses:
            instr = decode(program.words[addr], addr)
            if instr.mnemonic == "jal":
                target = addr + instr.imm
                assert target in program.symbols.values()

    @settings(max_examples=50, deadline=None)
    @given(words=st.lists(st.integers(0, 0xFFFFFFFF), min_size=1,
                          max_size=8))
    def test_data_words_round_trip(self, words):
        source = "data:\n" + "\n".join(
            f"    .word {w:#x}" for w in words) + "\n"
        program = assemble(source, origin=0x100)
        for index, word in enumerate(words):
            assert program.words[0x100 + 4 * index] == word
