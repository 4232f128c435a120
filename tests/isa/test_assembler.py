"""Assembler: labels, directives, pseudo-instructions, expressions."""

import pytest

from repro.errors import AssemblerError
from repro.isa.assembler import Program, assemble
from repro.isa.encoding import decode


def first_instr(src: str, origin: int = 0):
    program = assemble(src, origin=origin)
    return decode(program.words[origin], origin)


class TestLabels:
    def test_label_address(self):
        program = assemble("nop\nfoo:\nnop\n")
        assert program.symbols["foo"] == 4

    def test_label_on_same_line(self):
        program = assemble("foo: nop\nbar: nop\n")
        assert program.symbols == {"foo": 0, "bar": 4}

    def test_multiple_labels_one_address(self):
        program = assemble("a:\nb: nop\n")
        assert program.symbols["a"] == program.symbols["b"] == 0

    def test_duplicate_label_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("x: nop\nx: nop\n")

    def test_forward_reference(self):
        program = assemble("j target\nnop\ntarget: nop\n")
        instr = decode(program.words[0], 0)
        assert instr.imm == 8

    def test_backward_reference(self):
        program = assemble("top: nop\nj top\n")
        instr = decode(program.words[4], 4)
        assert instr.imm == -4


class TestDirectives:
    def test_org(self):
        program = assemble(".org 0x100\nnop\n")
        assert 0x100 in program.words

    def test_org_backwards_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("nop\n.org 0\nnop\n")

    def test_word(self):
        program = assemble("data: .word 0xDEADBEEF, 42\n")
        assert program.words[0] == 0xDEADBEEF
        assert program.words[4] == 42

    def test_word_symbolic(self):
        program = assemble("a: .word b\nb: .word a\n")
        assert program.words[0] == 4
        assert program.words[4] == 0

    def test_word_expression(self):
        program = assemble(".equ BASE, 0x1000\nv: .word BASE + (3 << 2)\n")
        assert program.words[0] == 0x100C

    def test_half_and_byte_packing(self):
        program = assemble(".byte 0x11, 0x22\n.half 0x4433\n")
        assert program.words[0] == 0x44332211

    def test_space(self):
        program = assemble(".space 8\nnop\n")
        assert program.words[8] == 0x00000013

    def test_align(self):
        program = assemble(".byte 1\n.align 2\nlab: nop\n")
        assert program.symbols["lab"] == 4

    def test_equ(self):
        program = assemble(".equ X, 7\n.equ Y, X * 2\nv: .word Y\n")
        assert program.words[0] == 14

    def test_asciz(self):
        program = assemble('.asciz "ab"\n')
        assert program.words[0] & 0xFFFFFF == 0x006261

    @pytest.mark.parametrize("marker", ("#", "//", ";"))
    def test_comment_marker_inside_string_is_text(self, marker):
        program = assemble(f'.asciz "a{marker}b"  {marker} trailing\n'
                           f'.align 2\nafter: nop\n')
        data = b"".join(program.words[addr].to_bytes(4, "little")
                        for addr in range(0, program.symbols["after"], 4))
        assert data.startswith(f"a{marker}b".encode() + b"\0")

    def test_annotation_after_string(self):
        program = assemble('.asciz "#@ x"  #@ bound 3\n.align 2\nnop\n')
        assert program.annotations == {8: {"bound": "3"}}

    def test_unknown_directive_rejected(self):
        with pytest.raises(AssemblerError):
            assemble(".bogus 1\n")


class TestStructuredErrors:
    @pytest.mark.parametrize("source, line", (
        (".equ X, 1/0\n", 1),
        ("nop\n.word 5 % 0\n", 2),
        ("li a0, 1 << -1\n", 1),
        (".word 16 >> -1\n", 1),
        ("nop\nli a0\n", 2),
        ("lw a0\n", 1),
        ("addi a0, a1, 1, 2\n", 1),
        ("jalr a0, a1\n", 1),
        (".asciz abc\n", 1),
        (".asciz 5\n", 1),
        ("nop\n.space -8\nnop\n", 2),
        (".zero -1\n", 1),
        (".align -1\n", 1),
        ("li a0, True\n", 1),
        (".word False + 1\n", 1),
        ("addi a0, a0, 4096\n", 1),
        (".equ A B, 1\n", 1),
    ))
    def test_malformed_input_raises_with_its_line(self, source, line):
        for _ in range(2):  # the memo must not swallow a second failure
            with pytest.raises(AssemblerError) as info:
                assemble(source)
            assert info.value.line == line


class TestExpressions:
    def test_hi_lo_reconstruct(self):
        program = assemble(
            ".equ V, 0x12345FFF\n"
            "lui t0, %hi(V)\n"
            "addi t0, t0, %lo(V)\n")
        hi = decode(program.words[0], 0)
        lo = decode(program.words[4], 4)
        assert ((hi.imm << 12) + lo.imm) & 0xFFFFFFFF == 0x12345FFF

    def test_char_literal(self):
        instr = first_instr("li a0, 'A'\n")
        assert instr.imm == 65

    def test_negative_symbol(self):
        program = assemble(".equ OFF, 16\naddi a0, a1, -OFF\n")
        assert decode(program.words[0]).imm == -16

    def test_disallowed_construct_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("v: .word __import__('os')\n")

    def test_undefined_symbol_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("li a0, MISSING\n")


class TestPseudoInstructions:
    def test_nop(self):
        assert first_instr("nop\n").mnemonic == "addi"

    def test_mv(self):
        instr = first_instr("mv a0, a1\n")
        assert (instr.mnemonic, instr.rd, instr.rs1) == ("addi", 10, 11)

    def test_li_small(self):
        instr = first_instr("li a0, 42\n")
        assert instr.mnemonic == "addi"
        assert instr.imm == 42

    def test_li_large_two_instructions(self):
        program = assemble("li a0, 0x12345678\nend: nop\n")
        assert program.symbols["end"] == 8

    def test_li_large_value(self):
        program = assemble("li a0, 0xFFFF0000\n")
        hi = decode(program.words[0], 0)
        lo = decode(program.words[4], 4)
        value = ((hi.imm << 12) + lo.imm) & 0xFFFFFFFF
        assert value == 0xFFFF0000

    def test_la(self):
        program = assemble(".org 0x1000\nla a0, target\ntarget: nop\n",
                           origin=0x1000)
        hi = decode(program.words[0x1000], 0x1000)
        lo = decode(program.words[0x1004], 0x1004)
        assert ((hi.imm << 12) + lo.imm) & 0xFFFFFFFF == 0x1008

    def test_branch_pseudos(self):
        for pseudo, real in (("beqz", "beq"), ("bnez", "bne"),
                             ("bltz", "blt"), ("bgez", "bge")):
            instr = first_instr(f"{pseudo} a0, 0\n")
            assert instr.mnemonic == real

    def test_swapped_branches(self):
        instr = first_instr("bgt a0, a1, 0\n")
        assert instr.mnemonic == "blt"
        assert (instr.rs1, instr.rs2) == (11, 10)

    def test_ret(self):
        instr = first_instr("ret\n")
        assert (instr.mnemonic, instr.rd, instr.rs1) == ("jalr", 0, 1)

    def test_call(self):
        program = assemble("call target\nnop\ntarget: nop\n")
        auipc = decode(program.words[0], 0)
        jalr = decode(program.words[4], 4)
        assert auipc.mnemonic == "auipc"
        assert jalr.rd == 1

    def test_csr_pseudos(self):
        instr = first_instr("csrr t0, mstatus\n")
        assert instr.mnemonic == "csrrs"
        assert instr.csr == 0x300
        instr = first_instr("csrw mepc, t0\n")
        assert instr.mnemonic == "csrrw"
        assert instr.csr == 0x341

    def test_csr_immediate_pseudos(self):
        instr = first_instr("csrci mstatus, 8\n")
        assert instr.mnemonic == "csrrci"
        assert instr.imm == 8

    def test_not_neg_seqz_snez(self):
        assert first_instr("not a0, a1\n").mnemonic == "xori"
        assert first_instr("neg a0, a1\n").mnemonic == "sub"
        assert first_instr("seqz a0, a1\n").mnemonic == "sltiu"
        assert first_instr("snez a0, a1\n").mnemonic == "sltu"

    def test_unknown_mnemonic_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("frobnicate a0\n")


class TestCustomInstructions:
    def test_add_ready(self):
        instr = first_instr("add_ready a0, a1\n")
        assert instr.mnemonic == "custom.add_ready"
        assert (instr.rs1, instr.rs2) == (10, 11)

    def test_get_hw_sched(self):
        instr = first_instr("get_hw_sched a0\n")
        assert instr.mnemonic == "custom.get_hw_sched"
        assert instr.rd == 10

    def test_switch_rf(self):
        instr = first_instr("switch_rf\n")
        assert instr.mnemonic == "custom.switch_rf"

    def test_set_context_id(self):
        instr = first_instr("set_context_id a2\n")
        assert instr.rs1 == 12


class TestAnnotationsAndComments:
    def test_comment_styles(self):
        program = assemble("nop # hash\nnop // slashes\nnop ; semi\n")
        assert len(program.words) == 3

    def test_bound_annotation_attaches_to_next_instruction(self):
        program = assemble("nop\nloop:  #@ bound 8\naddi a0, a0, 1\n")
        assert program.annotations[4] == {"bound": "8"}

    def test_annotation_on_instruction_line(self):
        program = assemble("addi a0, a0, 1   #@ bound 3\n")
        assert program.annotations[0] == {"bound": "3"}

    def test_source_map(self):
        program = assemble("mv a0, a1\n")
        assert "mv" in program.source_map[0]


class TestProgram:
    def test_symbol_lookup_error(self):
        with pytest.raises(AssemblerError):
            Program().symbol("nope")


class TestOverlapDetection:
    def test_overlapping_code_rejected(self):
        with pytest.raises(AssemblerError):
            assemble("nop\n.org 0\nnop\n")
