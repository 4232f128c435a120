"""Functional memory: RAM access, alignment, MMIO routing."""

import pytest

from repro.errors import MemoryError_
from repro.mem.memory import HALT_ADDR, MSIP_ADDR, Memory, is_mmio


class _RecordingMMIO:
    def __init__(self):
        self.writes = []

    def read_mmio(self, addr):
        return 0x5A

    def write_mmio(self, addr, value):
        self.writes.append((addr, value))


class TestRAM:
    def test_initially_zero(self):
        assert Memory(size=64).read(0, 4) == 0

    def test_word_round_trip(self):
        mem = Memory(size=64)
        mem.write(8, 0xDEADBEEF, 4)
        assert mem.read(8, 4) == 0xDEADBEEF

    def test_little_endian_bytes(self):
        mem = Memory(size=64)
        mem.write(0, 0x11223344, 4)
        assert mem.read(0, 1) == 0x44
        assert mem.read(3, 1) == 0x11

    def test_halfword(self):
        mem = Memory(size=64)
        mem.write(4, 0xABCD, 2)
        assert mem.read(4, 2) == 0xABCD

    def test_byte_write_preserves_neighbours(self):
        mem = Memory(size=64)
        mem.write(0, 0xFFFFFFFF, 4)
        mem.write(1, 0, 1)
        assert mem.read(0, 4) == 0xFFFF00FF

    def test_write_masks_value(self):
        mem = Memory(size=64)
        mem.write(0, 0x1FF, 1)
        assert mem.read(0, 1) == 0xFF

    def test_out_of_range_rejected(self):
        mem = Memory(size=64)
        with pytest.raises(MemoryError_):
            mem.read(64, 4)
        with pytest.raises(MemoryError_):
            mem.write(62, 0, 4)

    def test_misaligned_rejected(self):
        mem = Memory(size=64)
        with pytest.raises(MemoryError_):
            mem.read(2, 4)
        with pytest.raises(MemoryError_):
            mem.write(1, 0, 2)

    def test_load_program(self):
        mem = Memory(size=64)
        mem.load_program({0: 0x13, 8: 0xFF})
        assert mem.read_word_raw(0) == 0x13
        assert mem.read_word_raw(8) == 0xFF


class TestMMIO:
    def test_is_mmio(self):
        assert is_mmio(HALT_ADDR)
        assert is_mmio(MSIP_ADDR)
        assert not is_mmio(0x1000)

    def test_mmio_write_routed(self):
        mem = Memory(size=64)
        mem.clint = _RecordingMMIO()
        mem.write(HALT_ADDR, 7, 4)
        assert mem.clint.writes == [(HALT_ADDR, 7)]

    def test_mmio_read_routed(self):
        mem = Memory(size=64)
        mem.clint = _RecordingMMIO()
        assert mem.read(MSIP_ADDR, 4) == 0x5A

    def test_mmio_without_handler_rejected(self):
        mem = Memory(size=64)
        with pytest.raises(MemoryError_):
            mem.read(MSIP_ADDR, 4)
        with pytest.raises(MemoryError_):
            mem.write(MSIP_ADDR, 1, 4)

    def test_raw_access_bypasses_mmio_check_only_for_ram(self):
        mem = Memory(size=64)
        mem.write_word_raw(0, 5)
        assert mem.read_word_raw(0) == 5


def _exercise(mem: Memory) -> None:
    """One raw-write sequence over every bulk and scalar store path."""
    mem.load_blob(bytes(range(256)) * 64)            # 16 KiB blit
    mem.load_blob(b"\x5A" * 64)                      # short blit
    mem.write_words_raw(0x400, list(range(100)))     # long bulk store
    mem.write_words_raw(0x800, [0xDEAD_BEEF, -1])    # negative: masked
    mem.write_words_raw(0xC00, [1 << 40])            # overflow: masked
    mem.write_words_raw(0x2000, [-5] * 40)           # negatives, long
    mem.write_words_raw(0x2800, [1 << 70] * 40)      # past 64 bits
    mem.write_word_raw(0x40, 0x1234_5678)
    for addr, bit in ((0x40, 0), (0x40, 31), (0x404, 7), (0x1000, 13)):
        mem.flip_bit(addr, bit)


def _word(value: int) -> bytes:
    return value.to_bytes(4, "little")


class TestRawStores:
    def test_exercise_leaves_pinned_bytes(self):
        mem = Memory(size=1 << 16)
        _exercise(mem)
        expected = bytearray(1 << 16)
        expected[:0x4000] = bytes(range(256)) * 64
        expected[:64] = b"\x5A" * 64
        expected[0x400:0x590] = b"".join(_word(n) for n in range(100))
        expected[0x800:0x808] = _word(0xDEAD_BEEF) + _word(0xFFFF_FFFF)
        expected[0xC00:0xC04] = _word(0)             # 1 << 40 masked
        expected[0x2000:0x20A0] = _word(0xFFFF_FFFB) * 40  # -5
        expected[0x2800:0x28A0] = _word(0) * 40      # 1 << 70 masked
        expected[0x40:0x44] = _word(0x1234_5678 ^ 1 ^ (1 << 31))
        expected[0x404:0x408] = _word(1 ^ (1 << 7))
        expected[0x1000:0x1004] = _word(0x0302_0100 ^ (1 << 13))
        assert bytes(mem.data) == bytes(expected)

    def test_flip_bit_round_trips(self):
        mem = Memory(size=4096)
        mem.write_word_raw(0x100, 0x0F0F_0F0F)
        before = bytes(mem.data)
        assert mem.flip_bit(0x100, 4) == 0x0F0F_0F1F
        assert bytes(mem.data) != before
        assert mem.flip_bit(0x100, 4) == 0x0F0F_0F0F
        assert bytes(mem.data) == before

    def test_raw_store_and_flip_bit_fire_code_watch(self):
        mem = Memory(size=4096)
        seen = []
        mem.code_watch = lambda addr, nbytes: seen.append((addr, nbytes))
        mem.write_word_raw(0x10, 1)
        mem.flip_bit(0x20, 3)
        assert seen == [(0x10, 4), (0x20, 4)]

    def test_bulk_store_notifies_range_once(self):
        mem = Memory(size=1 << 16)
        ranges = []
        mem.code_watch = lambda addr, nbytes: ranges.append((addr, nbytes))
        mem.write_words_raw(0x200, list(range(64)))
        assert ranges == [(0x200, 256)]
        mem.write_words_raw(0x800, [1, 2])
        assert ranges == [(0x200, 256), (0x800, 8)]

    def test_bulk_store_bounds_and_alignment_checked(self):
        mem = Memory(size=4096)
        with pytest.raises(MemoryError_):
            mem.write_words_raw(4092, [1, 2])
        with pytest.raises(MemoryError_):
            mem.write_words_raw(-4, [1])
        with pytest.raises(MemoryError_):
            mem.write_words_raw(0x102, [1, 2])
        assert bytes(mem.data) == bytes(4096)

    def test_load_blob_bounds_checked(self):
        mem = Memory(size=4096)
        with pytest.raises(MemoryError_):
            mem.load_blob(b"\x00" * 8192)
