"""Unit tests for the copy-on-write page image layer."""

import random

import pytest

from repro.snapshot.pages import (
    _ZERO_PAGE,
    PAGE_SIZE,
    capture_image,
    restore_image,
)


def _ram(size=4 * PAGE_SIZE):
    data = bytearray(size)
    data[100:104] = b"\x01\x02\x03\x04"
    data[PAGE_SIZE + 8:PAGE_SIZE + 12] = b"\xAA\xBB\xCC\xDD"
    return data


def test_round_trip():
    data = _ram()
    image = capture_image(data)
    blank = bytearray(len(data))
    dirty = restore_image(blank, image)
    assert blank == data
    # Only the two non-zero pages needed writing.
    assert [start for start, _ in dirty] == [0, PAGE_SIZE]


def test_zero_pages_are_interned():
    a = capture_image(bytearray(3 * PAGE_SIZE))
    b = capture_image(bytearray(3 * PAGE_SIZE))
    # Independent captures of all-zero RAM share one page object.
    assert len({id(p) for p in a.pages + b.pages}) == 1
    assert a.unique_bytes() == PAGE_SIZE


def test_recapture_shares_clean_pages_with_base():
    data = _ram()
    base = capture_image(data)
    data[PAGE_SIZE + 8] ^= 0xFF  # dirty exactly one page
    image = capture_image(data, base)
    assert image.shared_pages(base) == len(base.pages) - 1
    assert image.pages[0] is base.pages[0]
    assert image.pages[1] is not base.pages[1]


def test_restore_after_capture_touches_nothing():
    data = _ram()
    image = capture_image(data)
    assert restore_image(data, image) == []


def test_restore_reports_only_dirty_pages():
    data = _ram()
    image = capture_image(data)
    data[2 * PAGE_SIZE + 4] = 0x5A
    dirty = restore_image(data, image)
    assert dirty == [(2 * PAGE_SIZE, PAGE_SIZE)]
    assert data == _ram()


def test_size_mismatch_rejected():
    image = capture_image(bytearray(2 * PAGE_SIZE))
    with pytest.raises(ValueError):
        restore_image(bytearray(3 * PAGE_SIZE), image)


def test_partial_tail_page():
    data = bytearray(PAGE_SIZE + 100)
    data[-1] = 7
    image = capture_image(data)
    assert len(image.pages[-1]) == 100
    blank = bytearray(len(data))
    restore_image(blank, image)
    assert blank == data


def test_cleared_page_interns_back_to_zero_page():
    data = bytearray(4 * PAGE_SIZE)
    data[PAGE_SIZE + 3] = 0x7F
    image = capture_image(data)
    # Three all-zero pages intern to one page object...
    assert sum(1 for page in image.pages if page is _ZERO_PAGE) == 3
    # ...so distinct storage is one zero page + one payload page.
    assert image.unique_bytes() == 2 * PAGE_SIZE

    # Clearing the payload page makes a fully-interned image whose
    # unique storage is the single shared zero page.
    data[PAGE_SIZE + 3] = 0
    cleared = capture_image(data, image)
    assert cleared.pages[1] is _ZERO_PAGE
    assert cleared.unique_bytes() == PAGE_SIZE
    assert cleared.shared_pages(image) == 3


def test_unchanged_recapture_shares_every_page():
    data = bytearray(3 * PAGE_SIZE)
    data[10:20] = b"\xEE" * 10
    first = capture_image(data)
    second = capture_image(data, first)
    assert second.shared_pages(first) == 3
    assert second.unique_bytes() == first.unique_bytes()


NPAGES = 6


def _mutate(data: bytearray, rng: random.Random) -> None:
    """A few writes of varied shapes: words, spans, page clears."""
    for _ in range(rng.randrange(1, 6)):
        kind = rng.randrange(3)
        if kind == 0:  # word poke
            addr = rng.randrange(0, len(data) - 4)
            data[addr:addr + 4] = rng.randbytes(4)
        elif kind == 1:  # multi-page span
            start = rng.randrange(0, len(data) // 2)
            span = min(rng.randrange(1, 2 * PAGE_SIZE), len(data) - start)
            data[start:start + span] = bytes([rng.randrange(256)]) * span
        else:  # clear a whole page back to zero
            page = rng.randrange(NPAGES)
            data[page * PAGE_SIZE:(page + 1) * PAGE_SIZE] = _ZERO_PAGE


def _pages(data: bytearray) -> list:
    return [bytes(data[start:start + PAGE_SIZE])
            for start in range(0, len(data), PAGE_SIZE)]


@pytest.mark.parametrize("seed", (0, 1, 2, 3))
def test_capture_restore_history_matches_page_model(seed):
    """Seeded mutation histories against a page-by-page model: each
    capture holds the live bytes, shares exactly the unchanged pages
    with its base, and interns exactly the all-zero pages; restoring
    the first capture rewrites exactly the pages that differ."""
    rng = random.Random(seed)
    data = bytearray(NPAGES * PAGE_SIZE)
    history = []
    for _ in range(4):
        _mutate(data, rng)
        base = history[-1] if history else None
        image = capture_image(data, base)
        pages = _pages(data)
        assert list(image.pages) == pages
        zero = [page == _ZERO_PAGE for page in pages]
        assert [page is _ZERO_PAGE for page in image.pages] == zero
        nonzero = zero.count(False)
        assert image.unique_bytes() == PAGE_SIZE * (nonzero + any(zero))
        if base is not None:
            assert image.shared_pages(base) == sum(
                old == new for old, new in zip(base.pages, pages))
        history.append(image)

    first = history[0]
    expected_dirty = [(index * PAGE_SIZE, PAGE_SIZE)
                      for index, (old, new) in
                      enumerate(zip(first.pages, _pages(data)))
                      if old != new]
    assert restore_image(data, first) == expected_dirty
    assert bytes(data) == b"".join(first.pages)
    assert restore_image(data, first) == []
    assert capture_image(data, first).shared_pages(first) == NPAGES
