"""Copy-on-write memory images.

RAM is captured as a tuple of immutable ``bytes`` pages. Sharing is by
object identity: a capture compares each page of the live ``bytearray``
against the previous image of the same memory (``memoryview`` equality,
no copies) and re-uses the old page object when the content is
unchanged, so consecutive snapshots of one system — and any number of
systems restored from one snapshot — share every clean page and pay
only for dirty ones. All-zero pages collapse onto a single interned
zero page, which keeps images of a mostly-empty 1 MiB RAM small.

A restore is the mirror image: only pages whose content differs are
blitted back, and the differing ranges are returned so the caller can
invalidate decode/block caches in lockstep (the restore-side half of
the ``invalidate_code`` contract in :mod:`repro.cores.base`).
"""

from __future__ import annotations

PAGE_SIZE = 4096

_ZERO_PAGE = bytes(PAGE_SIZE)


class MemoryImage:
    """An immutable snapshot of one RAM, as shared pages."""

    __slots__ = ("pages", "size")

    def __init__(self, pages: tuple[bytes, ...], size: int):
        self.pages = pages
        self.size = size

    def __eq__(self, other) -> bool:
        return (isinstance(other, MemoryImage)
                and self.size == other.size and self.pages == other.pages)

    def __hash__(self):
        return hash((self.size, self.pages))

    def shared_pages(self, other: "MemoryImage") -> int:
        """Pages shared *by identity* with ``other`` (CoW accounting)."""
        return sum(1 for a, b in zip(self.pages, other.pages) if a is b)

    def unique_bytes(self) -> int:
        """Bytes of distinct page storage backing this image."""
        return sum(len(page) for page in {id(p): p for p in self.pages}.values())


def capture_image(data: bytearray, base: MemoryImage | None = None) -> MemoryImage:
    """Snapshot *data*, sharing unchanged pages with *base* by identity."""
    size = len(data)
    view = memoryview(data)
    base_pages = (base.pages if base is not None and base.size == size
                  else None)
    pages = []
    for index in range(0, size, PAGE_SIZE):
        chunk = view[index:index + PAGE_SIZE]
        if base_pages is not None:
            old = base_pages[index // PAGE_SIZE]
            if chunk == old:
                pages.append(old)
                continue
        # memcmp against the interned zero page: one C-level compare,
        # and a hit interns the page with zero storage cost.
        if len(chunk) == PAGE_SIZE and chunk == _ZERO_PAGE:
            pages.append(_ZERO_PAGE)
        else:
            pages.append(bytes(chunk))
    return MemoryImage(tuple(pages), size)


def restore_image(data: bytearray, image: MemoryImage) -> list[tuple[int, int]]:
    """Blit *image* into *data* in place; returns dirty ``(start, nbytes)``.

    Only pages whose live content differs are written (and reported), so
    a restore right after a capture touches nothing and code caches stay
    warm. The caller must invalidate decode/block caches over the
    returned ranges.
    """
    if len(data) != image.size:
        raise ValueError(
            f"image of {image.size:#x} bytes does not fit RAM of "
            f"{len(data):#x} bytes")
    view = memoryview(data)
    dirty = []
    for index, page in enumerate(image.pages):
        start = index * PAGE_SIZE
        chunk = view[start:start + len(page)]
        if chunk != page:
            chunk[:] = page
            dirty.append((start, len(page)))
    return dirty
