"""Cache timing models.

CVA6 uses a write-through data cache and the paper arbitrates RTOSUnit
memory at the *bus level* for it (§5.2), while NaxRiscv uses a write-back
cache that the RTOSUnit *shares* via the extended LSU (§5.3). Only timing
is modelled — functional data always lives in :class:`repro.mem.memory.Memory`
(the simulated system is single-master at any instant, per the paper's
exclusive-access argument for the context region).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError


@dataclass
class CacheModel:
    """A set-associative cache timing model with LRU replacement.

    ``lookup`` returns True on hit and updates state; misses allocate.
    """

    size_bytes: int = 16 * 1024
    line_bytes: int = 32
    ways: int = 4
    write_allocate: bool = True
    sets: int = field(init=False)
    _lines: dict[int, list[int]] = field(init=False, repr=False)
    hits: int = 0
    misses: int = 0

    def __post_init__(self) -> None:
        if self.size_bytes % (self.line_bytes * self.ways):
            raise ConfigurationError("cache size must divide into ways*lines")
        self.sets = self.size_bytes // (self.line_bytes * self.ways)
        self._lines = {}

    def _set_index(self, addr: int) -> tuple[int, int]:
        line = addr // self.line_bytes
        return line % self.sets, line

    def lookup(self, addr: int, is_write: bool) -> bool:
        """Access *addr*; return True on hit. Allocates per policy.

        A hit on the set's most-recently-used way (the back of its list)
        leaves the LRU order as it is, so it returns before any list
        surgery. The block executors inline the same early-out and call
        here for everything else.
        """
        line = addr // self.line_bytes
        index = line % self.sets
        ways = self._lines.get(index)
        if ways and ways[-1] == line:
            self.hits += 1
            return True
        if ways is None:
            ways = self._lines[index] = []
        if line in ways:
            ways.remove(line)
            ways.append(line)  # most-recently used at the back
            self.hits += 1
            return True
        self.misses += 1
        if not is_write or self.write_allocate:
            ways.append(line)
            if len(ways) > self.ways:
                ways.pop(0)
        return False

    def contains(self, addr: int) -> bool:
        index, line = self._set_index(addr)
        return line in self._lines.get(index, [])

    def invalidate_line(self, addr: int) -> None:
        """Explicitly invalidate the line holding *addr* (CV32RT on
        NaxRiscv invalidates the bypassed snapshot line, §6)."""
        index, line = self._set_index(addr)
        ways = self._lines.get(index)
        if ways and line in ways:
            ways.remove(line)

    # -- snapshot/restore (repro.snapshot) -----------------------------------

    def capture_state(self) -> tuple:
        return ({index: list(ways) for index, ways in self._lines.items()},
                self.hits, self.misses)

    def restore_state(self, state: tuple) -> None:
        lines, self.hits, self.misses = state
        self._lines.clear()
        for index, ways in lines.items():
            self._lines[index] = list(ways)


@dataclass
class WriteThroughCache(CacheModel):
    """Write-through, no write-allocate — CVA6's D$ flavour."""

    write_allocate: bool = False


@dataclass
class WriteBackCache(CacheModel):
    """Write-back, write-allocate — NaxRiscv's D$ flavour.

    Dirty-line writebacks are folded into the miss penalty; the timing
    models charge ``miss_penalty`` per refill.
    """

    write_allocate: bool = True
