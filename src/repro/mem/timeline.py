"""Cycle-granular bookkeeping of the shared memory port (§4.2, opt. 2).

The paper removes the need for a second memory port by arbitrating a
single port between the processor (priority) and the RTOSUnit, which uses
the processor's dead/idle cycles. The core model runs ahead instruction by
instruction and marks the cycles in which it occupies the port; the
RTOSUnit FSMs then *consume* free cycles in order.

Because the core has absolute priority, RTOSUnit completion times can be
evaluated lazily: they are only observed at core events (``SWITCH_RF``,
``mret``, interrupt entry), at which point the core-side occupancy up to
that cycle is fully known, and any cycles the core spends *stalled waiting
for the RTOSUnit* are free by construction.
"""

from __future__ import annotations

from collections import deque

_INF = float("inf")


class MemoryTimeline:
    """Tracks core-busy cycles and hands free cycles to the RTOSUnit.

    Core-busy cycles must be marked in non-decreasing order (the core
    timing models naturally do this). The RTOSUnit consumes free cycles in
    non-decreasing order too, so a single forward scan suffices.
    """

    def __init__(self, *, consumed: bool = True) -> None:
        self._busy: deque[int] = deque()
        #: Next cycle the RTOSUnit may consider. A timeline that nothing
        #: consumes (a system without an RTOSUnit) keeps this fence at
        #: infinity, so its marks are counted but never queued.
        self._consumed = consumed
        self._scan = 0 if consumed else _INF
        self._last_marked = -1
        self.core_cycles = 0
        self.unit_cycles = 0

    def mark_core_busy(self, cycle: int) -> None:
        """Record that the core occupies the port during *cycle*."""
        if cycle < self._last_marked:
            # Out-of-order marks can happen when an OoO core commits a
            # memory operation late; clamp to keep the scan monotonic.
            cycle = self._last_marked
        self._last_marked = cycle
        if cycle >= self._scan:
            self._busy.append(cycle)
        self.core_cycles += 1

    def consume_free(self, start: int, count: int) -> int:
        """Consume *count* free cycles at or after *start*.

        Returns the cycle in which the last of the *count* transfers
        completes. Cycles beyond all marked core activity are treated as
        free — valid because completion is only queried when the core is
        stalled (issuing no memory traffic) or the marks are up to date.
        """
        if count <= 0:
            return max(start, self._scan) - 1
        cycle = max(start, self._scan)
        busy = self._busy
        popleft = busy.popleft
        remaining = count
        while True:
            while busy and busy[0] < cycle:
                popleft()
            if not busy:
                # Nothing marked ahead: the rest of the run is free.
                cycle += remaining
                self.unit_cycles += remaining
                break
            b = busy[0]
            if b == cycle:
                popleft()
                cycle += 1
                continue
            # ``[cycle, b)`` is a free run — consume it in one step.
            free = b - cycle
            if free >= remaining:
                cycle += remaining
                self.unit_cycles += remaining
                break
            cycle = b
            self.unit_cycles += free
            remaining -= free
        self._scan = cycle
        return cycle - 1

    def consume_free_until(self, start: int, count: int,
                           deadline: int) -> int | None:
        """Consume up to *count* free cycles in ``[start, deadline]``.

        Returns the completion cycle when all *count* transfers fit, or
        None when the deadline hits first — in which case only the free
        cycles up to the deadline are consumed (the FSM really did use
        them) and the scan stops at the deadline.
        """
        if count <= 0:
            return max(start, self._scan) - 1
        cycle = max(start, self._scan)
        busy = self._busy
        popleft = busy.popleft
        remaining = count
        while remaining and cycle <= deadline:
            while busy and busy[0] < cycle:
                popleft()
            if busy and busy[0] == cycle:
                popleft()
                cycle += 1
                continue
            # Free run up to the next busy mark or the deadline fence.
            limit = busy[0] if busy else deadline + 1
            if limit > deadline + 1:
                limit = deadline + 1
            free = limit - cycle
            if free >= remaining:
                cycle += remaining
                self.unit_cycles += remaining
                remaining = 0
                break
            cycle = limit
            self.unit_cycles += free
            remaining -= free
        self._scan = cycle
        return None if remaining else cycle - 1

    def capture_state(self) -> tuple:
        """Snapshot the port bookkeeping (repro.snapshot).

        Only the live tail of the busy queue (``>= _scan``) is kept —
        entries below the scan point are popped unread by
        ``consume_free`` anyway.
        """
        busy = tuple(c for c in self._busy if c >= self._scan)
        return (busy, self._scan, self._last_marked,
                self.core_cycles, self.unit_cycles)

    def restore_state(self, state: tuple) -> None:
        """Restore in place — the object identity is shared with the
        core and RTOSUnit, so the timeline is mutated, never replaced."""
        busy, self._scan, self._last_marked, cc, uc = state
        self._busy.clear()
        self._busy.extend(busy)
        self.core_cycles = cc
        self.unit_cycles = uc

    def reset(self) -> None:
        self._busy.clear()
        self._scan = 0 if self._consumed else _INF
        self._last_marked = -1
        self.core_cycles = 0
        self.unit_cycles = 0
