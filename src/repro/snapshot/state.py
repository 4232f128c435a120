"""The system checkpoint: every piece of simulated state, restorable.

A :class:`SystemSnapshot` is assembled by
:meth:`repro.cores.system.System.capture` from the ``capture_state``
methods distributed across the component models (core, CSR file,
caches, predictor, CLINT, memory timeline, RTOSUnit, scheduler,
hardware sync) plus a copy-on-write memory image
(:mod:`repro.snapshot.pages`).

Restores are strictly **in place**: the block interpreter
(:mod:`repro.cores.blocks`) hoists direct references to ``mem.data``,
``reg_avail``, ``stats``, the decode cache and the block ``addr_map``
into its executors, so a restore must mutate those objects rather than
replace them — ``restore_state`` implementations use slice assignment
and ``dict.clear()/update()`` throughout. ``materialize()`` builds a
fresh :class:`System` from the recorded constructor arguments and
restores into it, giving an isolated system that is byte-identical to
the captured one.

No production run reads a checkpoint; the capture/restore round trip
is held byte-identical by ``tests/snapshot`` (docs/SNAPSHOT.md says why
the code stays).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.snapshot.pages import MemoryImage


@dataclass
class SystemSnapshot:
    """One checkpoint of a :class:`repro.cores.system.System`.

    The first five fields are the system's constructor arguments
    (needed by :meth:`materialize`); the rest is captured state.
    ``external_events`` are not recorded separately — the CLINT state
    carries the not-yet-delivered tail of the event queue.
    """

    core_class: type
    config: object
    layout: object
    tick_period: int
    mem_size: int
    memory_image: MemoryImage
    core_state: dict
    timeline_state: tuple
    clint_state: tuple
    unit_state: dict | None
    console: tuple[str, ...] = ()
    probes: tuple = ()
    restores: int = field(default=0, compare=False)

    def materialize(self):
        """Build a fresh, isolated system in this snapshot's exact state."""
        from repro.cores.system import System

        system = System(self.core_class, self.config, layout=self.layout,
                        tick_period=self.tick_period, mem_size=self.mem_size)
        system.restore(self)
        return system
