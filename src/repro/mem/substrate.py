"""NumPy execution substrate: one gate, one shared-buffer view helper.

The simulator's byte-level hot paths (snapshot page scans, bulk blob
loads and word stores) are vectorised with NumPy when it is importable
and ``REPRO_NUMPY`` is not switched off. Everything else — and every
machine without NumPy — runs the original ``bytearray`` code,
and the two backends are held byte-identical by differential tests
(``tests/mem``, ``tests/snapshot``).

Design note: RAM storage itself stays a ``bytearray``. Scalar word
accesses through the buffer protocol are measurably faster on
``bytearray`` than on ``ndarray`` slices, and the block interpreter's
inlined load/store fast path indexes ``mem.data`` directly. The NumPy
backend therefore works on *views*: ``numpy.frombuffer(bytearray)``
yields a writable ``uint8`` array sharing the same storage, so the
vectorised paths and the scalar paths can interleave freely without a
copy or a coherence step.
"""

from __future__ import annotations

import os

try:  # pragma: no cover - exercised via both branches in CI
    import numpy as _np
except ImportError:  # pragma: no cover
    _np = None


def _env_enabled() -> bool:
    return os.environ.get("REPRO_NUMPY", "1") not in ("0", "false", "off", "no")


def numpy_enabled() -> bool:
    """True when the NumPy substrate is importable and not gated off.

    Read at call time (not cached) so tests and CI matrices can toggle
    ``REPRO_NUMPY`` per-process without re-importing the world.
    """
    return _np is not None and _env_enabled()


def get_numpy():
    """The ``numpy`` module when the substrate is enabled, else ``None``."""
    return _np if numpy_enabled() else None


def byte_view(buffer):
    """Writable ``uint8`` view sharing storage with *buffer*, or ``None``.

    ``buffer`` is any writable buffer-protocol object (``bytearray``,
    ``memoryview``). Mutations through the view are visible to the
    original object and vice versa — this is the bridge that lets the
    vectorised paths coexist with scalar ``bytearray`` accesses.
    """
    np = get_numpy()
    if np is None:
        return None
    return np.frombuffer(buffer, dtype=np.uint8)
