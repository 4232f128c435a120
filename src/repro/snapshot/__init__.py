"""System checkpoints: capture and restore (docs/SNAPSHOT.md).

Two layers, composed by :meth:`repro.cores.system.System.capture` and
:meth:`repro.cores.system.System.restore`:

* :mod:`repro.snapshot.pages` — copy-on-write memory images. A capture
  splits RAM into immutable pages and re-uses the page objects of the
  previous image wherever the content is unchanged, so N snapshots of
  one system (and N systems restored from one snapshot) share clean
  pages and only dirty pages are duplicated.
* :mod:`repro.snapshot.state` — :class:`SystemSnapshot`, the
  checkpoint of one :class:`repro.cores.system.System`: core
  architectural state, register banks, RTOSUnit/scheduler state,
  pending transfers and interrupt sources, plus the memory image.
  ``materialize()`` rebuilds a byte-identical live system.

No production run reads a checkpoint: :func:`repro.harness.run_workload`
always simulates cold. The kernel *build* cache (assembled words
memoized per source) lives with the builder in
:mod:`repro.kernel.builder`.
"""

from repro.snapshot.pages import PAGE_SIZE, MemoryImage, capture_image, restore_image
from repro.snapshot.state import SystemSnapshot

__all__ = [
    "MemoryImage",
    "PAGE_SIZE",
    "SystemSnapshot",
    "capture_image",
    "restore_image",
]
