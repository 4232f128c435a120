"""Cycle-level models of the three evaluated RISC-V cores.

* :class:`repro.cores.cv32e40p.CV32E40P` — microcontroller-class 4-stage
  in-order pipeline, no caches (§5.1).
* :class:`repro.cores.cva6.CVA6` — application-class 6-stage pipeline,
  in-order issue with out-of-order write-back, write-through D$, bus-level
  RTOSUnit arbitration (§5.2).
* :class:`repro.cores.naxriscv.NaxRiscv` — superscalar out-of-order core
  with register renaming and speculation; the RTOSUnit shares the
  write-back D$ through the extended LSU (ctxQueue, §5.3).
"""

from repro.cores.base import BaseCore, CoreParams
from repro.cores.blocks import BlockEngine
from repro.cores.clint import Clint
from repro.cores.cv32e40p import CV32E40P
from repro.cores.cva6 import CVA6
from repro.cores.naxriscv import NaxRiscv
from repro.cores.system import System, build_system

CORE_CLASSES = {
    "cv32e40p": CV32E40P,
    "cva6": CVA6,
    "naxriscv": NaxRiscv,
}

CORE_NAMES = tuple(CORE_CLASSES)

__all__ = [
    "BaseCore",
    "BlockEngine",
    "CORE_CLASSES",
    "CORE_NAMES",
    "CVA6",
    "CV32E40P",
    "Clint",
    "CoreParams",
    "NaxRiscv",
    "System",
    "build_system",
]

from repro.cores.tracing import Tracer, attach_tracer, format_switch_timeline  # noqa: E402

__all__ += ["Tracer", "attach_tracer", "format_switch_timeline"]
