"""Power model (Figure 13).

The paper derives average power from gate-level simulation of the
``mutex_workload`` test at 500 MHz on the implemented layouts, reporting
average draw over the full workload (§6.3) and observing a strong
area↔power correlation driven by static power at 22 nm.

This model decomposes added power into:

* **static** — leakage proportional to added area,
* **clock** — the clock tree and idle toggling of added sequential
  logic, proportional to added kGE (with a per-core scale reflecting the
  wider datapaths and deeper clock trees of the larger cores),
* **activity** — energy per context word the RTOSUnit actually moves and
  per scheduler operation, taken from the *simulated* ``mutex_workload``
  activity counters, so the figure is regenerated from the same workload
  the paper uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asic.area import AreaModel
from repro.asic.technology import CORE_BASELINES, TECH_22NM
from repro.errors import ConfigurationError
from repro.rtosunit.config import RTOSUnitConfig

#: Leakage density at the 22 nm node (LVT-heavy embedded libraries).
STATIC_MW_PER_MM2 = 150.0
#: Clock/idle toggle power of added sequential logic at 500 MHz.
CLOCK_MW_PER_KGE = 0.055
#: Energy per context word moved by the RTOSUnit FSMs.
WORD_ENERGY_PJ = 1.2
#: Energy per hardware scheduler operation (insert/remove/sort step).
SCHED_OP_ENERGY_PJ = 3.0
#: Per-core power scale for added logic (datapath width, clock tree).
POWER_SCALE = {"cv32e40p": 1.4, "cva6": 3.5, "naxriscv": 3.5}
FREQ_HZ = 500e6


@dataclass(frozen=True)
class PowerReport:
    core: str
    config: str
    baseline_mw: float
    static_mw: float
    clock_mw: float
    activity_mw: float

    @property
    def added_mw(self) -> float:
        return self.static_mw + self.clock_mw + self.activity_mw

    @property
    def total_mw(self) -> float:
        return self.baseline_mw + self.added_mw

    @property
    def increase_percent(self) -> float:
        return self.added_mw / self.baseline_mw * 100.0


class PowerModel:
    """Computes Figure 13 datapoints at 500 MHz."""

    def __init__(self, area_model: AreaModel | None = None):
        self.area_model = area_model or AreaModel()

    def report(self, core: str, config: RTOSUnitConfig,
               run=None) -> PowerReport:
        """Power for one design point.

        ``run`` is an optional :class:`~repro.harness.experiment.RunResult`
        of ``mutex_workload`` providing the activity counters; without
        it the activity term is zero (area-only estimate).
        """
        baseline = CORE_BASELINES.get(core)
        if baseline is None:
            raise ConfigurationError(f"unknown core {core!r}")
        area = self.area_model.report(core, config)
        scale = POWER_SCALE[core]
        static = TECH_22NM.ge_to_mm2(area.added_kge * 1e3) * STATIC_MW_PER_MM2
        clock = area.added_kge * CLOCK_MW_PER_KGE
        activity = 0.0
        if run is not None and run.unit_stats is not None:
            stats = run.unit_stats
            words = (stats.words_stored + stats.words_loaded
                     + stats.words_preloaded)
            word_rate = words / max(run.cycles, 1)
            op_rate = stats.sched_ops / max(run.cycles, 1)
            activity = (word_rate * WORD_ENERGY_PJ
                        + op_rate * SCHED_OP_ENERGY_PJ) * 1e-12 * FREQ_HZ * 1e3
        return PowerReport(core=core, config=config.name,
                           baseline_mw=baseline.baseline_power_mw_500mhz,
                           static_mw=static * scale,
                           clock_mw=clock * scale,
                           activity_mw=activity * scale)
