"""Maximum-frequency model (Figure 11).

The paper fixes the synthesis target at each unmodified core's fmax and
reports RTOSUnit timing overheads as negative setup slack → fmax drops.
The observed pattern: ≈15 % drop on CV32E40P for every RTOSUnit
configuration (the added RF mux and custom-instruction decode sit on the
short critical path of a small core) but *not* for CV32RT (snapshotting
adds no mux in the read path); ≈8 % on CVA6 across configurations; no
drop on NaxRiscv except ≈4 % for SPLIT (the lockstep preload-swap path).

We model this as per-core added path delay, converted to an fmax ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.asic.technology import CORE_BASELINES, CoreBaseline
from repro.errors import ConfigurationError
from repro.rtosunit.config import EVALUATED_CONFIGS, RTOSUnitConfig, parse_config


@dataclass(frozen=True)
class FmaxReport:
    core: str
    config: str
    baseline_ghz: float
    fmax_ghz: float

    @property
    def drop_percent(self) -> float:
        return (1.0 - self.fmax_ghz / self.baseline_ghz) * 100.0


class FrequencyModel:
    """Critical-path delay additions per core and feature."""

    def __init__(self, baselines: dict[str, CoreBaseline] | None = None):
        self.baselines = baselines or CORE_BASELINES

    def _added_delay_fraction(self, core: CoreBaseline,
                              config: RTOSUnitConfig) -> float:
        if config.is_vanilla:
            return 0.0
        if core.name == "cv32e40p":
            # The RF-bank mux + custom-instruction decode lengthen the
            # short critical path of the 4-stage core — except for
            # CV32RT, whose snapshot port sits off the read path.
            return 0.0 if config.cv32rt else 0.15 / 0.85
        if core.name == "cva6":
            return 0.08 / 0.92
        if core.name == "naxriscv":
            # The deep OoO pipeline absorbs the added muxes; only the
            # preload swap path (write port sharing) shows up.
            return 0.04 / 0.96 if config.preload else 0.0
        raise ConfigurationError(f"no fmax model for core {core.name!r}")

    def report(self, core: str, config: RTOSUnitConfig) -> FmaxReport:
        try:
            baseline = self.baselines[core]
        except KeyError:
            raise ConfigurationError(f"unknown core {core!r}") from None
        delay_fraction = self._added_delay_fraction(baseline, config)
        fmax = baseline.fmax_ghz / (1.0 + delay_fraction)
        return FmaxReport(core=core, config=config.name,
                          baseline_ghz=baseline.fmax_ghz, fmax_ghz=fmax)

    def figure11(self, cores=None, configs=EVALUATED_CONFIGS):
        cores = cores or tuple(self.baselines)
        return {
            (core, name): self.report(core, parse_config(name))
            for core in cores
            for name in configs
        }
