"""22 nm ASIC cost models: area, maximum frequency, power.

The paper implements every configuration down to chip layout with
commercial EDA tools on a 22 nm node (§6.3). Without an EDA flow, this
package models the same quantities *structurally*: gate-equivalent
component models for everything the RTOSUnit adds (register banks, FSMs,
sorting lists, queues, preload buffer, hazard logic), a critical-path
model for fmax, and a static+dynamic power model driven by activity
counters from the cycle simulation of the same ``mutex_workload`` the
paper uses for its gate-level power analysis.
"""

from repro.asic.area import AreaModel, AreaReport
from repro.asic.frequency import FrequencyModel
from repro.asic.power import PowerModel
from repro.asic.technology import CORE_BASELINES, Technology, TECH_22NM


def cost_summary(core: str, config, run=None,
                 area_model: AreaModel | None = None,
                 freq_model: FrequencyModel | None = None,
                 power_model: PowerModel | None = None) -> dict:
    """All ASIC costs of one design point, as the DSE frontier needs them.

    ``run`` optionally supplies ``mutex_workload`` activity counters for
    the power model (without it the activity term is zero, exactly as in
    :class:`PowerModel`). Returns area overhead [%], fmax drop [%] and
    added power [mW] — all "lower is better".
    """
    area_model = area_model or AreaModel()
    freq_model = freq_model or FrequencyModel()
    power_model = power_model or PowerModel(area_model=area_model)
    return {
        "area": area_model.report(core, config).overhead_percent,
        "fmax_drop": freq_model.report(core, config).drop_percent,
        "power": power_model.report(core, config, run=run).added_mw,
    }


__all__ = [
    "AreaModel",
    "AreaReport",
    "CORE_BASELINES",
    "FrequencyModel",
    "PowerModel",
    "TECH_22NM",
    "Technology",
    "cost_summary",
]
