"""Suite-level differential: capture round trips of finished cold runs.

Every RTOSBench workload runs cold on every core model, on both the
software baseline and a hardware-assisted configuration. The finished
system is then captured and materialized into a fresh one, which must
agree with it on the end-of-run machine state down to the last RAM
byte. This is the acceptance test for the byte-identity contract of
capture/restore in docs/SNAPSHOT.md.
"""

import pytest

from repro.cores import CORE_NAMES
from repro.kernel.builder import KernelBuilder
from repro.rtosunit.config import parse_config
from repro.workloads.suite import RTOSBENCH_WORKLOADS

ITERATIONS = 3
CONFIGS = ("vanilla", "SLT")


def _system_obs(system):
    return {
        "regs": [list(bank) for bank in system.core.banks],
        "pc": system.core.pc,
        "csr": dict(system.core.csr.regs),
        "memory": bytes(system.memory.data),
        "console": list(system.console),
        "probes": list(system.probes),
    }


@pytest.mark.parametrize("config_name", CONFIGS)
@pytest.mark.parametrize("core_name", sorted(CORE_NAMES))
def test_capture_round_trip_byte_identical(core_name, config_name):
    config = parse_config(config_name)
    for factory in RTOSBENCH_WORKLOADS:
        workload = factory(iterations=ITERATIONS)
        builder = KernelBuilder(config=config, objects=workload.objects,
                                tick_period=workload.tick_period)
        system = builder.build(core_name,
                               external_events=workload.external_events)
        assert system.run(workload.max_cycles) in (0, 42)
        clone = system.capture().materialize()
        assert _system_obs(clone) == _system_obs(system), (
            f"{core_name}/{config_name}/{workload.name}: final machine "
            f"state diverged across capture/materialize")
