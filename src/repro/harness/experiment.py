"""Experiment drivers: one workload, the whole suite, or a full sweep.

Every run carries an explicit ``seed``. The cycle simulation itself is
deterministic, so the seed never perturbs latencies; it exists so that
(a) stochastic workload variants have a single well-defined entropy
source, (b) every result records which grid point it answers — the DSE
result cache and the service address runs by content *without* the
seed, and stamp each point's own seed onto the shared result — and
(c) serial and parallel executions of the same grid derive identical
per-run seeds from the *grid position* rather than from execution
order — which is what makes ``--jobs 1`` and ``--jobs N`` exports
byte-identical.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

from repro.cores import CORE_NAMES
from repro.errors import ConfigurationError, SimulationError
from repro.harness.metrics import LatencyStats
from repro.kernel.builder import KernelBuilder
from repro.mem.regions import MemoryLayout
from repro.rtosunit.config import EVALUATED_CONFIGS, RTOSUnitConfig
from repro.workloads import RTOSBENCH_WORKLOADS, Workload


def derive_point_seed(seed: int, core: str, config_name: str,
                      workload_name: str) -> int:
    """Stable 32-bit per-run seed for one grid point.

    CRC32-based (not ``hash``) so it is independent of
    ``PYTHONHASHSEED``, the execution order, and the process that
    computes it — the anchor of serial/parallel byte-identity.
    """
    text = f"{core}:{config_name}:{workload_name}"
    return (seed * 0x9E3779B1 + zlib.crc32(text.encode())) & 0xFFFFFFFF


@dataclass
class RunResult:
    """Outcome of one (core, config, workload) simulation."""

    core: str
    config: RTOSUnitConfig
    workload: str
    latencies: list[int]
    stats: LatencyStats
    switches: list
    cycles: int
    instret: int
    core_stats: object
    unit_stats: object | None
    seed: int = 0

    @property
    def config_name(self) -> str:
        return self.config.name

    @property
    def breakdown(self):
        """Response/ISR decomposition of this run's switches."""
        from repro.harness.metrics import LatencyBreakdown

        return LatencyBreakdown.from_switches(self.switches)


@dataclass
class SuiteResult:
    """All workloads for one (core, config): the paper's Fig. 9 datapoint."""

    core: str
    config: RTOSUnitConfig
    runs: list[RunResult] = field(default_factory=list)

    @property
    def all_latencies(self) -> list[int]:
        samples: list[int] = []
        for run in self.runs:
            samples.extend(run.latencies)
        return samples

    @property
    def stats(self) -> LatencyStats:
        return LatencyStats.from_samples(self.all_latencies)

    @property
    def breakdown(self):
        """Response/ISR decomposition across all runs."""
        from repro.harness.metrics import LatencyBreakdown

        switches = [s for run in self.runs for s in run.switches]
        return LatencyBreakdown.from_switches(switches)

    def run_named(self, workload: str) -> RunResult:
        for run in self.runs:
            if run.workload == workload:
                return run
        raise SimulationError(f"no run for workload {workload!r}")


def _result_from(system, core: str, config: RTOSUnitConfig,
                 workload: Workload, seed: int) -> RunResult:
    """Distil a finished system into a RunResult."""
    switches = system.switches[workload.warmup_switches:]
    latencies = [s.latency for s in switches]
    return RunResult(
        core=core,
        config=config,
        workload=workload.name,
        latencies=latencies,
        stats=LatencyStats.from_samples(latencies),
        switches=switches,
        cycles=system.core.cycle,
        instret=system.core.stats.instret,
        core_stats=system.core.stats,
        unit_stats=system.unit.stats if system.unit else None,
        seed=seed,
    )


def run_workload(core: str, config: RTOSUnitConfig, workload: Workload,
                 layout: MemoryLayout | None = None,
                 guard=None, seed: int = 0) -> RunResult:
    """Simulate one workload and return its latency distribution.

    ``guard`` optionally attaches a hang-proof watchdog
    (:class:`repro.faults.guards.ProgressGuard`); a livelocked workload
    then fails with a structured error instead of spinning to the
    ``max_cycles`` wall. ``seed`` is only recorded on the result; the
    simulation itself is deterministic, so the DSE cache and the service
    share one result among all seeds of a content.

    Every call simulates from a freshly built system. Repeats of a
    content are answered above this function, by the DSE
    :class:`repro.dse.cache.ResultCache` and the service coalescer. The
    system is released (:meth:`System.release`) before the call
    returns or raises, so reference counting frees it at once.
    """
    builder = KernelBuilder(config=config, objects=workload.objects,
                            layout=layout or MemoryLayout(),
                            tick_period=workload.tick_period)
    system = builder.build(core, external_events=workload.external_events)
    try:
        if guard is not None:
            system.core.guard = guard
        exit_code = system.run(max_cycles=workload.max_cycles)
        if exit_code not in (0, 42):
            raise SimulationError(
                f"workload {workload.name} on {core}/{config.name} exited "
                f"with {exit_code:#x}",
                pc=system.core.pc, cycle=system.core.cycle)
        return _result_from(system, core, config, workload, seed)
    finally:
        system.release()


def _resolve_workloads(workloads, iterations: int) -> list[Workload]:
    """Materialize :func:`run_suite`'s workloads, calling each factory once.

    Entries may be factories, prebuilt :class:`Workload` instances, or
    workload *names* — including canonical ``fuzz:`` scenario names,
    which resolve through :func:`repro.workloads.workload_by_name`.
    ``None`` means the RTOSBench suite.
    """
    from repro.workloads import workload_by_name

    factories = workloads if workloads is not None else RTOSBENCH_WORKLOADS
    resolved = []
    for factory in factories:
        if isinstance(factory, str):
            resolved.append(workload_by_name(factory, iterations))
        elif callable(factory):
            resolved.append(factory(iterations))
        else:
            resolved.append(factory)
    return resolved


def run_suite(core: str, config: RTOSUnitConfig, iterations: int = 20,
              workloads=None, seed: int = 0) -> SuiteResult:
    """Run all (or the given) workload factories for one design point.

    Each run's seed is derived from (*seed*, grid position) via
    :func:`derive_point_seed`, never from execution order.
    """
    suite = SuiteResult(core=core, config=config)
    for workload in _resolve_workloads(workloads, iterations):
        suite.runs.append(run_workload(
            core, config, workload,
            seed=derive_point_seed(seed, core, config.name, workload.name)))
    return suite


def _grid_workload_names(workloads, iterations: int) -> list[str]:
    """Names of *workloads*, from which the executor rebuilds them.

    The process-pool executor rebuilds workloads by name inside worker
    processes, which works for registered factories and for workload
    names — including canonical ``fuzz:`` scenario names, whose specs
    regenerate the exact workload anywhere. Ad-hoc factories and
    prebuilt :class:`Workload` instances have no such name and raise
    :class:`ConfigurationError`; :func:`run_suite` runs them.
    """
    from repro.workloads import ALL_WORKLOADS, workload_by_name

    if workloads is None:
        return [factory(iterations).name for factory in RTOSBENCH_WORKLOADS]
    names = []
    for factory in workloads:
        if isinstance(factory, str):
            # Validates the name (and canonicalizes fuzz specs).
            names.append(workload_by_name(factory, iterations).name)
        elif callable(factory) and factory in ALL_WORKLOADS:
            names.append(factory(iterations).name)
        else:
            raise ConfigurationError(
                f"sweep() takes registered workloads or workload names, "
                f"not {factory!r}; run ad-hoc workloads with run_suite()")
    return names


def sweep(cores=CORE_NAMES, configs=EVALUATED_CONFIGS, iterations: int = 20,
          workloads=None, seed: int = 0, jobs: int = 1, cache=None,
          progress=None) -> dict[tuple[str, str], SuiteResult]:
    """The full Fig. 9 grid: every core × every configuration.

    ``workloads`` lists registered workload factories or workload names
    (default: the RTOSBench suite). The grid runs through the
    :mod:`repro.dse` executor: ``jobs`` fans it out over a process pool,
    ``cache`` (a :class:`repro.dse.cache.ResultCache`) makes warm
    re-runs near-instant, and ``progress`` receives one
    ``(point, result, from_cache)`` call per completed grid point.
    Results are keyed and ordered by grid position regardless of
    completion order, so exports are byte-identical across ``jobs``.
    """
    names = _grid_workload_names(workloads, iterations)
    from repro.dse.executor import DSEExecutor, build_grid, group_suites

    points = build_grid(cores=cores, configs=configs, workloads=names,
                        iterations=iterations, seed=seed)
    runs = DSEExecutor(jobs=jobs, cache=cache,
                       progress=progress).run(points)
    return group_suites(points, runs)
