"""The four benchmark workloads: inputs from the seed, the measured
phase, and the checks of every output against ``reference.json``.

Each workload runs in a fresh process (see ``run.py``): ``setup()``
prepares fixtures, ``measure()`` is the timed phase, and ``check()``
digests every returned run after the clock has stopped.

Library functions are always looked up through their module at call
time (``experiment.run_workload``, not a bound name) so that a traced
process runs the wrappers :mod:`spans` installed.
"""

from __future__ import annotations

import asyncio
import dataclasses
import functools
import hashlib
import json
import pathlib
import random
import shutil
import time

from repro.analysis import claims
from repro.asic import power
from repro.dse import cache as dse_cache
from repro.dse import executor, telemetry
from repro.errors import CircuitOpenError, QueueFullError
from repro.harness import experiment, export
from repro.personalities import ladder
from repro.rtosunit.config import EVALUATED_CONFIGS, parse_config
from repro.service import server
from repro.service.request import JobRequest
from repro.wcet import analyzer
from repro.workloads import RTOSBENCH_WORKLOADS, workload_by_name

CORES = ("cv32e40p", "cva6", "naxriscv")
RTOSBENCH = tuple(factory(1).name for factory in RTOSBENCH_WORKLOADS)
REFERENCE = pathlib.Path(__file__).with_name("reference.json")


@dataclasses.dataclass(frozen=True)
class Scale:
    """Input sizes; ``full`` is the benchmark, ``small`` its self-test."""

    cold_cores: tuple
    verify_iterations: int
    claims: bool
    fig13_configs: tuple
    fig13_iterations: int
    wcet_configs: tuple
    ladder_spec: ladder.LadderSpec
    long_runs: tuple            # (workload, iterations) pairs
    long_cores: tuple
    long_configs: tuple
    slice_cores: tuple
    slice_configs: tuple
    slice_workloads: tuple
    slice_iterations: int
    sweep_seeds: int
    sweep_jobs: int
    service_configs: tuple
    service_rate: float         # arrivals per second (open loop)
    service_workers: int


SCALES = {
    "full": Scale(
        cold_cores=CORES, verify_iterations=8, claims=True,
        fig13_configs=EVALUATED_CONFIGS, fig13_iterations=6,
        wcet_configs=EVALUATED_CONFIGS, ladder_spec=ladder.LadderSpec.quick(),
        long_runs=(("mixed_stress", 40), ("interrupt_response", 12)),
        long_cores=CORES, long_configs=("vanilla", "SLT"),
        slice_cores=CORES, slice_configs=("vanilla", "S", "SLT", "SPLIT"),
        slice_workloads=RTOSBENCH, slice_iterations=4, sweep_seeds=12,
        sweep_jobs=2, service_configs=("vanilla", "SLT"), service_rate=10.0,
        service_workers=2),
    "small": Scale(
        cold_cores=("cv32e40p",), verify_iterations=2, claims=False,
        fig13_configs=("vanilla", "SLT"), fig13_iterations=2,
        wcet_configs=("vanilla", "SLT"),
        ladder_spec=ladder.LadderSpec(cores=("cv32e40p",),
                                      configs=("vanilla",), iterations=2),
        long_runs=(("mixed_stress", 3),), long_cores=("cv32e40p",),
        long_configs=("vanilla", "SLT"),
        slice_cores=("cv32e40p",), slice_configs=("vanilla", "SLT"),
        slice_workloads=("yield_pingpong", "sem_signal"), slice_iterations=2,
        sweep_seeds=3, sweep_jobs=2, service_configs=("vanilla", "SLT"),
        service_rate=30.0, service_workers=2),
}


def content_key(core: str, config: str, workload: str, iterations: int) -> str:
    return f"{core}/{config}/{workload}/i{iterations}"


def content_digest(payload: dict) -> str:
    """Digest of a ``run_dict`` payload without its bookkeeping seed."""
    return dse_cache.payload_digest(
        {key: value for key, value in payload.items() if key != "seed"})


def load_reference() -> dict:
    with open(REFERENCE) as handle:
        return json.load(handle)


@dataclasses.dataclass
class Outcome:
    """What the measured phase returned, checked after the clock stops.

    ``runs`` holds ``(content key, expected seed, RunResult, run_dict
    payload, or None for a rejected or failed job)`` in grid order;
    ``jobs`` the ``(due, done)`` ``time.monotonic()`` instants of every
    job (all batch jobs are due at the start of the measured phase;
    service jobs carry their own due time). With ``open_loop`` the
    schedule sets the phase's length, and only the union of the job
    intervals, when work was pending, counts as busy.
    """

    runs: list = dataclasses.field(default_factory=list)
    jobs: list = dataclasses.field(default_factory=list)
    open_loop: bool = False
    extras: dict = dataclasses.field(default_factory=dict)
    counters: dict = dataclasses.field(default_factory=dict)


class Check:
    """Counts operations and failures; keeps the run_dict digest chain."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._chain = hashlib.sha256()

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 10:
                self.problems.append(what)

    def run(self, key: str, seed: int, payload, contents: dict) -> None:
        if payload is None:  # a rejected or failed job
            self.expect(False, f"{key} (seed {seed}): no result")
            return
        if not isinstance(payload, dict):
            payload = export.run_dict(payload)
        self._chain.update(dse_cache.payload_digest(payload).encode())
        self.expect(payload.get("seed") == seed
                    and contents.get(key) == content_digest(payload),
                    f"{key} (seed {seed}): output differs from the reference")

    @property
    def digest(self) -> str:
        return self._chain.hexdigest()


class Workload:
    """Base class: subclasses define the inputs, the phase and the checks."""

    name = ""
    # Host seconds per second on the reference host (calib.py), measured
    # during set-up; run.py sets it before measure().
    time_scale = 1.0

    def __init__(self, seed: int, scale: Scale, workdir: pathlib.Path):
        self.seed = seed
        self.scale = scale
        self.workdir = workdir
        self.rng = random.Random(f"{self.name}:{seed}")

    def setup(self) -> None:
        """Fixtures paid before the measured phase (counted in setup_s)."""

    def measure(self) -> Outcome:
        raise NotImplementedError

    def check(self, outcome: Outcome, reference: dict, scale_name: str,
              corrupt: bool = False) -> Check:
        check = Check()
        contents = reference["contents"]
        for index, (key, seed, run) in enumerate(outcome.runs):
            if corrupt and index == 0:
                run = export.run_dict(run) if not isinstance(run, dict) else run
                run = dict(run, cycles=run["cycles"] + 1)
            check.run(key, seed, run, contents)
        self.check_extras(outcome, reference["extras"][scale_name], check)
        return check

    def check_extras(self, outcome: Outcome, extras: dict,
                     check: Check) -> None:
        """Outputs other than runs (claims, WCET rows, reports)."""

    def contents(self) -> list[tuple]:
        """Every (core, config, workload, iterations) a run may return."""
        raise NotImplementedError

    @staticmethod
    def _grid(cores, configs, workloads, iterations) -> list[tuple]:
        return [(core, config, workload, iterations) for core in cores
                for config in configs for workload in workloads]


def union(intervals) -> list[tuple[float, float]]:
    """The union of ``(start, end)`` intervals, as disjoint intervals."""
    merged: list[list[float]] = []
    for start, end in sorted(intervals):
        if merged and start <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], end)
        else:
            merged.append([start, end])
    return [(start, end) for start, end in merged]


def wcet_row(config: str) -> list:
    result = analyzer.analyze_config(parse_config(config))
    return [config, result.wcet_cycles, result.paths_explored]


class PaperCold(Workload):
    """``repro verify``, ``fig13``, ``wcet`` and ``ladder --quick``."""

    name = "paper_cold"

    def measure(self) -> Outcome:
        scale = self.scale
        outcome = Outcome()
        start = time.monotonic()

        def done() -> None:
            outcome.jobs.append((start, time.monotonic()))

        evidence = claims.gather_evidence(
            iterations=scale.verify_iterations, cores=scale.cold_cores)
        verdicts = claims.verify_all(evidence) if scale.claims else []
        for suite in evidence.latency.values():
            for run in suite.runs:
                seed = experiment.derive_point_seed(
                    0, run.core, run.config_name, run.workload)
                outcome.runs.append((content_key(
                    run.core, run.config_name, run.workload,
                    scale.verify_iterations), seed, run))
                done()

        model = power.PowerModel()
        for core in scale.cold_cores:
            for name in scale.fig13_configs:
                config = parse_config(name)
                run = experiment.run_workload(
                    core, config,
                    workload_by_name("mutex_workload",
                                     scale.fig13_iterations))
                model.report(core, config, run=run)
                outcome.runs.append((content_key(
                    core, name, run.workload, scale.fig13_iterations), 0, run))
                done()

        wcet = []
        for name in scale.wcet_configs:
            wcet.append(wcet_row(name))
            done()

        spec = scale.ladder_spec

        def on_ladder_run(point, run, _from_cache) -> None:
            seed = experiment.derive_point_seed(
                spec.seed, point.core, point.config, point.workload)
            outcome.runs.append((content_key(
                point.core, point.config, point.workload, point.iterations),
                seed, run))
            done()

        report = ladder.ladder_report(spec, progress=on_ladder_run)
        outcome.extras = {"claims": [(v.claim_id, v.passed) for v in verdicts],
                          "wcet": wcet, "ladder_report": report}
        return outcome

    def check_extras(self, outcome, extras, check) -> None:
        for claim_id, passed in outcome.extras["claims"]:
            check.expect(passed, f"claim {claim_id} does not PASS")
        rows = outcome.extras["wcet"]
        for row, expected in zip(rows, extras["wcet"]):
            check.expect(row == expected, f"WCET row {row} != {expected}")
        check.expect(len(rows) == len(extras["wcet"]), "WCET row count")
        check.expect(dse_cache.payload_digest(outcome.extras["ladder_report"])
                     == extras["ladder_report"], "ladder report differs")

    def contents(self) -> list[tuple]:
        scale = self.scale
        spec = scale.ladder_spec
        return (self._grid(scale.cold_cores, EVALUATED_CONFIGS, RTOSBENCH,
                           scale.verify_iterations)
                + self._grid(scale.cold_cores, scale.fig13_configs,
                             ("mutex_workload",), scale.fig13_iterations)
                + self._grid(spec.cores, ladder.supported_config_names(spec),
                             ladder.LADDER_WORKLOAD_NAMES, spec.iterations))

    def extras(self) -> dict:
        """Reference values of the non-run outputs."""
        scale = self.scale
        report = ladder.ladder_report(scale.ladder_spec)
        return {"wcet": [wcet_row(name) for name in scale.wcet_configs],
                "ladder_report": dse_cache.payload_digest(report)}


class LongSim(Workload):
    """A few long single simulations, one after another, in one process.

    The order is fixed so that completion times compare across seeds; the
    seed only sets the seed recorded on each run.
    """

    name = "long_sim"

    def measure(self) -> Outcome:
        outcome = Outcome()
        start = time.monotonic()
        for core, name, workload, iterations in self.contents():
            seed = experiment.derive_point_seed(self.seed, core, name,
                                                workload)
            run = experiment.run_workload(
                core, parse_config(name),
                workload_by_name(workload, iterations), seed=seed)
            outcome.runs.append((content_key(core, name, workload,
                                             iterations), seed, run))
            outcome.jobs.append((start, time.monotonic()))
        return outcome

    def contents(self) -> list[tuple]:
        scale = self.scale
        return [content
                for workload, iterations in scale.long_runs
                for content in self._grid(scale.long_cores,
                                          scale.long_configs, (workload,),
                                          iterations)]


class SliceWorkload(Workload):
    """Shared grid slice of the sweep and service workloads."""

    def contents(self) -> list[tuple]:
        scale = self.scale
        return self._grid(scale.slice_cores, scale.slice_configs,
                          scale.slice_workloads, scale.slice_iterations)

    def fresh_cache(self, name: str):
        root = self.workdir / name
        shutil.rmtree(root, ignore_errors=True)
        return dse_cache.ResultCache(root)


class MultiseedSweep(SliceWorkload):
    """One cached ``DSEExecutor`` sweep of the slice under many seeds."""

    name = "multiseed_sweep"

    def setup(self) -> None:
        seeds = self.rng.sample(range(1, 1 << 20), self.scale.sweep_seeds)
        self.points = [executor.GridPoint(core, config, workload,
                                          iterations, seed)
                       for seed in seeds
                       for core, config, workload, iterations
                       in self.contents()]
        self.cache = self.fresh_cache("sweep-cache")

    def measure(self) -> Outcome:
        outcome = Outcome()
        start = time.monotonic()

        def progress(_point, _run, _from_cache) -> None:
            outcome.jobs.append((start, time.monotonic()))

        sweep = executor.DSEExecutor(jobs=self.scale.sweep_jobs,
                                     cache=self.cache, progress=progress)
        runs = sweep.run(self.points)
        for point, run in runs.items():
            seed = experiment.derive_point_seed(
                point.seed, point.core, point.config, point.workload)
            outcome.runs.append((content_key(
                point.core, point.config, point.workload, point.iterations),
                seed, run))
        return outcome


class ServiceOpenLoop(SliceWorkload):
    """``SimulationService`` fed on an open-loop arrival schedule.

    Arrivals are evenly spaced at ``service_rate`` per second on the
    reference host: the schedule stretches by ``time_scale``, so the
    service is as busy on a slow host as on a fast one and scaled
    latencies compare across host speeds. The contents of the service
    slice come in seeded order, each with two arrivals in turn: a point
    that set-up pre-populated in the cache, then a fresh point sent three
    times at the same instant (two requests coalesce with the first in
    flight). Each job is timed from when it was due. The service runs one
    batch at a time; a fresh point arrives every other slot, so the service
    is busy about a third of the time and a batch ends before the next
    fresh point is due. Latency thus measures service time rather than a
    queue: a queue would amplify every change in host speed, and, with
    fresh points in shuffled slots, would make the tail depend on how
    often the seed puts two of them side by side. The schedule fixes the
    phase's length, so the phase is open-loop: only the time in which some
    job was due and unresolved counts as busy.
    """

    name = "service_openloop"

    def contents(self) -> list[tuple]:
        scale = self.scale
        return self._grid(scale.slice_cores, scale.service_configs,
                          scale.slice_workloads, scale.slice_iterations)

    def setup(self) -> None:
        scale = self.scale
        contents = self.contents()
        seeds = iter(self.rng.sample(range(1, 1 << 24), 2 * len(contents)))
        pairs = [tuple(executor.GridPoint(*content, seed=next(seeds))
                       for _ in range(2)) for content in contents]
        self.rng.shuffle(pairs)
        cached = [cold for cold, _fresh in pairs]
        arrivals = [points for cold, fresh in pairs
                    for points in ([cold], [fresh, fresh, fresh])]
        # Pre-populate from pool workers, so this process's snapshot store
        # stays cold and fresh points simulate in the service's workers.
        self.cache = self.fresh_cache("service-cache")
        executor.DSEExecutor(jobs=scale.service_workers,
                             cache=self.cache).run(cached)
        self.schedule = [
            (index / scale.service_rate, JobRequest(
                core=point.core, config=point.config, workload=point.workload,
                iterations=point.iterations, seed=point.seed))
            for index, points in enumerate(arrivals) for point in points]

    def measure(self) -> Outcome:
        return asyncio.run(self._drive())

    async def _drive(self) -> Outcome:
        outcome = Outcome(open_loop=True)
        results: list = [None] * len(self.schedule)
        late = []
        rejected = 0
        loop = asyncio.get_running_loop()  # its clock is time.monotonic()

        def resolved(index: int, due: float, future) -> None:
            outcome.jobs.append((due, loop.time()))
            result = future.result()
            results[index] = result.run if result.ok else None

        service = server.SimulationService(jobs=self.scale.service_workers,
                                           cache=self.cache)
        async with service:
            start = loop.time()
            futures = []
            for index, (offset, request) in enumerate(self.schedule):
                due = start + offset * self.time_scale
                delay = due - loop.time()
                if delay > 0:
                    await asyncio.sleep(delay)
                late.append(loop.time() - due)
                try:
                    future = await service.submit(request)
                except (QueueFullError, CircuitOpenError):
                    rejected += 1
                    continue
                future.add_done_callback(
                    functools.partial(resolved, index, due))
                futures.append(future)
            await service.drain()
            await asyncio.gather(*futures)
        stats = service.stats
        for (_offset, request), result in zip(self.schedule, results):
            seed = experiment.derive_point_seed(
                request.seed, request.core, request.config, request.workload)
            key = content_key(request.core, request.config, request.workload,
                              request.iterations)
            outcome.runs.append((key, seed, result))
        outcome.counters = {
            "service.batches": stats.batches,
            "service.batch_fill": stats.mean_batch_fill,
            "service.served_cache": stats.cache_hits,
            "service.served_coalesced": stats.coalesced,
            "service.served_executed": stats.executed,
            "service.rejected": rejected,
            "service.gen_late_ms": telemetry.percentile(late, 95) * 1e3,
        }
        return outcome


WORKLOADS = {cls.name: cls for cls in (PaperCold, LongSim, MultiseedSweep,
                                       ServiceOpenLoop)}

