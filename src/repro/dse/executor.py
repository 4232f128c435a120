"""Parallel grid execution with supervision, retry and deterministic order.

The executor is the workhorse of the co-exploration engine: it fans a
(core × configuration × workload) grid out over a
:class:`concurrent.futures.ProcessPoolExecutor`, consults the result
cache before spending any simulation time, and hands results back keyed
and ordered by *grid position* — never by completion order — so a
parallel sweep exports byte-identically to a serial one.

The pool is *supervised*: each in-flight task carries its own absolute
deadline, a worker that dies takes the broken pool with it and gets the
pool rebuilt (stalled worker processes are terminated, not abandoned),
and a task whose failures exhaust the retry budget is either raised as
:class:`~repro.errors.ExplorationError` (the historical behaviour) or —
when the caller provides ``on_poison`` — quarantined into a structured
result so one poisonous grid point cannot take down a whole batch. A
worker that raises a :class:`~repro.errors.ReproError` fails its task on
the first attempt: library errors are deterministic, so only
infrastructure failures use up retries.
:class:`PoolHealth` counts every one of those events for telemetry.

Entry points:

* :func:`parallel_map` — a generic order-preserving map with per-task
  retry and deadline, also used by the fault campaign and the
  simulation service's workers;
* :class:`WorkerPool` — the supervised pool itself; a caller that keeps
  one across :func:`parallel_map` calls (the simulation service) keeps
  its workers, and their assembler memo and kernel build cache, between
  calls;
* :class:`DSEExecutor` — the cache-aware grid runner behind
  :func:`repro.harness.sweep` and ``python -m repro dse``.
"""

from __future__ import annotations

import concurrent.futures
import multiprocessing
import threading
import time
from dataclasses import asdict, dataclass, replace

from repro.errors import ExplorationError, ReproError


@dataclass(frozen=True)
class GridPoint:
    """One (core, configuration, workload) cell of the exploration grid.

    ``seed`` is the *base* seed of the sweep. It is not part of the
    point's content: (core, config, workload, iterations) alone decide
    the simulation, and the seed is only recorded on the result as
    :attr:`run_seed`. Points that differ only in ``seed`` share one
    execution, one cache entry and one coalesced service job.
    """

    core: str
    config: str
    workload: str
    iterations: int = 10
    seed: int = 0

    @property
    def label(self) -> str:
        return f"{self.core}/{self.config}/{self.workload}"

    @property
    def content(self) -> dict:
        """Every axis but ``seed``: all that decides the simulation.

        The one definition of a point's identity: :func:`point_key`
        hashes it, :class:`~repro.dse.cache.ResultCache` names and
        stores its entries by it, and :class:`DSEExecutor` groups a
        sweep's points by it.
        """
        return {"core": self.core, "config": self.config,
                "workload": self.workload, "iterations": self.iterations}

    @property
    def run_seed(self) -> int:
        """The seed stamped on this point's result: derived from the base
        seed and the grid position, never from execution order (see
        :func:`repro.harness.experiment.derive_point_seed`)."""
        from repro.harness.experiment import derive_point_seed

        return derive_point_seed(self.seed, self.core, self.config,
                                 self.workload)

    def as_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, payload: dict) -> "GridPoint":
        """Rebuild a point from :meth:`as_dict` output (extra keys ignored)."""
        return cls(core=payload["core"], config=payload["config"],
                   workload=payload["workload"],
                   iterations=int(payload.get("iterations", 10)),
                   seed=int(payload.get("seed", 0)))


def build_grid(cores, configs, workloads, iterations: int = 10,
               seed: int = 0) -> list:
    """The full exploration grid, in canonical (deterministic) order."""
    return [
        GridPoint(core=core, config=config, workload=workload,
                  iterations=iterations, seed=seed)
        for core in cores
        for config in configs
        for workload in workloads
    ]


def execute_point(point: GridPoint):
    """Run one grid point; the process-pool worker function.

    Rebuilds the workload by name so the argument stays a small
    picklable dataclass; returns the full :class:`RunResult` (all its
    fields are plain dataclasses, so it pickles back intact), stamped
    with the point's :attr:`~GridPoint.run_seed`.

    :class:`DSEExecutor` calls it once per distinct content of a sweep
    and stamps the other seeds of that content onto copies of the
    result, so seed-only duplicates never reach a worker.
    """
    from repro.chaos import hooks as chaos_hooks
    from repro.harness.experiment import run_workload
    from repro.rtosunit.config import parse_config
    from repro.workloads import workload_by_name

    # A no-op outside chaos campaigns and tests; forked pool workers
    # inherit the parent's installed policy.
    chaos_hooks.fire("worker.run")
    workload = workload_by_name(point.workload, iterations=point.iterations)
    return run_workload(point.core, parse_config(point.config), workload,
                        seed=point.run_seed)


@dataclass
class PoolHealth:
    """Supervision telemetry for one :func:`parallel_map` (or service).

    ``retries`` counts charged re-executions, ``crashes`` futures lost
    to dead worker processes, ``stalls`` tasks past their deadline,
    ``restarts`` pool rebuilds, and ``poisoned`` tasks quarantined after
    exhausting the retry budget or failing with a library error.
    """

    retries: int = 0
    crashes: int = 0
    stalls: int = 0
    restarts: int = 0
    poisoned: int = 0

    def as_dict(self) -> dict:
        return {"retries": self.retries, "crashes": self.crashes,
                "stalls": self.stalls, "restarts": self.restarts,
                "poisoned": self.poisoned}


def _poison(index: int, item, attempts: int, reason: str, on_poison,
            health: PoolHealth):
    """Quarantine a task that failed for good, or raise (default path)."""
    if on_poison is None:
        raise ExplorationError(
            f"grid task {index} ({item!r}) failed after {attempts} "
            f"attempt{'s' if attempts != 1 else ''}: {reason}")
    health.poisoned += 1
    return on_poison(index, item, attempts, reason)


def _run_serial(worker, items, retries: int, on_result, on_poison,
                health: PoolHealth) -> list:
    results = []
    for index, item in enumerate(items):
        attempts = 1
        while True:
            try:
                result = worker(item)
                break
            except Exception as exc:  # noqa: BLE001 - retried or poisoned
                if attempts > retries or isinstance(exc, ReproError):
                    result = _poison(index, item, attempts,
                                     f"{type(exc).__name__}: {exc}",
                                     on_poison, health)
                    break
            health.retries += 1
            attempts += 1
        results.append(result)
        if on_result is not None:
            on_result(index, result)
    return results


class WorkerPool:
    """One supervised process pool, kept across :func:`parallel_map` calls.

    Workers start on the first :meth:`submit` and live until
    :meth:`replace` or :meth:`close`, so everything a worker keeps in
    its process — the assembler memo, the kernel build cache — carries
    over from one call to the next. Workers are always forked, whatever
    the platform's default start method, so they inherit the parent's
    environment, chaos policy and module state as they are when the
    pool starts or restarts, not as they are at each call.

    Submission may come from one thread while another closes the pool:
    start, replacement and close hold one lock, and a closed pool
    raises :class:`ExplorationError` rather than fork new workers. Run
    one :func:`parallel_map` call on a pool at a time, though: a
    replacement made by one call would take the other's tasks down.
    """

    def __init__(self, jobs: int):
        self.jobs = jobs
        self._lock = threading.Lock()
        self._executor = None
        self._closed = False

    def submit(self, worker, item) -> concurrent.futures.Future:
        with self._lock:
            if self._closed:
                raise ExplorationError("worker pool is closed")
            if self._executor is None:
                self._executor = concurrent.futures.ProcessPoolExecutor(
                    max_workers=self.jobs,
                    mp_context=multiprocessing.get_context("fork"))
            return self._executor.submit(worker, item)

    def replace(self) -> None:
        """Tear the workers down, running tasks included.

        ``Future.cancel`` cannot stop a *running* task, so a stalled
        worker would otherwise occupy a slot forever; the workers are
        terminated outright and the next :meth:`submit` starts fresh ones.
        """
        with self._lock:
            executor, self._executor = self._executor, None
        if executor is None:
            return
        processes = list(getattr(executor, "_processes", {}).values())
        executor.shutdown(wait=False, cancel_futures=True)
        for process in processes:
            if process.is_alive():
                process.terminate()

    def close(self) -> None:
        """Let submitted tasks finish, join the workers and refuse any
        later submission (idempotent).

        Pending tasks are not cancelled: ``Future.cancel`` wakes no
        caller already blocked in :func:`concurrent.futures.wait`, so a
        call still running on another thread would wait out its deadline
        (or forever, without one).
        """
        with self._lock:
            self._closed = True
            executor, self._executor = self._executor, None
        if executor is not None:
            executor.shutdown(wait=True)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


def parallel_map(worker, items, jobs: int = 1, timeout: float | None = None,
                 retries: int = 1, on_result=None, on_poison=None,
                 health: PoolHealth | None = None,
                 pool: WorkerPool | None = None) -> list:
    """Order-preserving map with a supervised process-pool fan-out.

    ``jobs <= 1`` runs in-process (no pickling constraints). Otherwise
    each item runs on ``pool`` — or, without one, on a
    :class:`WorkerPool` of ``jobs`` workers made and closed for this
    call — with supervision:

    * every submission gets its own absolute deadline (``timeout``
      seconds from dispatch); an overdue task is charged a failed
      attempt and its stalled worker pool is replaced — running tasks
      cannot be cancelled, so replacement is the only honest kill;
    * a worker-process death breaks every future riding the pool; all
      of them are charged (the dying worker cannot be attributed, and
      innocent tasks recover on their free retry) and the pool is
      rebuilt before resubmission;
    * a task that exhausts ``retries`` extra attempts raises
      :class:`ExplorationError` — unless ``on_poison(index, item,
      attempts, reason)`` is given, in which case its return value is
      quarantined into the task's result slot and the rest of the map
      proceeds;
    * a worker that raises a :class:`~repro.errors.ReproError` (a
      simulation or analysis failure) fails its task at once, on either
      path: the same item would fail the same way again, so it takes
      the poison path above without charging a retry.

    ``on_result(index, result)`` fires once per completed item (in
    completion order) for progress telemetry; ``health`` accumulates
    supervision counters. Results come back in item order regardless of
    completion order. A replacement made here serves the caller's later
    calls on the same ``pool``, and a call that leaves with tasks still
    in flight (an exception) replaces the pool, so none of them runs on
    into the next call.
    """
    items = list(items)
    health = health if health is not None else PoolHealth()
    if jobs <= 1:
        return _run_serial(worker, items, retries, on_result, on_poison,
                           health)

    owned = pool is None
    if owned:
        pool = WorkerPool(jobs)
    results = [None] * len(items)
    futures: dict = {}            # future -> item index
    deadlines: dict = {}          # item index -> absolute deadline | None
    attempts = dict.fromkeys(range(len(items)), 0)

    def start(index: int) -> None:
        attempts[index] += 1
        try:
            future = pool.submit(worker, items[index])
        except concurrent.futures.process.BrokenProcessPool:
            # A worker died before this task reached the pool (on a
            # shared pool, possibly while it sat idle between calls), so
            # there is nothing to charge: replace the pool and submit
            # again. A task that was riding the dead worker still fails
            # through its own future and is charged below.
            health.restarts += 1
            pool.replace()
            future = pool.submit(worker, items[index])
        futures[future] = index
        deadlines[index] = (time.monotonic() + timeout
                            if timeout is not None else None)

    def finish(index: int, result) -> None:
        results[index] = result
        if on_result is not None:
            on_result(index, result)

    def charge(index: int, reason: str) -> None:
        """One failed attempt: resubmit within budget, else quarantine."""
        if attempts[index] > retries:
            finish(index, _poison(index, items[index], attempts[index],
                                  reason, on_poison, health))
            return
        health.retries += 1
        start(index)

    try:
        for index in range(len(items)):
            start(index)
        while futures:
            wait_s = None
            if timeout is not None:
                next_deadline = min(deadlines[i] for i in futures.values())
                wait_s = max(0.0, next_deadline - time.monotonic())
            done, _ = concurrent.futures.wait(
                futures, timeout=wait_s,
                return_when=concurrent.futures.FIRST_COMPLETED)
            completed, fatal, failed, broken = [], [], [], []
            rebuild = False
            if done:
                for future in done:
                    index = futures.pop(future)
                    deadlines.pop(index, None)
                    try:
                        completed.append((index, future.result()))
                    except concurrent.futures.process.BrokenProcessPool \
                            as exc:
                        broken.append((index,
                                       f"worker process died: {exc}"))
                    except concurrent.futures.CancelledError:
                        broken.append((index, "worker pool torn down"))
                    except ReproError as exc:
                        # Deterministic: a retry would fail the same way.
                        fatal.append((index,
                                      f"{type(exc).__name__}: {exc}"))
                    except Exception as exc:  # noqa: BLE001 - charged below
                        failed.append((index,
                                       f"{type(exc).__name__}: {exc}"))
                health.crashes += len(broken)
                rebuild = bool(broken)
            else:
                # Deadline expired with nothing finished: the overdue
                # tasks' workers are stalled and cannot be cancelled, so
                # the pool must be replaced. Only overdue tasks are
                # charged; tasks still inside their own budget restart
                # for free on the fresh pool.
                now = time.monotonic()
                overdue = {index for index in futures.values()
                           if deadlines[index] is not None
                           and now >= deadlines[index]}
                if overdue:
                    health.stalls += len(overdue)
                    failed.extend(
                        (index, f"deadline of {timeout:.1f}s exceeded "
                                f"(worker stalled)") for index in overdue)
                    futures = {future: index
                               for future, index in futures.items()
                               if index not in overdue}
                    rebuild = True
            if rebuild:
                survivors = sorted(futures.values())
                for index in survivors:
                    attempts[index] -= 1  # not the survivor's failure
                futures.clear()
                deadlines.clear()
                health.restarts += 1
                pool.replace()
                for index in survivors:
                    start(index)
            for index, result in completed:
                finish(index, result)
            for index, reason in fatal:
                finish(index, _poison(index, items[index], attempts[index],
                                      reason, on_poison, health))
            for index, reason in failed + broken:
                charge(index, reason)
    finally:
        if futures:
            pool.replace()
        if owned:
            pool.close()
    return results


class DSEExecutor:
    """Cache-aware, pool-backed runner for exploration grids.

    Grid points that differ only in ``seed`` share one content (see
    :class:`GridPoint`): each content is looked up in the cache once,
    simulated at most once per sweep and stored once, and its result is
    fanned out to every grid point of that content, stamped with the
    point's own :attr:`~GridPoint.run_seed`. Exports are therefore
    byte-identical to running every point on its own, at any ``jobs``.

    ``progress`` is an optional callable receiving
    ``(point, result, from_cache)`` once per grid point. Each content is
    stored as soon as it completes, so an interrupted sweep rerun on the
    same ``cache`` simulates only what did not finish.
    """

    def __init__(self, jobs: int = 1, retries: int = 1,
                 timeout: float | None = None, cache=None, progress=None):
        self.jobs = jobs
        self.retries = retries
        self.timeout = timeout
        self.cache = cache
        self.progress = progress
        self.health = PoolHealth()

    def run(self, points) -> dict:
        """Execute (or recall) every grid point; returns point → RunResult.

        The returned dict iterates in grid order regardless of cache
        state or completion order. Each uncached content runs on its
        first grid point, at any ``jobs``.
        """
        from repro.harness.export import load_run, run_dict

        points = list(points)
        groups: dict = {}
        for point in points:
            groups.setdefault(tuple(point.content.values()), []).append(point)
        results = {}

        def fan_out(group, run, from_cache: bool) -> None:
            for point in group:
                results[point] = replace(run, seed=point.run_seed)
            if self.progress is not None:
                for point in group:
                    self.progress(point, results[point], from_cache)

        pending = []
        for group in groups.values():
            payload = (self.cache.get(group[0]) if self.cache is not None
                       else None)
            if payload is not None:
                fan_out(group, load_run(payload), from_cache=True)
            else:
                pending.append(group)

        def on_result(index, run):
            group = pending[index]
            if self.cache is not None:
                self.cache.put(group[0], run_dict(run))
            fan_out(group, run, from_cache=False)

        parallel_map(execute_point, [group[0] for group in pending],
                     jobs=self.jobs, timeout=self.timeout,
                     retries=self.retries, on_result=on_result,
                     health=self.health)
        return {point: results[point] for point in points}


def group_suites(points, runs: dict) -> dict:
    """Regroup executor results into the classic sweep shape.

    ``(core, config) -> SuiteResult`` with runs in grid (workload)
    order, matching what the serial nested loops used to build.
    """
    from repro.harness.experiment import SuiteResult
    from repro.rtosunit.config import parse_config

    suites: dict = {}
    for point in points:
        key = (point.core, point.config)
        if key not in suites:
            suites[key] = SuiteResult(core=point.core,
                                      config=parse_config(point.config))
        suites[key].runs.append(runs[point])
    return suites
