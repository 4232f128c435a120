"""The asyncio simulation job server.

:class:`SimulationService` is the long-lived front door over the
core/kernel/DSE stack: many clients submit (core, config, workload)
jobs concurrently; the service dedups them against the result cache and
in-flight work (:mod:`repro.service.coalesce`), queues the remainder
with priorities and explicit backpressure (:mod:`repro.service.queue`),
groups queued points into per-tick executor batches
(:mod:`repro.service.batch`), and runs them off the event loop through
the DSE executor's retry/watchdog machinery
(:mod:`repro.service.worker`). With ``jobs > 1`` every batch runs on
one :class:`~repro.dse.executor.WorkerPool` that ``stop()`` closes.

Lifecycle::

    async with SimulationService(jobs=4, cache=cache) as service:
        future = await service.submit(request)   # may raise QueueFullError
        result = await future                    # JobResult
        await service.drain()                    # all accepted work done

Every accepted job resolves exactly once — with a run payload or a
structured error — never with a raw traceback.
"""

from __future__ import annotations

import asyncio
import contextlib
import functools
import time
from dataclasses import dataclass, field

from repro.dse.cache import stamp_payload
from repro.dse.executor import WorkerPool
from repro.errors import CircuitOpenError, QueueFullError, ServiceError
from repro.service.batch import Batcher, BatchPolicy
from repro.service.breaker import CircuitBreaker
from repro.service.coalesce import Coalescer
from repro.service.queue import JobQueue, ShedPolicy
from repro.service.request import JobRequest
from repro.service.stats import ServiceStats
from repro.service.worker import error_record, run_batch


@dataclass
class JobResult:
    """Terminal outcome of one accepted job."""

    status: str                 # "done" | "error"
    request: JobRequest
    served_by: str              # "cache" | "coalesced" | "executed"
    latency_s: float
    run: dict | None = None     # run_dict payload (SWEEP_SCHEMA)
    error: dict | None = None   # worker.error_record payload

    @property
    def ok(self) -> bool:
        return self.status == "done"

    def record(self) -> dict:
        """The job's JSONL result record (``repro submit --out``)."""
        from repro.harness.export import job_record

        return job_record(self.request.point().as_dict(), self.status,
                          run=self.run, error=self.error,
                          served_by=self.served_by,
                          latency_s=self.latency_s)


def _stamped(outcome: dict, point) -> dict:
    """The leader's *outcome* as a follower's: a run payload carries the
    follower's own seed; an error outcome has no run and passes as is."""
    if outcome.get("run") is None:
        return outcome
    return dict(outcome, run=stamp_payload(outcome["run"], point))


@dataclass
class Job:
    """Internal: one accepted request awaiting resolution."""

    request: JobRequest
    point: object
    key: str
    future: asyncio.Future
    submitted_at: float
    followers: list = field(default_factory=list)


class SimulationService:
    """Async job server over the DSE executor. See module docstring."""

    def __init__(self, jobs: int = 1, retries: int = 1,
                 timeout: float | None = None, cache=None,
                 queue_depth: int = 64, policy: BatchPolicy | None = None,
                 stats: ServiceStats | None = None, clock=time.monotonic,
                 shed: ShedPolicy | None = None,
                 breaker: CircuitBreaker | None = None):
        self.jobs = jobs
        self.retries = retries
        self.timeout = timeout
        self.cache = cache
        self.clock = clock
        self.stats = stats or ServiceStats(clock=clock)
        self.breaker = breaker or CircuitBreaker(clock=clock)
        self.queue = JobQueue(capacity=queue_depth,
                              retry_after=self.stats.estimate_retry_after,
                              shed=shed if shed is not None else ShedPolicy())
        self.coalescer = Coalescer(cache)
        self.batcher = Batcher(self.queue, policy, clock=clock)
        self._pool = WorkerPool(jobs) if jobs > 1 else None
        self._scheduler_task: asyncio.Task | None = None
        self._stopped = False
        self._pending = 0
        self._idle = asyncio.Event()
        self._idle.set()

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        """Spawn the scheduler on the running loop (idempotent)."""
        if self._stopped:
            raise ServiceError("service already stopped")
        if self._scheduler_task is None:
            self._scheduler_task = asyncio.get_running_loop().create_task(
                self._scheduler(), name="repro-service-scheduler")

    async def drain(self) -> None:
        """Wait until every accepted job has resolved."""
        await self._idle.wait()

    async def stop(self) -> None:
        """Drain, shut the scheduler down, then join the pool's workers."""
        await self.drain()
        self._stopped = True
        if self._scheduler_task is not None:
            self._scheduler_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._scheduler_task
            self._scheduler_task = None
        if self._pool is not None:
            self._pool.close()

    async def __aenter__(self) -> "SimulationService":
        self.start()
        return self

    async def __aexit__(self, *exc_info) -> None:
        await self.stop()

    # -- submission ----------------------------------------------------------

    async def submit(self, request: JobRequest) -> asyncio.Future:
        """Accept one job; resolves to a :class:`JobResult`.

        Raises :class:`QueueFullError` (with ``retry_after``) when the
        queue is at capacity — or, under the shed policy, when the job's
        tier has lost admission — and :class:`CircuitOpenError` while
        the worker tier is tripped. Backpressure is explicit, never a
        silent block. Cache-identical requests resolve immediately;
        in-flight-identical requests share the live execution — the
        cache tier keeps serving even with the circuit open.
        """
        if self._stopped:
            raise ServiceError("cannot submit to a stopped service")
        self.start()
        point = request.point()
        future = asyncio.get_running_loop().create_future()
        job = Job(request=request, point=point, key="", future=future,
                  submitted_at=self.clock())
        kind, value = self.coalescer.lookup(point)
        if kind == "cache":
            self.stats.record_submit()
            self._accept(job)
            self._resolve(job, {"status": "done", "run": value},
                          served_by="cache")
            return future
        if kind == "inflight":
            self.stats.record_submit()
            self._accept(job)
            value.followers.append(job)
            return future
        job.key = value
        if not self.breaker.allow():
            self.stats.record_rejection("circuit")
            raise CircuitOpenError(
                "worker tier unavailable (circuit open)",
                retry_after=self.breaker.retry_after(),
                depth=self.queue.depth, capacity=self.queue.capacity)
        try:
            self.queue.put(job)
        except QueueFullError as exc:
            self.stats.record_rejection(
                "shed" if exc.tier is not None
                and exc.capacity < self.queue.capacity else "full")
            raise
        self.stats.record_submit()
        self._accept(job)
        self.coalescer.lease(job.key, job)
        self.stats.queue_depth = self.queue.depth
        return future

    async def submit_and_wait(self, request: JobRequest) -> JobResult:
        return await (await self.submit(request))

    # -- internals -----------------------------------------------------------

    def _accept(self, job: Job) -> None:
        self._pending += 1
        self._idle.clear()

    def _resolve(self, job: Job, outcome: dict, served_by: str) -> None:
        latency = self.clock() - job.submitted_at
        result = JobResult(status=outcome["status"], request=job.request,
                           served_by=served_by, latency_s=latency,
                           run=outcome.get("run"), error=outcome.get("error"))
        self.stats.record_served(served_by)
        self.stats.record_done(latency, ok=result.ok)
        if not job.future.done():
            job.future.set_result(result)
        self._pending -= 1
        if self._pending == 0:
            self._idle.set()

    async def _scheduler(self) -> None:
        loop = asyncio.get_running_loop()
        while True:
            batch = await self.batcher.next_batch()
            self.stats.record_batch(len(batch))
            self.stats.queue_depth = self.queue.depth
            self.stats.in_flight += len(batch)
            points = [job.point for job in batch]
            try:
                outcomes = await loop.run_in_executor(
                    None, functools.partial(run_batch, points, self.jobs,
                                            self.retries, self.timeout,
                                            health=self.stats.pool,
                                            pool=self._pool))
                # Quarantined points are structured outcomes, not raised
                # exceptions — a batch that produced *only* poison
                # records still counts as an infrastructure strike.
                if outcomes and all(
                        o["status"] == "error"
                        and o["error"].get("type") == "PoisonPointError"
                        for o in outcomes):
                    self.breaker.record_failure()
                else:
                    self.breaker.record_success()
            except asyncio.CancelledError:
                for job in batch:
                    self.coalescer.release(job.key)
                    outcome = {"status": "error", "error": error_record(
                        ServiceError("service stopped mid-batch"))}
                    self._resolve(job, outcome, "executed")
                    for follower in job.followers:
                        self._resolve(follower, outcome, "coalesced")
                raise
            except Exception as exc:  # noqa: BLE001 - fail the whole batch
                # Infrastructure failure past the retry budget
                # (ExplorationError) or a scheduler bug: every job of
                # the batch gets the same structured error, and the
                # circuit breaker counts one batch-level strike.
                self.breaker.record_failure()
                outcomes = [{"status": "error",
                             "error": error_record(exc)}] * len(batch)
            finally:
                self.stats.in_flight -= len(batch)
            for job, outcome in zip(batch, outcomes):
                if outcome["status"] == "done" and self.cache is not None:
                    self.cache.put(job.point, outcome["run"])
                # Release before resolving: a submit racing with this
                # completion must fall through to the (now warm) cache,
                # never attach to a dead leader.
                self.coalescer.release(job.key)
                self._resolve(job, outcome, served_by="executed")
                for follower in job.followers:
                    self._resolve(follower, _stamped(outcome, follower.point),
                                  served_by="coalesced")
