"""Service telemetry: counters, gauges and job-latency percentiles.

One :class:`ServiceStats` instance per server. Counters are plain ints
(the server is single-threaded asyncio, so no locking); job latencies
land in a bounded reservoir (latest N win) from which p50/p95/p99 are
taken by nearest rank. The same object drives the backpressure
estimate: ``estimate_retry_after`` converts current queue depth into a
"come back in N seconds" hint from the observed completion rate.
"""

from __future__ import annotations

import time
from collections import deque

from repro.dse.executor import PoolHealth
from repro.dse.telemetry import percentile

#: How a resolved job was served.
SERVED_BY = ("cache", "coalesced", "executed")


class ServiceStats:
    """Telemetry accumulator for one :class:`SimulationService`."""

    def __init__(self, clock=time.monotonic, window: int = 4096):
        self.clock = clock
        self.started = clock()
        # -- counters (monotonic) -------------------------------------------
        self.submitted = 0      # accepted submissions
        self.rejected = 0       # backpressure rejections (QueueFullError)
        self.shed = 0           # …of which: tiered load shedding
        self.circuit_open = 0   # …of which: circuit breaker failing fast
        self.completed = 0      # jobs resolved with a run payload
        self.failed = 0         # jobs resolved with a structured error
        self.cache_hits = 0     # served straight from the result cache
        self.coalesced = 0      # attached to an identical in-flight job
        self.executed = 0       # actually simulated
        self.batches = 0        # executor submissions
        self.batched_jobs = 0   # jobs across all batches (fill accounting)
        self.journal_replays = 0  # jobs resumed from the spool journal
        # -- worker-pool supervision (shared with run_batch) ----------------
        self.pool = PoolHealth()
        # -- gauges (maintained by the server) ------------------------------
        self.queue_depth = 0
        self.in_flight = 0
        self._latencies = deque(maxlen=window)

    # -- recording ----------------------------------------------------------

    def record_submit(self) -> None:
        self.submitted += 1

    def record_rejection(self, reason: str = "full") -> None:
        self.rejected += 1
        if reason == "shed":
            self.shed += 1
        elif reason == "circuit":
            self.circuit_open += 1

    def record_replay(self) -> None:
        self.journal_replays += 1

    def record_served(self, served_by: str) -> None:
        if served_by == "cache":
            self.cache_hits += 1
        elif served_by == "coalesced":
            self.coalesced += 1
        else:
            self.executed += 1

    def record_batch(self, size: int) -> None:
        self.batches += 1
        self.batched_jobs += size

    def record_done(self, latency_s: float, ok: bool) -> None:
        if ok:
            self.completed += 1
        else:
            self.failed += 1
        self._latencies.append(latency_s)

    # -- derived ------------------------------------------------------------

    @property
    def resolved(self) -> int:
        return self.completed + self.failed

    @property
    def hit_rate(self) -> float:
        """Share of resolved jobs served without a fresh simulation."""
        if not self.resolved:
            return 0.0
        return (self.cache_hits + self.coalesced) / self.resolved

    @property
    def mean_batch_fill(self) -> float:
        return self.batched_jobs / self.batches if self.batches else 0.0

    @property
    def elapsed(self) -> float:
        return max(self.clock() - self.started, 1e-9)

    @property
    def jobs_per_second(self) -> float:
        return self.resolved / self.elapsed

    def mean_job_seconds(self) -> float:
        if not self._latencies:
            return 0.0
        return sum(self._latencies) / len(self._latencies)

    def latency_percentiles(self) -> dict:
        """p50/p95/p99 of the recent job-latency window (seconds)."""
        if not self._latencies:
            return {"p50": 0.0, "p95": 0.0, "p99": 0.0}
        samples = list(self._latencies)
        return {f"p{q}": percentile(samples, q) for q in (50, 95, 99)}

    def estimate_retry_after(self, depth: int | None = None) -> float:
        """Backpressure hint: seconds until the queue likely has room.

        A full queue of ``depth`` jobs drains in roughly
        ``depth * mean_job_latency / max(in_flight, 1)``; without any
        latency history yet, fall back to one second. Clamped to
        [0.05s, 30s] so clients neither spin nor stall.
        """
        depth = self.queue_depth if depth is None else depth
        mean = self.mean_job_seconds()
        estimate = (depth * mean / max(self.in_flight, 1)) if mean else 1.0
        return min(max(estimate, 0.05), 30.0)

    # -- export -------------------------------------------------------------

    def as_dict(self) -> dict:
        latency = self.latency_percentiles()
        return {
            "submitted": self.submitted,
            "rejected": self.rejected,
            "shed": self.shed,
            "circuit_open": self.circuit_open,
            "completed": self.completed,
            "failed": self.failed,
            "cache_hits": self.cache_hits,
            "coalesced": self.coalesced,
            "executed": self.executed,
            "hit_rate": self.hit_rate,
            "batches": self.batches,
            "mean_batch_fill": self.mean_batch_fill,
            "journal_replays": self.journal_replays,
            "pool": self.pool.as_dict(),
            "queue_depth": self.queue_depth,
            "in_flight": self.in_flight,
            "jobs_per_second": self.jobs_per_second,
            "latency_s": latency,
            "elapsed_s": self.elapsed,
        }


def format_stats(stats: dict) -> str:
    """Render a stats dict (``ServiceStats.as_dict``) as the CLI table."""
    # Imported lazily: repro.analysis pulls in the claim-verification
    # machinery, which itself builds kernels via repro.cores.
    from repro.analysis.reporting import format_table

    latency = stats.get("latency_s", {})
    pool = stats.get("pool", {})
    rows = [
        ("submitted", stats["submitted"]),
        ("rejected (backpressure)", stats["rejected"]),
        ("rejected by load shedding", stats.get("shed", 0)),
        ("rejected by open circuit", stats.get("circuit_open", 0)),
        ("completed", stats["completed"]),
        ("failed", stats["failed"]),
        ("served from cache", stats["cache_hits"]),
        ("coalesced in flight", stats["coalesced"]),
        ("executed", stats["executed"]),
        ("coalesce+cache hit rate", f"{stats['hit_rate'] * 100.0:.1f}%"),
        ("batches", stats["batches"]),
        ("mean batch fill", f"{stats['mean_batch_fill']:.2f}"),
        ("journal replays", stats.get("journal_replays", 0)),
        ("worker retries", pool.get("retries", 0)),
        ("worker crashes", pool.get("crashes", 0)),
        ("worker stalls", pool.get("stalls", 0)),
        ("worker pool restarts", pool.get("restarts", 0)),
        ("poisoned points", pool.get("poisoned", 0)),
        ("queue depth", stats["queue_depth"]),
        ("in flight", stats["in_flight"]),
        ("throughput", f"{stats['jobs_per_second']:.2f} jobs/s"),
        ("latency p50", f"{latency.get('p50', 0.0) * 1000.0:.1f} ms"),
        ("latency p95", f"{latency.get('p95', 0.0) * 1000.0:.1f} ms"),
        ("latency p99", f"{latency.get('p99', 0.0) * 1000.0:.1f} ms"),
    ]
    return format_table(("metric", "value"), rows)
