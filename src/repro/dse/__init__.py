"""Design-space co-exploration engine.

Turns the figure-replay harness into what the paper actually did:
a joint search over RTOSUnit hardware configurations and kernel
extensions for the best latency/area/power trade-off. Four parts:

* :mod:`repro.dse.executor` — process-pool grid execution with per-task
  retry/timeout and deterministic result ordering, on a per-call pool
  or a long-lived :class:`~repro.dse.executor.WorkerPool`,
* :mod:`repro.dse.cache` — a content-addressed on-disk result cache
  (keyed by source fingerprint + grid point content, without the seed)
  with hit/miss/invalidation accounting; rerunning a sweep on the same
  cache directory resumes it,
* :mod:`repro.dse.frontier` — latency/jitter/area/fmax/power metric
  vectors per design point and Pareto-dominance analysis,
* :mod:`repro.dse.telemetry` — the runs/s + cache-hit-rate + ETA
  progress line of ``python -m repro dse``.
"""

from repro.dse.cache import (
    CACHE_SCHEMA,
    CacheStats,
    ResultCache,
    point_key,
    source_fingerprint,
)
from repro.dse.executor import (
    DSEExecutor,
    GridPoint,
    PoolHealth,
    WorkerPool,
    build_grid,
    execute_point,
    group_suites,
    parallel_map,
)
from repro.dse.frontier import (
    DEFAULT_OBJECTIVES,
    OBJECTIVES,
    DesignPoint,
    annotate_pareto,
    dominates,
    evaluate_grid,
    frontier_dict,
    parse_objectives,
)
from repro.dse.telemetry import ProgressMeter, percentile

__all__ = [
    "CACHE_SCHEMA",
    "CacheStats",
    "DEFAULT_OBJECTIVES",
    "DSEExecutor",
    "DesignPoint",
    "GridPoint",
    "OBJECTIVES",
    "PoolHealth",
    "ProgressMeter",
    "ResultCache",
    "WorkerPool",
    "annotate_pareto",
    "build_grid",
    "dominates",
    "evaluate_grid",
    "execute_point",
    "frontier_dict",
    "group_suites",
    "parallel_map",
    "parse_objectives",
    "percentile",
    "point_key",
    "source_fingerprint",
]
