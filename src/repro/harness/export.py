"""Result serialisation: sweeps and figure data as JSON.

``python -m repro fig9 --json out.json`` (and programmatic use) dumps
everything a plotting pipeline needs — per-run latency samples, summary
statistics, activity counters, and the ASIC figures — as plain JSON.

The run/suite/sweep dictionaries double as the *storage schema* of the
DSE result cache: :func:`load_run`, :func:`load_suite` and
:func:`load_sweep` are exact inverses, i.e.
``run_dict(load_run(run_dict(r))) == run_dict(r)`` byte-for-byte after
JSON encoding. Only ``core_stats`` (internal activity counters not part
of the schema) is dropped on the way through.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Mapping

from repro.harness.experiment import RunResult, SuiteResult
from repro.harness.metrics import LatencyStats

#: Version tag of the sweep/run JSON schema (bump on breaking change).
SWEEP_SCHEMA = 2


def stats_dict(stats: LatencyStats) -> dict:
    return {
        "count": stats.count,
        "mean": stats.mean,
        "min": stats.minimum,
        "max": stats.maximum,
        "median": stats.median,
        "stdev": stats.stdev,
        "jitter": stats.jitter,
    }


def run_dict(run: RunResult) -> dict:
    payload = {
        "core": run.core,
        "config": run.config_name,
        "workload": run.workload,
        "seed": run.seed,
        "latencies": run.latencies,
        "switches": [[s.trigger_cycle, s.entry_cycle, s.mret_cycle]
                     for s in run.switches],
        "stats": stats_dict(run.stats),
        "cycles": run.cycles,
        "instructions": run.instret,
    }
    if run.unit_stats is not None:
        payload["unit"] = dataclasses.asdict(run.unit_stats)
    return payload


def suite_dict(suite: SuiteResult) -> dict:
    return {
        "core": suite.core,
        "config": suite.config.name,
        "stats": stats_dict(suite.stats),
        "runs": [run_dict(run) for run in suite.runs],
    }


def sweep_dict(results: Mapping) -> dict:
    """Serialise a Fig. 9 sweep (``(core, config) -> SuiteResult``)."""
    return {
        "schema": SWEEP_SCHEMA,
        "points": [suite_dict(suite) for suite in results.values()],
    }


def load_run(payload: Mapping) -> RunResult:
    """Inverse of :func:`run_dict`.

    Statistics are recomputed from the stored samples (bit-identical to
    the originals — same inputs, same algorithm); ``core_stats`` is not
    part of the schema and loads as ``None``.
    """
    from repro.cores.system import SwitchRecord
    from repro.rtosunit.config import parse_config
    from repro.rtosunit.unit import UnitStats

    latencies = list(payload["latencies"])
    unit = payload.get("unit")
    return RunResult(
        core=payload["core"],
        config=parse_config(payload["config"]),
        workload=payload["workload"],
        latencies=latencies,
        stats=LatencyStats.from_samples(latencies),
        switches=[SwitchRecord(*record) for record in payload["switches"]],
        cycles=payload["cycles"],
        instret=payload["instructions"],
        core_stats=None,
        unit_stats=UnitStats(**unit) if unit is not None else None,
        seed=payload.get("seed", 0),
    )


def load_suite(payload: Mapping) -> SuiteResult:
    """Inverse of :func:`suite_dict`."""
    from repro.rtosunit.config import parse_config

    return SuiteResult(
        core=payload["core"],
        config=parse_config(payload["config"]),
        runs=[load_run(run) for run in payload["runs"]],
    )


def load_sweep(payload: Mapping) -> dict:
    """Inverse of :func:`sweep_dict`: ``(core, config) -> SuiteResult``."""
    return {
        (point["core"], point["config"]): load_suite(point)
        for point in payload["points"]
    }


def job_record(point: Mapping, status: str, *, run: Mapping | None = None,
               error: Mapping | None = None, served_by: str | None = None,
               latency_s: float | None = None) -> dict:
    """One job-service result record (one JSONL line of ``repro submit``).

    ``run`` is a :func:`run_dict` payload verbatim, so a record's body
    follows ``SWEEP_SCHEMA`` exactly — a completed service job
    round-trips through :func:`load_run` like any cached sweep result,
    and is byte-identical to what ``repro dse`` exports for the same
    point.
    """
    record = {
        "schema": SWEEP_SCHEMA,
        "point": dict(point),
        "status": status,
    }
    if run is not None:
        record["run"] = dict(run)
    if error is not None:
        record["error"] = dict(error)
    if served_by is not None:
        record["served_by"] = served_by
    if latency_s is not None:
        record["latency_s"] = round(latency_s, 6)
    return record


def area_dict(reports: Mapping) -> dict:
    return {"points": [{
        "core": report.core,
        "config": report.config,
        "normalized": report.normalized,
        "overhead_percent": report.overhead_percent,
        "area_mm2": report.total_mm2,
        "area_kge": report.total_kge,
    } for report in reports.values()]}


def write_json(path: str, payload: dict) -> None:
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
