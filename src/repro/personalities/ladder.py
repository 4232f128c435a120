"""The latency ladder: core × config × personality comparison report.

scmRTOS publishes a per-platform table of context-switch and interrupt
latencies for each port; this module produces the same kind of ladder
for this repo's co-exploration space. Three personality-portable probe
workloads (:data:`repro.workloads.LADDER_WORKLOADS`) measure

* **context-switch latency** — ``ladder_switch``, a pure blocking
  semaphore ping-pong (total trigger→mret latency),
* **interrupt-entry latency** — ``ladder_irq``, deferred external
  interrupt handling (the response part of the switch breakdown), and
* **jitter** — ``ladder_jitter``, periodic delay traffic (max−min of
  the observed switch latencies),

for every core × configuration × personality cell. Cells a personality
cannot build (e.g. hardware scheduling under ``scm``) are reported as
deterministic *unsupported* rows carrying the configuration error, not
dropped — the table shape never depends on what happened to work.

The grid is executed through :func:`repro.harness.sweep`, so ``--jobs``
parallelism and the DSE result cache both apply, and the emitted
JSON/markdown are byte-identical across runs and job counts.
``BENCH_ladder.json`` wraps the payload in the shared
``repro-bench/v1`` envelope.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cores import CORE_NAMES
from repro.errors import AnalysisError, ConfigurationError
from repro.personalities import (
    DEFAULT_PERSONALITY,
    PERSONALITIES,
    personality_names,
)

#: Bench name inside the ``repro-bench/v1`` envelope.
LADDER_BENCH = "ladder"

#: Default artifact path (CI uploads this).
LADDER_JSON = "BENCH_ladder.json"

#: Configurations of the full ladder: the software baseline, the
#: paper's best software-scheduled point, and the hardware-scheduled
#: point (freertos-only — it yields unsupported rows elsewhere, which
#: is itself part of the report's story).
LADDER_CONFIGS = ("vanilla", "SL", "SLT")

#: The probe workloads, in column order.
LADDER_WORKLOAD_NAMES = ("ladder_switch", "ladder_irq", "ladder_jitter")


@dataclass(frozen=True)
class LadderSpec:
    """One ladder run: which cells to measure and how hard."""

    cores: tuple = tuple(CORE_NAMES)
    configs: tuple = LADDER_CONFIGS
    personalities: tuple = field(default_factory=personality_names)
    iterations: int = 10
    seed: int = 0

    @classmethod
    def quick(cls) -> "LadderSpec":
        """The CI smoke spec: all cores, all personalities, vanilla."""
        return cls(configs=("vanilla",), iterations=6)

    def as_dict(self) -> dict:
        return {
            "cores": list(self.cores),
            "configs": list(self.configs),
            "personalities": list(self.personalities),
            "iterations": self.iterations,
            "seed": self.seed,
        }


def config_name_for(base: str, personality: str) -> str:
    """The full config spelling of one cell (``SL`` + ``scm`` → ``SL@scm``)."""
    if personality == DEFAULT_PERSONALITY:
        return base
    return f"{base}@{personality}"


def ladder_cells(spec: LadderSpec) -> list[dict]:
    """Every (core, config, personality) cell, supported or not.

    A cell is supported when its qualified config name parses; the
    :class:`ConfigurationError` text of an invalid combination becomes
    the row's ``reason``.
    """
    from repro.rtosunit.config import parse_config

    cells = []
    for core in spec.cores:
        for base in spec.configs:
            for personality in spec.personalities:
                name = config_name_for(base, personality)
                cell = {"core": core, "config": base,
                        "personality": personality, "config_name": name}
                try:
                    parse_config(name)
                    cell["supported"] = True
                except ConfigurationError as exc:
                    cell["supported"] = False
                    cell["reason"] = str(exc)
                cells.append(cell)
    return cells


def supported_config_names(spec: LadderSpec) -> list[str]:
    """The qualified config names the sweep must run, in grid order."""
    names: list[str] = []
    for cell in ladder_cells(spec):
        if cell["supported"] and cell["config_name"] not in names:
            names.append(cell["config_name"])
    return names


def ladder_requests(spec: LadderSpec, priority: str | None = None) -> list:
    """The ladder grid as service :class:`JobRequest`s (the job kind).

    Submitting these to a :class:`repro.service.SimulationService` (or
    ``repro submit``) produces exactly the run payloads the local
    :func:`ladder_report` sweep computes — same base seed, same grid —
    so :func:`ladder_from_records` can assemble the identical report
    from the service's JSONL output.
    """
    from repro.service.request import DEFAULT_PRIORITY, JobRequest

    return [
        JobRequest(core=core, config=name, workload=workload,
                   iterations=spec.iterations, seed=spec.seed,
                   priority=priority or DEFAULT_PRIORITY)
        for core in spec.cores
        for name in supported_config_names(spec)
        for workload in LADDER_WORKLOAD_NAMES
    ]


def _metrics(suite) -> dict:
    """The three ladder metrics from one (core, config) suite."""
    from repro.harness.export import stats_dict

    switch = suite.run_named("ladder_switch").stats
    irq = suite.run_named("ladder_irq").breakdown.response
    jitter = suite.run_named("ladder_jitter").stats
    return {
        "switch": stats_dict(switch),
        "irq_entry": stats_dict(irq),
        "jitter_stats": stats_dict(jitter),
        "switch_mean": switch.mean,
        "irq_entry_mean": irq.mean,
        "jitter": jitter.jitter,
    }


def _rows(spec: LadderSpec, suite_for) -> list[dict]:
    """Assemble report rows; ``suite_for(core, config_name)`` resolves."""
    rows = []
    for cell in ladder_cells(spec):
        row = dict(cell)
        if row.pop("supported"):
            row.update(_metrics(suite_for(row["core"], row["config_name"])))
        else:
            row["unsupported"] = True
        rows.append(row)
    return rows


def ladder_report(spec: LadderSpec | None = None, jobs: int = 1,
                  cache=None, progress=None) -> dict:
    """Run the ladder grid and return the (unenveloped) report payload.

    One :func:`repro.harness.sweep` call covers every supported cell ×
    probe workload, so jobs-parity and result caching hold exactly as
    for ``repro dse`` — the report is byte-identical across
    runs and across ``--jobs`` values.
    """
    from repro.harness.experiment import sweep

    spec = spec or LadderSpec()
    results = sweep(cores=spec.cores, configs=supported_config_names(spec),
                    iterations=spec.iterations,
                    workloads=list(LADDER_WORKLOAD_NAMES), seed=spec.seed,
                    jobs=jobs, cache=cache, progress=progress)
    return {
        "spec": spec.as_dict(),
        "workloads": list(LADDER_WORKLOAD_NAMES),
        "personalities": {name: PERSONALITIES[name].summary
                          for name in spec.personalities},
        "rows": _rows(spec, lambda core, name: results[(core, name)]),
    }


def ladder_from_records(spec: LadderSpec, records) -> dict:
    """Assemble the report from service/cache run payloads.

    *records* is an iterable of ``run_dict`` payloads (e.g. the ``run``
    bodies of ``repro submit`` JSONL records for
    :func:`ladder_requests`). Missing runs raise
    :class:`AnalysisError` naming the absent cell.
    """
    from repro.harness.experiment import SuiteResult
    from repro.harness.export import load_run
    from repro.rtosunit.config import parse_config

    by_cell: dict = {}
    for payload in records:
        run = load_run(payload)
        by_cell.setdefault((run.core, run.config_name),
                           []).append(run)

    def suite_for(core: str, name: str) -> SuiteResult:
        runs = by_cell.get((core, name))
        if not runs:
            raise AnalysisError(
                f"no ladder runs for cell {core}/{name} in the supplied "
                f"records")
        order = {w: i for i, w in enumerate(LADDER_WORKLOAD_NAMES)}
        return SuiteResult(core=core, config=parse_config(name),
                           runs=sorted(runs,
                                       key=lambda r: order.get(r.workload, 99)))

    return {
        "spec": spec.as_dict(),
        "workloads": list(LADDER_WORKLOAD_NAMES),
        "personalities": {name: PERSONALITIES[name].summary
                          for name in spec.personalities},
        "rows": _rows(spec, suite_for),
    }


def ladder_markdown(report: dict) -> str:
    """Render the report as a per-core markdown table ladder."""
    lines = ["# Latency ladder", ""]
    spec = report["spec"]
    lines.append(
        f"Cycles per metric; {spec['iterations']} iterations, "
        f"seed {spec['seed']}. Metrics: context-switch latency "
        f"(ladder_switch, trigger to mret), interrupt-entry latency "
        f"(ladder_irq, trigger to handler entry), jitter "
        f"(ladder_jitter, max minus min switch latency).")
    lines.append("")
    for name, summary in report["personalities"].items():
        lines.append(f"- **{name}** — {summary}")
    for core in spec["cores"]:
        lines += ["", f"## {core}", "",
                  "| config | personality | switch mean | irq entry mean "
                  "| jitter | notes |",
                  "|---|---|---:|---:|---:|---|"]
        for row in report["rows"]:
            if row["core"] != core:
                continue
            if row.get("unsupported"):
                lines.append(
                    f"| {row['config']} | {row['personality']} | — | — | — "
                    f"| unsupported: {row['reason']} |")
            else:
                lines.append(
                    f"| {row['config']} | {row['personality']} "
                    f"| {row['switch_mean']:.1f} "
                    f"| {row['irq_entry_mean']:.1f} "
                    f"| {row['jitter']} | |")
    return "\n".join(lines) + "\n"


def write_ladder(report: dict, json_path: str = LADDER_JSON,
                 md_path: str | None = None) -> dict:
    """Write the enveloped JSON artifact (and optional markdown)."""
    from repro.harness.export import write_json
    from repro.perf.host import bench_record

    record = bench_record(LADDER_BENCH, report)
    write_json(json_path, record)
    if md_path:
        with open(md_path, "w") as handle:
            handle.write(ladder_markdown(report))
    return record
