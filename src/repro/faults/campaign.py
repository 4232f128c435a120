"""Seeded fault-injection campaigns over the (core, config) grid.

For every (core, configuration, workload) combination the campaign first
runs a fault-free *golden* simulation to obtain a behavioural signature
(exit code, console output, context-switch count) and the cycle horizon,
then replays the workload once per fault with the injector, invariant
checker and hang guards attached, classifying each run:

``masked``
    completed with the golden signature; the fault had no observable
    effect.
``detected``
    an invariant checker fired, the workload's self-checks failed (exit
    ``0xBAD``), the kernel panicked (exit ``0xDEAD``), or the simulated
    hardware rejected an impossible operation.
``silent``
    completed "successfully" but with a behaviour that differs from the
    golden run — the dangerous class.
``hang``
    terminated by the livelock detector or the cycle budget.
``crash``
    wild execution: invalid fetch/decode, out-of-range memory access, or
    a corrupted identifier escaping the modelled hardware.

The resilience table shows how hardware-scheduled configs (T/SLT) shift
the detected-vs-silent balance versus vanilla: moving scheduler state
into the RTOSUnit trades software-visible corruption for hardware-visible
(checkable) corruption.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.cores import CORE_NAMES
from repro.errors import (
    DecodeError,
    MemoryError_,
    ReproError,
    SimulationError,
)
from repro.faults.guards import ProgressGuard
from repro.faults.injector import FaultInjector
from repro.faults.invariants import InvariantChecker
from repro.faults.model import FaultSpec, derive_seed, generate_faults
from repro.kernel.builder import KernelBuilder
from repro.rtosunit.config import parse_config
from repro.workloads import workload_by_name

#: Outcome classes, in report order.
OUTCOMES: tuple[str, ...] = ("masked", "detected", "silent", "hang", "crash")

#: mem_flip target index of the canary-smash targeted fault (task 0's
#: stack guard word); resolved against the layout at injection time.
_CANARY_TASK = 0


@dataclass(frozen=True)
class Signature:
    """Behavioural signature of a completed run."""

    exit_code: int
    console: str
    switches: int


@dataclass(frozen=True)
class FaultResult:
    """Outcome of one faulted run."""

    core: str
    config: str
    workload: str
    fault: FaultSpec
    outcome: str
    detail: str


@dataclass
class CampaignResult:
    """All outcomes of one campaign, plus the seed that reproduces it."""

    seed: int
    results: list[FaultResult] = field(default_factory=list)
    golden_cycles: dict[tuple[str, str, str], int] = field(default_factory=dict)

    def counts(self) -> dict[tuple[str, str], dict[str, int]]:
        """Outcome counts per (core, config), aggregated over workloads."""
        table: dict[tuple[str, str], dict[str, int]] = {}
        for result in self.results:
            row = table.setdefault((result.core, result.config),
                                   {outcome: 0 for outcome in OUTCOMES})
            row[result.outcome] += 1
        return table

    def outcome_classes(self) -> set[str]:
        return {result.outcome for result in self.results}


@dataclass
class CampaignSpec:
    """Parameters of one campaign sweep."""

    seed: int = 42
    cores: tuple[str, ...] = CORE_NAMES
    configs: tuple[str, ...] = ("vanilla", "T", "SLT")
    workloads: tuple[str, ...] = ("yield_pingpong", "delay_periodic")
    iterations: int = 6
    faults_per_combo: int = 8
    targeted: bool = True
    window: int = 50_000
    check_interval: int = 1024

    @classmethod
    def quick(cls, seed: int = 42) -> "CampaignSpec":
        """A small, fast sweep still covering vanilla vs hardware-sched."""
        return cls(seed=seed, cores=("cv32e40p",),
                   configs=("vanilla", "SLT"),
                   workloads=("yield_pingpong", "delay_periodic"),
                   iterations=5, faults_per_combo=6)


# -- execution ---------------------------------------------------------------------


def _run_faulted(core_name: str, workload, builder: KernelBuilder,
                 faults: list[FaultSpec], budget: int, window: int,
                 check_interval: int):
    """One instrumented run; returns (signature|None, checker, error|None)."""
    system = builder.build(core_name,
                           external_events=workload.external_events)
    symbols = builder.program().symbols
    injector = FaultInjector(system, faults, symbols=symbols)
    checker = InvariantChecker(system, n_tasks=len(builder.tasks),
                               symbols=symbols)
    system.core.guard = ProgressGuard(window=window, cycle_budget=budget)
    steps = [0]

    def hook(core):
        injector.on_step(core)
        steps[0] += 1
        if steps[0] % check_interval == 0:
            checker.check()

    system.core.step_hook = hook
    try:
        exit_code = system.core.run(max_cycles=budget + window + 1)
    except Exception as exc:  # classified below; nothing escapes bare
        return None, checker, exc
    checker.check()
    signature = Signature(exit_code=exit_code, console=system.console_text,
                          switches=len(system.core.switch_events))
    return signature, checker, None


def _classify(signature, checker, error, golden: Signature) -> tuple[str, str]:
    """Map one run's evidence to (outcome, detail)."""
    if error is not None:
        if isinstance(error, SimulationError) and error.kind in (
                "livelock", "cycle-budget"):
            return "hang", str(error).splitlines()[0]
        if isinstance(error, (MemoryError_, DecodeError)):
            return "crash", f"{type(error).__name__}: {error}"
        if isinstance(error, ReproError):
            # The modelled hardware rejected an impossible operation
            # (empty ready list, invalid custom-op state, ...): detected.
            return "detected", f"{type(error).__name__}: {error}"
        return "crash", f"{type(error).__name__}: {error}"
    if checker.violations:
        return "detected", str(checker.violations[0])
    if signature.exit_code in (0xBAD, 0xDEAD):
        reason = ("self-check failure" if signature.exit_code == 0xBAD
                  else "kernel panic")
        return "detected", f"exit {signature.exit_code:#x} ({reason})"
    if signature == golden:
        return "masked", "behaviour identical to golden run"
    return "silent", (
        f"exit={signature.exit_code:#x} switches={signature.switches} "
        f"vs golden exit={golden.exit_code:#x} switches={golden.switches}")


def _targeted_faults(layout, horizon: int) -> list[FaultSpec]:
    """Deterministic probes guaranteeing campaign coverage of the
    interesting corruption sites (canary, resume PC, interrupt enable,
    live register state)."""
    canary_addr = layout.stack_base + _CANARY_TASK * layout.stack_words * 4
    mid, late = horizon // 3, (2 * horizon) // 3
    return [
        FaultSpec("mem_flip", mid, target=canary_addr, bit=7,
                  note="stack canary smash"),
        FaultSpec("csr_flip", mid, target=1, bit=21,
                  note="mepc high bit (wild resume)"),
        FaultSpec("csr_flip", late, target=0, bit=3,
                  note="mstatus.MIE flip (interrupt suppression)"),
        FaultSpec("reg_flip", late, target=8, bit=1,
                  note="live s0 flip (loop counter)"),
    ]


@dataclass(frozen=True)
class _FaultTask:
    """One faulted run, fully specified by picklable values.

    Carries everything a pool worker needs to rebuild the combination
    from scratch (config/workload by name) and classify the outcome
    against the golden signature.
    """

    core: str
    config: str
    workload: str
    iterations: int
    fault: FaultSpec
    budget: int
    window: int
    check_interval: int
    golden: Signature


def run_fault_task(task: _FaultTask) -> FaultResult:
    """Execute and classify one faulted run; the ``--jobs`` pool worker.

    Rebuilds the combination from the task; the kernel build cache
    serves the assembled image after the first run of a combination.
    """
    workload = workload_by_name(task.workload, iterations=task.iterations)
    builder = KernelBuilder(config=parse_config(task.config),
                            objects=workload.objects,
                            tick_period=workload.tick_period)
    signature, checker, error = _run_faulted(
        task.core, workload, builder, [task.fault], task.budget,
        task.window, task.check_interval)
    outcome, detail = _classify(signature, checker, error, task.golden)
    return FaultResult(core=task.core, config=task.config,
                       workload=task.workload, fault=task.fault,
                       outcome=outcome, detail=detail)


def run_campaign(spec: CampaignSpec, progress=None,
                 jobs: int = 1) -> CampaignResult:
    """Execute the full sweep; deterministic for a given *spec*.

    The golden (fault-free) reference runs stay serial; with
    ``jobs > 1`` the per-fault replays fan out over the
    :func:`repro.dse.executor.parallel_map` process pool. Results are
    appended in grid order either way, so the campaign table and JSON
    are byte-identical across ``jobs``.
    """
    campaign = CampaignResult(seed=spec.seed)
    tasks: list[_FaultTask] = []
    for core_name in spec.cores:
        for config_name in spec.configs:
            config = parse_config(config_name)
            for workload_name in spec.workloads:
                workload = workload_by_name(workload_name,
                                            iterations=spec.iterations)
                builder = KernelBuilder(config=config,
                                        objects=workload.objects,
                                        tick_period=workload.tick_period)
                system = builder.build(
                    core_name, external_events=workload.external_events)
                exit_code = system.run(max_cycles=workload.max_cycles)
                golden = Signature(exit_code=exit_code,
                                   console=system.console_text,
                                   switches=len(system.core.switch_events))
                horizon = system.core.cycle
                key = (core_name, config_name, workload_name)
                campaign.golden_cycles[key] = horizon
                budget = 3 * horizon + 8 * spec.window
                faults = generate_faults(
                    derive_seed(spec.seed, *key), spec.faults_per_combo,
                    max(horizon * 3 // 4, 501), layout=builder.layout)
                if spec.targeted:
                    faults = faults + _targeted_faults(builder.layout, horizon)
                for fault in faults:
                    tasks.append(_FaultTask(
                        core=core_name, config=config_name,
                        workload=workload_name, iterations=spec.iterations,
                        fault=fault, budget=budget, window=spec.window,
                        check_interval=spec.check_interval, golden=golden))
    if jobs <= 1:
        for task in tasks:
            campaign.results.append(run_fault_task(task))
            if progress is not None:
                progress(campaign.results[-1])
    else:
        from repro.dse.executor import parallel_map

        campaign.results.extend(parallel_map(run_fault_task, tasks,
                                             jobs=jobs))
        if progress is not None:
            for result in campaign.results:
                progress(result)
    return campaign


# -- reporting ---------------------------------------------------------------------


def format_campaign(campaign: CampaignResult) -> str:
    """Render the per-(core, config) resilience table, byte-stable."""
    from repro.analysis.reporting import format_table

    rows = []
    for (core, config), counts in campaign.counts().items():
        total = sum(counts.values())
        rows.append((core, config) + tuple(counts[o] for o in OUTCOMES)
                    + (total,))
    header = ("core", "config") + OUTCOMES + ("total",)
    lines = [f"Fault campaign (seed {campaign.seed}): outcome classes "
             f"per core x config",
             "",
             format_table(header, rows)]
    classes = sorted(campaign.outcome_classes())
    lines.append("")
    lines.append(f"outcome classes observed: {', '.join(classes)}")
    return "\n".join(lines)


def campaign_dict(campaign: CampaignResult) -> dict:
    """JSON-ready representation of every outcome (for --json export)."""
    return {
        "seed": campaign.seed,
        "outcomes": [
            {
                "core": r.core,
                "config": r.config,
                "workload": r.workload,
                "fault": r.fault.describe(),
                "outcome": r.outcome,
                "detail": r.detail,
            }
            for r in campaign.results
        ],
        "golden_cycles": {
            "/".join(key): cycles
            for key, cycles in campaign.golden_cycles.items()
        },
    }
