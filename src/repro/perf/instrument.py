"""Simulator-performance instrumentation (``repro profile``).

Measures how fast the *simulator* runs — instructions per host-second,
block-cache behaviour, slow-path ratio — as opposed to the simulated
metrics the rest of the harness reports. Used interactively to find
regressions and by ``benchmarks/test_core_speed.py`` for the CI gate.

Three measurement modes compose:

* plain wall-clock timing of ``System.run`` (block dispatch on or off),
* per-opcode cycle attribution via a step hook — which forces the exact
  per-instruction path by design, so the breakdown reflects the
  reference interpreter,
* an optional cProfile capture of the hottest simulator functions.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from repro.isa.instructions import opclass
from repro.kernel.builder import KernelBuilder
from repro.rtosunit.config import RTOSUnitConfig
from repro.workloads.suite import Workload


@dataclass
class PerfReport:
    """One timed simulation run plus its interpreter counters."""

    core: str
    config: str
    workload: str
    iterations: int
    blocks: bool
    wall_s: float
    cycles: int
    instret: int
    counters: dict
    #: ``(trigger, entry, mret)`` cycles of every context switch.
    switches: list = field(default_factory=list)
    #: ``vars(core.stats)`` at the end of the run.
    core_stats: dict = field(default_factory=dict)
    opcode_cycles: dict = field(default_factory=dict)
    opcode_counts: dict = field(default_factory=dict)
    block_report: dict = field(default_factory=dict)
    profile_text: str = ""

    @property
    def ips(self) -> float:
        """Simulated instructions per host second."""
        return self.instret / self.wall_s if self.wall_s else 0.0

    @property
    def cps(self) -> float:
        """Simulated cycles per host second."""
        return self.cycles / self.wall_s if self.wall_s else 0.0

    def as_dict(self) -> dict:
        return {
            "core": self.core,
            "config": self.config,
            "workload": self.workload,
            "iterations": self.iterations,
            "blocks": self.blocks,
            "wall_s": self.wall_s,
            "cycles": self.cycles,
            "instret": self.instret,
            "ips": self.ips,
            "counters": self.counters,
            "opcode_cycles": dict(self.opcode_cycles),
            "opcode_counts": dict(self.opcode_counts),
            "block_report": dict(self.block_report),
        }


class OpcodeAttributor:
    """Step hook attributing simulated cycles to opcode classes.

    Attaching a step hook disables block dispatch (the exactness
    contract), so the attribution always observes the reference
    per-instruction path. Cycles consumed by trap entry are booked to a
    synthetic ``trap`` class; cycles of instructions the decoder cannot
    classify (custom ops) land in ``custom`` via :func:`opclass`.
    """

    def __init__(self) -> None:
        self.cycles: dict[str, int] = {}
        self.counts: dict[str, int] = {}
        self._last_class: str | None = None
        self._last_cycle = 0
        self._last_traps = 0

    def __call__(self, core) -> None:
        cycle = core.cycle
        traps = core.stats.traps
        if self._last_class is not None:
            delta = cycle - self._last_cycle
            label = self._last_class
            if traps != self._last_traps:
                label = "trap"
            self.cycles[label] = self.cycles.get(label, 0) + delta
        try:
            instr = core._fetch(core.pc)
            cls = opclass(instr.mnemonic, instr.fmt)
        except Exception:
            cls = "unknown"
        self.counts[cls] = self.counts.get(cls, 0) + 1
        self._last_class = cls
        self._last_cycle = cycle
        self._last_traps = traps

    def finish(self, core) -> None:
        """Attribute the cycles of the final instruction."""
        if self._last_class is not None:
            delta = core.cycle - self._last_cycle
            self.cycles[self._last_class] = (
                self.cycles.get(self._last_class, 0) + delta)
            self._last_class = None


def profile_workload(core: str, config: RTOSUnitConfig, workload: Workload,
                     *, blocks: bool = True, opcodes: bool = False,
                     cprofile: bool = False, block_stats: bool = False,
                     iterations: int = 0) -> PerfReport:
    """Build, run and time one workload; return the performance report.

    ``blocks=False`` detaches the block engine, timing the exact path.
    ``opcodes`` attaches the cycle attributor — which forces the exact
    path. ``cprofile`` captures a host-level profile of the hottest
    simulator functions. ``block_stats`` turns on the engine's per-PC
    slow-path counter and fills :attr:`PerfReport.block_report` with
    cache hit rate, the chained block transitions, the fast-forwarded
    spin-loop iterations and the top slow PCs classified by opcode —
    the starting data for a slow-path hunt (docs/PERF.md).

    Profiling builds its own system below
    :func:`repro.harness.run_workload`, so it can attach the cycle
    attributor and block statistics before the run; the timed region is
    the cold simulation alone.
    """
    builder = KernelBuilder(config=config, objects=workload.objects,
                            tick_period=workload.tick_period)
    system = builder.build(core, external_events=workload.external_events)
    cpu = system.core
    if not blocks:
        cpu.block_engine = None
    if block_stats and cpu.block_engine is not None:
        cpu.block_engine.slow_counts = {}
    attributor = None
    if opcodes:
        attributor = OpcodeAttributor()
        cpu.step_hook = attributor
    profiler = None
    if cprofile:
        import cProfile

        profiler = cProfile.Profile()
        profiler.enable()
    start = time.perf_counter()
    system.run(workload.max_cycles)
    wall = time.perf_counter() - start
    profile_text = ""
    if profiler is not None:
        import io
        import pstats

        profiler.disable()
        stream = io.StringIO()
        pstats.Stats(profiler, stream=stream).sort_stats(
            "cumulative").print_stats(20)
        profile_text = stream.getvalue()
    if attributor is not None:
        attributor.finish(cpu)
    block_report = {}
    if block_stats and cpu.block_engine is not None:
        block_report = _block_report(cpu)
    return PerfReport(
        core=core,
        config=config.name,
        workload=workload.name,
        iterations=iterations,
        # A step hook (the attributor) forces the exact path even with an
        # engine attached — report what actually executed.
        blocks=cpu.block_engine is not None and not opcodes,
        wall_s=wall,
        cycles=cpu.cycle,
        instret=cpu.stats.instret,
        counters=cpu.perf_counters(),
        switches=list(cpu.switch_events),
        core_stats=dict(vars(cpu.stats)),
        opcode_cycles=attributor.cycles if attributor else {},
        opcode_counts=attributor.counts if attributor else {},
        block_report=block_report,
        profile_text=profile_text,
    )


#: Slow PCs reported by ``repro profile --blocks``.
TOP_SLOW_PCS = 10


def _block_report(cpu) -> dict:
    """Block-cache, chaining and spin-loop telemetry for one finished run.

    The top slow PCs are ranked by exact-path dispatch count; each is
    classified via :func:`repro.isa.instructions.opclass` so the report
    says *what kind* of instruction keeps falling off the fast path
    (sync, custom, trap return, ...), not just where.
    """
    engine = cpu.block_engine
    counters = engine.counters()
    ranked = sorted((engine.slow_counts or {}).items(),
                    key=lambda kv: (-kv[1], kv[0]))[:TOP_SLOW_PCS]
    slow_rows = []
    for pc, count in ranked:
        try:
            instr = cpu._fetch(pc)
            mnemonic = instr.mnemonic
            cls = opclass(mnemonic, instr.fmt)
        except Exception:
            mnemonic, cls = "?", "unknown"
        slow_rows.append({"pc": pc, "count": count,
                          "mnemonic": mnemonic, "opclass": cls})
    return {
        "hit_rate": counters["block_hit_rate"],
        "blocks_cached": counters["blocks_cached"],
        "chained": counters["chained"],
        "spin_skipped": counters["spin_skipped"],
        "slow_pcs": slow_rows,
    }


def format_report(report: PerfReport) -> str:
    """Human-readable rendering for the ``repro profile`` verb."""
    c = report.counters
    lines = [
        f"{report.workload} on {report.core}/{report.config} "
        f"(iterations={report.iterations}, "
        f"blocks={'on' if report.blocks else 'off'})",
        f"  wall            {report.wall_s * 1000.0:10.1f} ms",
        f"  instructions    {report.instret:10d}  "
        f"({report.ips / 1000.0:.0f}k instr/s)",
        f"  cycles          {report.cycles:10d}  "
        f"({report.cps / 1000.0:.0f}k cycles/s)",
        f"  slow-path ratio {c['slow_ratio'] * 100.0:10.1f} %  "
        f"({c['slow_instret']} of {c['instret']} instructions)",
        f"  block cache     {c['block_hits']} hits / {c['block_misses']} "
        f"misses (hit rate {c['block_hit_rate'] * 100.0:.1f}%), "
        f"{c['blocks_cached']}/{c['block_capacity']} cached, "
        f"{c['block_evictions']} evictions, "
        f"{c['invalidations']} invalidations",
        f"  decode cache    {c['decode_cache_size']}/"
        f"{c['decode_cache_capacity']} entries, "
        f"{c['decode_cache_evictions']} evictions",
    ]
    if report.block_report:
        b = report.block_report
        lines.append(
            f"  block chaining  {b['chained']} transitions inside the "
            f"executors (hit rate {b['hit_rate'] * 100.0:.1f}%, "
            f"{b['blocks_cached']} blocks cached)")
        lines.append(
            f"  spin loops      {b['spin_skipped']} iterations "
            f"fast-forwarded by dispatch")
        if b["slow_pcs"]:
            lines.append("  top slow-path PCs (exact-path dispatches):")
            for row in b["slow_pcs"]:
                lines.append(
                    f"    {row['pc']:#010x} {row['count']:8d}  "
                    f"{row['mnemonic']:12s} [{row['opclass']}]")
    if report.opcode_cycles:
        lines.append("  cycles by opcode class (exact path):")
        total = sum(report.opcode_cycles.values()) or 1
        ranked = sorted(report.opcode_cycles.items(),
                        key=lambda kv: -kv[1])
        for name, cycles in ranked:
            count = report.opcode_counts.get(name, 0)
            lines.append(f"    {name:8s} {cycles:10d} cycles "
                         f"({cycles / total * 100.0:5.1f}%)  "
                         f"{count} instructions")
    if report.profile_text:
        lines.append("")
        lines.append(report.profile_text.rstrip())
    return "\n".join(lines)


def first_difference(on: PerfReport, off: PerfReport) -> str | None:
    """The first simulated result on which *on* and *off* differ, or None.

    Compares the final cycle count and retired instructions, every
    context switch's trigger, entry and mret cycles, and every core
    statistic, in that order.
    """
    if on.cycles != off.cycles:
        return f"cycles {on.cycles} != {off.cycles}"
    if on.instret != off.instret:
        return f"instret {on.instret} != {off.instret}"
    if len(on.switches) != len(off.switches):
        return f"switches {len(on.switches)} != {len(off.switches)}"
    for index, (a, b) in enumerate(zip(on.switches, off.switches)):
        for name, x, y in zip(("trigger", "entry", "mret"), a, b):
            if x != y:
                return f"switch {index} {name} cycle {x} != {y}"
    for name, x in on.core_stats.items():
        y = off.core_stats[name]
        if x != y:
            return f"stats.{name} {x} != {y}"
    return None


def compare_reports(on: PerfReport, off: PerfReport) -> str:
    """Render an on/off pair with the identity + speedup summary."""
    diff = first_difference(on, off)
    speedup = on.ips / off.ips if off.ips else 0.0
    verdict = ("cycles, switches and core stats identical" if diff is None
               else f"DIFFER -- BUG: {diff} (blocks on vs off)")
    return "\n".join([
        format_report(off),
        "",
        format_report(on),
        "",
        f"  speedup         {speedup:10.2f} x  ({verdict})",
    ])
