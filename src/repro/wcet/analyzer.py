"""Worst-case ISR path analysis (paper §6.2).

The paper computes the ISR WCET by analysing "the longest instruction
path, assuming maximum latency for every instruction and accounting for
pipeline flushes and stalls due to dependencies", with eight delayed
tasks moved by the tick handler, and — for RTOSUnit FSM latency — "both
the hardware and ISR code, considering stalls from processor memory
accesses". Like the paper, the analysis targets CV32E40P only; WCET for
the out-of-order cores is out of scope.

This module reproduces that method mechanically: a depth-first
enumeration of all paths through the assembled ISR (and the helpers it
calls), loop iteration counts bounded by the ``#@ bound`` annotations the
kernel assembly carries, worst-case per-instruction latencies from the
core's timing parameters, and FSM completion modelled as
``entry + startup + words + (core memory operations so far)`` — the core
steals one port cycle per access (§4.2).
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from repro.errors import AnalysisError
from repro.cores.cv32e40p import CV32E40P
from repro.cores.base import CoreParams
from repro.isa.assembler import Program
from repro.isa.custom import CustomOp
from repro.isa.encoding import decode
from repro.isa.instructions import Instr
from repro.kernel.builder import KernelBuilder
from repro.kernel.tasks import KernelObjects, TaskSpec
from repro.mem.regions import CONTEXT_WORDS
from repro.rtosunit.config import RTOSUnitConfig

#: Safety valve against unbounded path enumeration.
_MAX_STEPS = 4_000_000


@dataclass(frozen=True)
class WCETResult:
    """Outcome of the analysis for one configuration."""

    config: str
    wcet_cycles: int
    paths_explored: int
    instructions_on_path: int


@dataclass(frozen=True)
class TimingBounds:
    """Static best- and worst-case ISR bounds for one configuration.

    ``jitter_bound`` (WCET − BCET) statically bounds Fig. 9's Δ: the
    measured jitter can never exceed it (trigger-to-take response time
    aside).
    """

    config: str
    bcet_cycles: int
    wcet_cycles: int

    @property
    def jitter_bound(self) -> int:
        return self.wcet_cycles - self.bcet_cycles


class WCETAnalyzer:
    """Enumerates ISR paths of an assembled kernel image."""

    def __init__(self, program: Program, config: RTOSUnitConfig,
                 params: CoreParams | None = None):
        self.program = program
        self.config = config
        self.params = params or CV32E40P.PARAMS
        self._decode_cache: dict[int, Instr] = {}
        self._bounds = self._collect_bounds()
        self._steps = 0
        self._paths = 0
        self._best = -1
        self._best_len = 0
        self._bcet = None
        self._minimise = False
        # Dominated-state pruning: per (pc, call stack, loop counters),
        # keep only Pareto-maximal (or -minimal, for BCET) states — a
        # state dominated on every axis cannot extend the bound.
        self._seen: dict[tuple, list[tuple[int, int, int]]] = {}

    def _collect_bounds(self) -> dict[int, int]:
        bounds = {}
        for addr, annotations in self.program.annotations.items():
            text = annotations.get("bound")
            if text is None:
                continue
            try:
                bounds[addr] = int(text, 0)
            except ValueError:
                bounds[addr] = self.program.symbol(text)
        return bounds

    def _fetch(self, addr: int) -> Instr:
        instr = self._decode_cache.get(addr)
        if instr is None:
            word = self.program.words.get(addr)
            if word is None:
                raise AnalysisError(f"path fell off the image at {addr:#x}")
            instr = decode(word, addr)
            self._decode_cache[addr] = instr
        return instr

    # -- entry point ----------------------------------------------------------------

    def analyze(self) -> WCETResult:
        """Worst-case cycles from interrupt trigger to mret completion."""
        self._run_walk(minimise=False)
        if self._best < 0:
            raise AnalysisError("no path reached mret")
        return WCETResult(config=self.config.name, wcet_cycles=self._best,
                          paths_explored=self._paths,
                          instructions_on_path=self._best_len)

    def bounds(self) -> TimingBounds:
        """Both static path bounds.

        BCET takes the cheapest feasible path (e.g. a yield with no
        delayed tasks to move) under its own Pareto-*minimal* pruning, so
        the jitter bound (WCET − BCET) covers all *path* variability.
        Per-instruction latencies are the same worst-case values in both
        directions; sub-instruction variance (e.g. a skipped load-use
        bubble) is not part of the bound.
        """
        worst = self.analyze()
        self._run_walk(minimise=True)
        if self._bcet is None:
            raise AnalysisError("no path reached mret")
        return TimingBounds(config=self.config.name,
                            bcet_cycles=self._bcet,
                            wcet_cycles=worst.wcet_cycles)

    def _run_walk(self, minimise: bool) -> None:
        entry = self.program.symbol("isr_entry")
        start = self.params.trap_entry_cycles
        self._steps = 0
        self._paths = 0
        self._best = -1
        self._best_len = 0
        self._bcet = None
        self._minimise = minimise
        self._seen = {}
        self._walk(pc=entry, cycles=start, mem_ops=0, length=0,
                   call_stack=(), loop_counts={}, set_cycle=None)

    # -- DFS -------------------------------------------------------------------------

    def _walk(self, pc: int, cycles: int, mem_ops: int, length: int,
              call_stack: tuple, loop_counts: dict, set_cycle) -> None:
        params = self.params
        while True:
            self._steps += 1
            if self._steps > _MAX_STEPS:
                raise AnalysisError(
                    "path enumeration exceeded the step budget; missing "
                    "#@ bound annotation?")
            bound = self._bounds.get(pc)
            if bound is not None:
                count = loop_counts.get(pc, 0) + 1
                if count > bound:
                    return  # over-iteration: infeasible path
                loop_counts = dict(loop_counts)
                loop_counts[pc] = count
            instr = self._fetch(pc)
            if instr.is_branch or bound is not None:
                if self._dominated(pc, call_stack, loop_counts, cycles,
                                   mem_ops, set_cycle):
                    return
            mnemonic = instr.mnemonic
            length += 1
            if mnemonic == "mret":
                self._finish(cycles, mem_ops, length, set_cycle)
                return
            if instr.fmt == "CUSTOM":
                cycles, set_cycle = self._custom_cost(
                    instr, cycles, mem_ops, set_cycle)
                pc += 4
                continue
            cycles += 1
            if instr.is_load:
                cycles += params.load_result_latency  # worst: consumer next
                mem_ops += 1
                pc += 4
            elif instr.is_store:
                mem_ops += 1
                pc += 4
            elif mnemonic == "jal":
                cycles += params.jump_penalty
                target = (pc + instr.imm) & 0xFFFFFFFF
                if target == pc:
                    return  # spin loop (panic/halt): not a switch path
                if instr.rd == 1:
                    call_stack = call_stack + (pc + 4,)
                pc = target
            elif mnemonic == "jalr":
                cycles += params.jump_penalty
                if instr.rd == 0 and instr.rs1 == 1:
                    if not call_stack:
                        raise AnalysisError(
                            f"return at {pc:#x} with empty call stack")
                    pc = call_stack[-1]
                    call_stack = call_stack[:-1]
                else:
                    raise AnalysisError(
                        f"indirect jump at {pc:#x} is not analysable")
            elif instr.is_branch:
                # Fork: taken (with penalty) and fall-through.
                taken_pc = (pc + instr.imm) & 0xFFFFFFFF
                self._walk(taken_pc, cycles + params.branch_taken_penalty,
                           mem_ops, length, call_stack, loop_counts,
                           set_cycle)
                pc += 4
            elif mnemonic in ("div", "divu", "rem", "remu"):
                cycles += params.div_cycles
                pc += 4
            elif mnemonic in ("mul", "mulh", "mulhsu", "mulhu"):
                cycles += params.mul_latency
                pc += 4
            elif instr.fmt in ("CSR", "CSRI"):
                cycles += params.csr_cycles - 1
                pc += 4
            elif mnemonic in ("ecall", "ebreak", "wfi"):
                return  # panic/halt paths do not bound the switch
            else:
                pc += 4

    def _dominated(self, pc: int, call_stack: tuple, loop_counts: dict,
                   cycles: int, mem_ops: int, set_cycle) -> bool:
        key = (pc, call_stack, tuple(sorted(loop_counts.items())))
        state = (cycles, mem_ops, -1 if set_cycle is None else set_cycle)
        if self._minimise:
            state = tuple(-value for value in state)
        frontier = self._seen.setdefault(key, [])
        for other in frontier:
            if all(o >= s for o, s in zip(other, state)):
                return True
        frontier[:] = [other for other in frontier
                       if not all(s >= o for s, o in zip(state, other))]
        frontier.append(state)
        return False

    def _custom_cost(self, instr: Instr, cycles: int, mem_ops: int,
                     set_cycle):
        """Worst-case cost of a custom instruction; tracks restore kicks."""
        op = CustomOp[instr.mnemonic.split(".", 1)[1].upper()]
        cycles += 1
        if op == CustomOp.GET_HW_SCHED:
            # Worst case: the sort network is still settling from the
            # tick-triggered releases at interrupt entry.
            settle = self.params.trap_entry_cycles + self.config.list_length
            cycles = max(cycles, settle)
            set_cycle = cycles
        elif op == CustomOp.SET_CONTEXT_ID:
            set_cycle = cycles
        elif op == CustomOp.SWITCH_RF:
            cycles = max(cycles, self._store_done(mem_ops))
            cycles += self.params.trap_entry_cycles // 2  # pipeline restart
        return cycles, set_cycle

    def _store_done(self, mem_ops: int) -> int:
        """Store-FSM completion: startup + words + stolen port cycles."""
        words = CONTEXT_WORDS  # dirty bits do not improve the *worst* case
        return self.params.trap_entry_cycles + 1 + words + mem_ops

    def _finish(self, cycles: int, mem_ops: int, length: int,
                set_cycle) -> None:
        params = self.params
        end = cycles + params.mret_cycles
        if self.config.store and self.config.load:
            restore_start = (set_cycle if set_cycle is not None
                             else params.trap_entry_cycles)
            if self._minimise and self.config.omit:
                # Best case with load omission: the same task resumes,
                # the APP RF is already correct — no FSM wait at all.
                restore_done = 0
            elif self.config.preload and self._minimise:
                # Best case: a preload hit — the restore happened in
                # lockstep with the store; mret waits for the store only.
                restore_done = self._store_done(mem_ops)
            else:
                restore_done = (max(self._store_done(mem_ops), restore_start)
                                + 1 + CONTEXT_WORDS)
            end = max(end, restore_done + params.mret_cycles)
        self._paths += 1
        if end > self._best:
            self._best = end
            self._best_len = length
        if self._bcet is None or end < self._bcet:
            self._bcet = end


def analyze_bounds(config: RTOSUnitConfig,
                   delayed_tasks: int = 8) -> TimingBounds:
    """Static BCET/WCET bounds for a representative kernel's ISR."""
    return _build_analyzer(config, delayed_tasks).bounds()


def analyze_config(config: RTOSUnitConfig,
                   delayed_tasks: int = 8) -> WCETResult:
    """Build a representative kernel and analyse its ISR WCET.

    ``delayed_tasks`` sets the worst-case number of tasks the tick must
    move from the delay list to the ready lists (the paper assumes 8).
    """
    return _build_analyzer(config, delayed_tasks).analyze()


_DELAY_WAKE_BOUND_RE = re.compile(r"^\.equ DELAY_WAKE_BOUND, .*$", re.M)


def analysis_source(config: RTOSUnitConfig,
                    delayed_tasks: int = 8) -> tuple[str, int]:
    """The representative kernel the analyser assembles, and its origin.

    The builder renders ``DELAY_WAKE_BOUND`` from ``config.list_length``;
    the source returned bounds the delay-list wake loop by
    *delayed_tasks* instead, whatever the rendered value.
    """
    objects = KernelObjects(tasks=[TaskSpec(
        "w", "task_w:\nw_loop:\n    j    w_loop\n", priority=1)])
    builder = KernelBuilder(config=config, objects=objects)
    source, found = _DELAY_WAKE_BOUND_RE.subn(
        f".equ DELAY_WAKE_BOUND, {delayed_tasks}", builder.source(), count=1)
    if not found:
        raise AnalysisError("kernel source defines no DELAY_WAKE_BOUND")
    return source, builder.layout.text_base


def _build_analyzer(config: RTOSUnitConfig,
                    delayed_tasks: int) -> WCETAnalyzer:
    from repro.isa.assembler import assemble

    source, origin = analysis_source(config, delayed_tasks)
    return WCETAnalyzer(assemble(source, origin=origin), config)
