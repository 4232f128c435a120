"""Functional RV32IM_Zicsr execution plus a parameterised timing engine.

``BaseCore`` executes instructions functionally (architectural state is
exact) while a per-register-availability timing model assigns cycles.
Subclasses configure :class:`CoreParams` and override the cache/branch
hooks; :class:`repro.cores.naxriscv.NaxRiscv` replaces larger parts of the
timing engine to model out-of-order issue.

Register banking (§4.2): with context storing enabled the core has two
register banks. Bank 0 is the application (APP) RF — the only bank the
RTOSUnit is wired to, via the sparse MUX structure — and bank 1 the ISR
RF. Interrupt entry switches to the ISR bank; ``SWITCH_RF`` (store-only
configs) or ``mret`` (store+load) switches back.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.isa import csr as csrmod
from repro.isa.csr import CSRFile
from repro.isa.custom import CustomOp
from repro.isa.encoding import decode
from repro.isa.instructions import FMT_CUSTOM, Instr
from repro.mem.memory import Memory
from repro.mem.timeline import MemoryTimeline
from repro.rtosunit.config import RTOSUnitConfig
from repro.rtosunit.unit import RTOSUnit
from repro.util import LRUCache

MASK32 = 0xFFFFFFFF


def _sgn(value: int) -> int:
    """Interpret a 32-bit value as signed."""
    return value - 0x1_0000_0000 if value & 0x8000_0000 else value


def _divrem(mnemonic: str, rs1: int, rs2: int) -> int:
    """RISC-V division semantics, including divide-by-zero and overflow."""
    if mnemonic == "div":
        if rs2 == 0:
            return MASK32
        lhs, rhs = _sgn(rs1), _sgn(rs2)
        if lhs == -(1 << 31) and rhs == -1:
            return 1 << 31
        quotient = abs(lhs) // abs(rhs)
        return quotient if (lhs < 0) == (rhs < 0) else -quotient
    if mnemonic == "divu":
        return MASK32 if rs2 == 0 else rs1 // rs2
    if mnemonic == "rem":
        if rs2 == 0:
            return rs1
        lhs, rhs = _sgn(rs1), _sgn(rs2)
        if lhs == -(1 << 31) and rhs == -1:
            return 0
        remainder = abs(lhs) % abs(rhs)
        return remainder if lhs >= 0 else -remainder
    return rs1 if rs2 == 0 else rs1 % rs2  # remu


@dataclass
class CoreParams:
    """Timing parameters of one microarchitecture."""

    name: str = "generic"
    issue_width: int = 1
    trap_entry_cycles: int = 4
    mret_cycles: int = 4
    branch_taken_penalty: int = 2
    branch_mispredict_penalty: int = 0  # used by predictor-equipped cores
    has_branch_predictor: bool = False
    jump_penalty: int = 1
    load_result_latency: int = 1   # extra cycles before a load's rd is usable
    mul_latency: int = 1
    div_cycles: int = 32           # non-pipelined divider occupancy
    csr_cycles: int = 1
    custom_commit_delay: int = 0   # OoO cores execute custom ops at commit
    switch_rf_restart_cycles: int = 2  # pipeline restart after SWITCH_RF
    cache_hit_latency: int = 0     # extra load latency on a D$ hit
    cache_miss_penalty: int = 0
    cache_line_words: int = 8
    store_bus_cycles: int = 1      # port cycles per store visible on the bus


@dataclass
class CoreStats:
    """Per-run activity counters (also feed the ASIC power model)."""

    instret: int = 0
    loads: int = 0
    stores: int = 0
    branches: int = 0
    taken_branches: int = 0
    mispredicts: int = 0
    custom_ops: int = 0
    traps: int = 0
    mrets: int = 0
    reg_writes: int = 0
    stall_cycles: int = 0


class BaseCore:
    """In-order scalar core with per-register availability timing."""

    PARAMS = CoreParams()
    #: LRU bounds for the per-PC decode cache and the basic-block cache.
    #: Far above any real program here — eviction is a memory safety net
    #: for long fault campaigns, not a working-set knob.
    DECODE_CACHE_CAPACITY = 1 << 16
    BLOCK_CACHE_CAPACITY = 4096

    def __init__(self, memory: Memory, config: RTOSUnitConfig,
                 unit: RTOSUnit | None = None,
                 params: CoreParams | None = None):
        self.mem = memory
        self.config = config
        self.unit = unit
        self.params = params or self.PARAMS
        self.timeline = (unit.timeline if unit is not None
                         else MemoryTimeline(consumed=False))
        needs_banking = config.store and not config.cv32rt
        self.banks: list[list[int]] = [[0] * 32]
        if needs_banking:
            self.banks.append([0] * 32)
        self.active_bank = 0
        self.csr = CSRFile()
        self.pc = 0
        # ``cycle`` is the issue/retire cycle of the last instruction.
        self.cycle = 0
        self.next_issue = 1
        self.reg_avail = [0] * 32
        self.dirty_mask = 0
        self.in_isr = False
        self.halted = False
        self.exit_code: int | None = None
        self.stats = CoreStats()
        self.clint = None  # attached by the System
        #: Address ranges the core must not cache (e.g. the context region
        #: on CVA6, where the RTOSUnit writes at the bus level).
        self.uncached_ranges: list[tuple[int, int]] = []
        self._decode_cache: LRUCache = LRUCache(self.DECODE_CACHE_CAPACITY)
        self._trap_trigger_cycle: int | None = None
        self._trap_entry_cycle: int = 0
        self.switch_events: list[tuple[int, int, int]] = []  # (trigger, entry, mret_done)
        #: Optional tracer (repro.cores.tracing.Tracer); None = no cost.
        self.tracer = None
        #: Optional per-step callback ``hook(core)`` invoked before each
        #: instruction in :meth:`run` — the fault injector and invariant
        #: checkers of ``repro.faults`` attach here. None = no cost.
        self.step_hook = None
        #: Optional progress guard (repro.faults.guards.ProgressGuard)
        #: consulted each step in :meth:`run`; raises a structured
        #: SimulationError on livelock or budget exhaustion.
        self.guard = None
        #: Optional one-shot observer ``hook(core)`` fired at the end of
        #: every completed context switch (after ``mret`` fully retires,
        #: with all state — including ``instret`` — settled). Tests
        #: attach here to checkpoint a run mid-flight; it is passive and
        #: does not force the exact path. None = no cost.
        self.switch_hook = None
        from repro.cores.blocks import BlockEngine

        #: Basic-block predecoded dispatch (repro.cores.blocks); None
        #: forces the per-instruction path. Architecturally invisible —
        #: the differential tests assert byte-identical runs either way.
        self.block_engine = BlockEngine(self)
        if unit is not None:
            unit.attach(self)

    # -- register banks -----------------------------------------------------------

    @property
    def regs(self) -> list[int]:
        return self.banks[self.active_bank]

    @property
    def app_bank(self) -> list[int]:
        return self.banks[0]

    def _write_reg(self, rd: int, value: int) -> None:
        if rd == 0:
            return
        self.regs[rd] = value & MASK32
        self.stats.reg_writes += 1
        if self.active_bank == 0 and self.config.dirty:
            self.dirty_mask |= 1 << rd

    # -- main loop ------------------------------------------------------------------

    def step(self) -> None:
        """Take a pending interrupt if any, then execute one instruction."""
        if self._maybe_take_interrupt():
            return
        instr = self._fetch(self.pc)
        if self.tracer is not None:
            self.tracer.on_instr(self, instr)
        mnemonic = instr.mnemonic
        if instr.fmt == FMT_CUSTOM:
            self._step_custom(instr)
        elif mnemonic == "mret":
            # instret is counted inside _step_mret, so the switch hook
            # (and a snapshot captured there) sees settled state.
            self._step_mret()
            return
        else:
            self._step_normal(instr)
        self.stats.instret += 1

    def run(self, max_cycles: int = 10_000_000) -> int:
        """Run until a HALT store or the cycle limit; returns exit code.

        With a block engine attached and nothing observing individual
        steps (no tracer, step hook or guard), whole predecoded blocks
        dispatch on the fast path; interrupts, traps, ``mret``, ``wfi``
        and rescheduling custom/CSR ops fall back to the exact
        per-instruction path.
        """
        while not self.halted:
            engine = self.block_engine
            if (engine is not None and self.tracer is None
                    and self.step_hook is None and self.guard is None):
                engine.dispatch(max_cycles)
                if self.halted:
                    break
            if self.cycle > max_cycles:
                raise SimulationError(
                    f"cycle limit {max_cycles} exceeded",
                    pc=self.pc, cycle=self.cycle,
                    mcause=self.csr.read(csrmod.MCAUSE),
                    kind="cycle-budget")
            if self.guard is not None:
                self.guard.on_step(self)
            if self.step_hook is not None:
                self.step_hook(self)
            self.step()
        return self.exit_code or 0

    def _fetch(self, pc: int) -> Instr:
        # Hot path: raw C-level probe; LRU recency only matters (and is
        # only maintained) once the cache is full enough to evict.
        cache = self._decode_cache
        instr = dict.get(cache, pc)
        if instr is None:
            word = self.mem.read_word_raw(pc)
            instr = decode(word, pc)
            cache[pc] = instr
        else:
            cap = cache.capacity
            if cap is not None and len(cache) >= cap:
                cache.move_to_end(pc)
        return instr

    # -- code-cache coherence ---------------------------------------------------

    def invalidate_code(self, addr: int, nbytes: int = 4, *,
                        decode_cache: bool = True) -> None:
        """Drop cached decodes/blocks overlapping ``[addr, addr+nbytes)``.

        Called on self-modifying stores (both execution paths, keeping
        them in lockstep) and by the fault injector on memory bit flips.
        The injector passes ``decode_cache=False``: campaign semantics
        historically let already-decoded instructions stay stale, and the
        block cache must match that — blocks rebuild through ``_fetch``
        and therefore see exactly what the per-instruction path sees.
        """
        end = addr + max(nbytes, 1)
        word = addr & ~3
        engine = self.block_engine
        while word < end:
            if decode_cache:
                self._decode_cache.pop(word, None)
            if engine is not None:
                engine.invalidate_word(word)
            word += 4

    def _note_code_store(self, addr: int) -> None:
        """Slow-path half of the self-modifying-store check."""
        word = addr & ~3
        engine = self.block_engine
        if word in self._decode_cache or (
                engine is not None and word in engine.addr_map):
            self.invalidate_code(word)

    def _note_raw_code_write(self, addr: int, nbytes: int) -> None:
        """Coherence hook for non-CPU writes (``Memory.code_watch``).

        RTOSUnit FSM stores, ``flip_bit`` and direct ``write_word_raw``
        pokes bypass the execution paths, so *blocks* covering any word
        of ``[addr, addr+nbytes)`` are dropped here. The decode cache is
        deliberately left alone (``decode_cache=False``) — the
        fault-campaign contract lets already-decoded instructions stay
        stale, and blocks rebuild through ``_fetch``, seeing exactly
        what the exact path sees.
        """
        engine = self.block_engine
        if engine is None:
            return
        addr_map = engine.addr_map
        word = addr & ~3
        end = addr + nbytes
        while word < end:
            if word in addr_map:
                self.invalidate_code(word, decode_cache=False)
            word += 4

    def reset_code_caches(self) -> None:
        """Bulk-drop every cached decode and block (snapshot restores
        with many dirty pages take this instead of per-word walks)."""
        self._decode_cache.clear()
        if self.block_engine is not None:
            self.block_engine.reset()

    # -- snapshot/restore (repro.snapshot) -----------------------------------

    def capture_state(self) -> dict:
        """Architectural + timing state for a :class:`SystemSnapshot`.

        Everything an exact-path run can observe is included; caches of
        *derived* data (decode cache, block cache) are not — they rebuild
        on demand and are invalidated separately against dirty memory.
        """
        return {
            "banks": [list(bank) for bank in self.banks],
            "active_bank": self.active_bank,
            "csr": self.csr.capture_state(),
            "pc": self.pc,
            "cycle": self.cycle,
            "next_issue": self.next_issue,
            "reg_avail": list(self.reg_avail),
            "dirty_mask": self.dirty_mask,
            "in_isr": self.in_isr,
            "halted": self.halted,
            "exit_code": self.exit_code,
            "stats": dict(vars(self.stats)),
            "trap_trigger_cycle": self._trap_trigger_cycle,
            "trap_entry_cycle": self._trap_entry_cycle,
            "switch_events": list(self.switch_events),
        }

    def restore_state(self, state: dict) -> None:
        """Inverse of :meth:`capture_state`.

        Container objects are mutated *in place*: the block engine's
        hoisted fast path holds direct references to ``reg_avail``,
        ``stats``, ``csr.regs`` and the register banks, so rebinding any
        of them would silently desynchronise block dispatch.
        """
        for bank, saved in zip(self.banks, state["banks"]):
            bank[:] = saved
        self.active_bank = state["active_bank"]
        self.csr.restore_state(state["csr"])
        self.pc = state["pc"]
        self.cycle = state["cycle"]
        self.next_issue = state["next_issue"]
        self.reg_avail[:] = state["reg_avail"]
        self.dirty_mask = state["dirty_mask"]
        self.in_isr = state["in_isr"]
        self.halted = state["halted"]
        self.exit_code = state["exit_code"]
        self.stats.__dict__.update(state["stats"])
        self._trap_trigger_cycle = state["trap_trigger_cycle"]
        self._trap_entry_cycle = state["trap_entry_cycle"]
        self.switch_events[:] = state["switch_events"]

    def perf_counters(self) -> dict:
        """Interpreter-level counters for ``repro profile`` / benchmarks."""
        counters = {
            "instret": self.stats.instret,
            "cycle": self.cycle,
            "decode_cache_size": len(self._decode_cache),
            "decode_cache_capacity": self.DECODE_CACHE_CAPACITY,
            "decode_cache_evictions": self._decode_cache.evictions,
            "blocks_enabled": self.block_engine is not None,
            "block_hits": 0,
            "block_misses": 0,
            "block_hit_rate": 0.0,
            "blocks_cached": 0,
            "block_capacity": 0,
            "block_evictions": 0,
            "fast_instret": 0,
            "invalidations": 0,
            "slow_pcs": 0,
            "slow_pc_evictions": 0,
            "chained": 0,
            "spin_skipped": 0,
        }
        if self.block_engine is not None:
            counters.update(self.block_engine.counters())
        counters["slow_instret"] = (
            counters["instret"] - counters["fast_instret"])
        counters["slow_ratio"] = (
            counters["slow_instret"] / counters["instret"]
            if counters["instret"] else 0.0)
        return counters

    # -- interrupts --------------------------------------------------------------------

    def _maybe_take_interrupt(self) -> bool:
        if self.clint is None or not self.csr.mie_global:
            return False
        pending = self.clint.pending(self.cycle, self.csr.read(csrmod.MIE))
        if pending is None:
            return False
        cause, trigger_cycle = pending
        self._take_interrupt(cause, trigger_cycle)
        return True

    def _take_interrupt(self, cause: int, trigger_cycle: int) -> None:
        self.clint.acknowledge(cause, self.cycle)
        mtvec = self.csr.read(csrmod.MTVEC)
        self.pc = self.csr.enter_trap(cause, self.pc, mtvec)
        entry_cycle = self.cycle + self.params.trap_entry_cycles
        self.cycle = entry_cycle
        self.next_issue = entry_cycle + 1
        self.in_isr = True
        self.stats.traps += 1
        if self.tracer is not None:
            self.tracer.on_trap(self, cause)
        self._trap_trigger_cycle = trigger_cycle
        self._trap_entry_cycle = entry_cycle
        if len(self.banks) > 1:
            self.active_bank = 1
        if self.unit is not None and not self.config.is_vanilla:
            self.unit.on_interrupt_entry(entry_cycle, cause)
        # Fresh pipeline after the flush: results are all "available".
        self._reset_avail(entry_cycle)

    def _reset_avail(self, cycle: int) -> None:
        self.reg_avail[:] = (cycle,) * 32

    # -- mret -----------------------------------------------------------------------------

    def _step_mret(self) -> None:
        issue = max(self.next_issue, self.cycle + 1)
        done = issue + self.params.mret_cycles
        if self.unit is not None and not self.config.is_vanilla:
            # Stalled until the restore FSM completes (§4.3).
            done = max(done, self.unit.on_mret(issue))
        if self.config.store and self.config.load and not self.config.cv32rt:
            self.active_bank = 0  # automatic bank switch on mret (§4.3)
        self.pc = self.csr.leave_trap()
        self.cycle = done
        self.next_issue = done + 1
        self.in_isr = False
        self.stats.mrets += 1
        if self.tracer is not None:
            self.tracer.on_mret(self)
        self.stats.instret += 1
        completed_switch = self._trap_trigger_cycle is not None
        if completed_switch:
            self.switch_events.append(
                (self._trap_trigger_cycle, self._trap_entry_cycle, done))
            self._trap_trigger_cycle = None
        self._reset_avail(done)
        if completed_switch and self.switch_hook is not None:
            self.switch_hook(self)

    # -- custom instructions ---------------------------------------------------------------

    def _step_custom(self, instr: Instr) -> None:
        if self.unit is None:
            raise SimulationError(
                f"custom instruction {instr.mnemonic} on a core without an "
                f"RTOSUnit (config {self.config.name})")
        op = CustomOp[instr.mnemonic.split(".", 1)[1].upper()]
        issue = max(self.next_issue, self.reg_avail[instr.rs1],
                    self.reg_avail[instr.rs2])
        issue += self.params.custom_commit_delay
        rs1 = self.regs[instr.rs1]
        rs2 = self.regs[instr.rs2]
        result = self.unit.exec_custom(op, rs1, rs2, issue)
        done = max(issue, result.complete_cycle)
        if instr.rd:
            self._write_reg(instr.rd, result.rd_value)
            self.reg_avail[instr.rd] = done + 1
        if result.switch_banks:
            # SWITCH_RF acts as a synchronisation point; model the
            # pipeline restart after the bank switch.
            self.active_bank = 0
            done += self.params.switch_rf_restart_cycles
            self._reset_avail(done)
        self.stats.custom_ops += 1
        self.pc = (self.pc + 4) & MASK32
        self.cycle = done
        self.next_issue = done + 1

    # -- ordinary instructions ----------------------------------------------------------------

    def _step_normal(self, instr: Instr) -> None:
        info = self._exec(instr)
        self._time(instr, info)

    def _exec(self, instr: Instr) -> tuple[int | None, bool, bool]:
        """Apply architectural effects; return (mem_addr, is_store, taken)."""
        m = instr.mnemonic
        regs = self.regs
        pc = instr.addr
        rs1 = regs[instr.rs1]
        rs2 = regs[instr.rs2]
        imm = instr.imm
        next_pc = (pc + 4) & MASK32
        mem_addr: int | None = None
        is_store = False
        taken = False

        if m == "addi":
            self._write_reg(instr.rd, rs1 + imm)
        elif m == "lw" or m == "lh" or m == "lb" or m == "lhu" or m == "lbu":
            mem_addr = (rs1 + imm) & MASK32
            size = {"lw": 4, "lh": 2, "lhu": 2, "lb": 1, "lbu": 1}[m]
            value = self.mem.read(mem_addr, size)
            if m == "lh" and value & 0x8000:
                value -= 0x10000
            elif m == "lb" and value & 0x80:
                value -= 0x100
            self._write_reg(instr.rd, value)
            self.stats.loads += 1
        elif m == "sw" or m == "sh" or m == "sb":
            mem_addr = (rs1 + imm) & MASK32
            size = {"sw": 4, "sh": 2, "sb": 1}[m]
            self.mem.write(mem_addr, rs2, size)
            is_store = True
            self.stats.stores += 1
            if mem_addr < self.mem.size:
                self._note_code_store(mem_addr)
        elif m == "add":
            self._write_reg(instr.rd, rs1 + rs2)
        elif m == "sub":
            self._write_reg(instr.rd, rs1 - rs2)
        elif m == "lui":
            self._write_reg(instr.rd, imm << 12)
        elif m == "auipc":
            self._write_reg(instr.rd, pc + (imm << 12))
        elif m == "jal":
            self._write_reg(instr.rd, next_pc)
            next_pc = (pc + imm) & MASK32
            taken = True
        elif m == "jalr":
            self._write_reg(instr.rd, next_pc)
            next_pc = (rs1 + imm) & MASK32 & ~1
            taken = True
        elif instr.fmt == "B":
            self.stats.branches += 1
            lhs, rhs = rs1, rs2
            if m == "beq":
                taken = lhs == rhs
            elif m == "bne":
                taken = lhs != rhs
            elif m == "blt":
                taken = _sgn(lhs) < _sgn(rhs)
            elif m == "bge":
                taken = _sgn(lhs) >= _sgn(rhs)
            elif m == "bltu":
                taken = lhs < rhs
            else:  # bgeu
                taken = lhs >= rhs
            if taken:
                next_pc = (pc + imm) & MASK32
                self.stats.taken_branches += 1
        elif m == "andi":
            self._write_reg(instr.rd, rs1 & (imm & MASK32))
        elif m == "ori":
            self._write_reg(instr.rd, rs1 | (imm & MASK32))
        elif m == "xori":
            self._write_reg(instr.rd, rs1 ^ (imm & MASK32))
        elif m == "slti":
            self._write_reg(instr.rd, int(_sgn(rs1) < imm))
        elif m == "sltiu":
            self._write_reg(instr.rd, int(rs1 < (imm & MASK32)))
        elif m == "slli":
            self._write_reg(instr.rd, rs1 << imm)
        elif m == "srli":
            self._write_reg(instr.rd, rs1 >> imm)
        elif m == "srai":
            self._write_reg(instr.rd, _sgn(rs1) >> imm)
        elif m == "sll":
            self._write_reg(instr.rd, rs1 << (rs2 & 31))
        elif m == "srl":
            self._write_reg(instr.rd, rs1 >> (rs2 & 31))
        elif m == "sra":
            self._write_reg(instr.rd, _sgn(rs1) >> (rs2 & 31))
        elif m == "slt":
            self._write_reg(instr.rd, int(_sgn(rs1) < _sgn(rs2)))
        elif m == "sltu":
            self._write_reg(instr.rd, int(rs1 < rs2))
        elif m == "and":
            self._write_reg(instr.rd, rs1 & rs2)
        elif m == "or":
            self._write_reg(instr.rd, rs1 | rs2)
        elif m == "xor":
            self._write_reg(instr.rd, rs1 ^ rs2)
        elif m == "mul":
            self._write_reg(instr.rd, rs1 * rs2)
        elif m == "mulh":
            self._write_reg(instr.rd, (_sgn(rs1) * _sgn(rs2)) >> 32)
        elif m == "mulhsu":
            self._write_reg(instr.rd, (_sgn(rs1) * rs2) >> 32)
        elif m == "mulhu":
            self._write_reg(instr.rd, (rs1 * rs2) >> 32)
        elif m in ("div", "divu", "rem", "remu"):
            self._write_reg(instr.rd, _divrem(m, rs1, rs2))
        elif m in ("csrrw", "csrrs", "csrrc"):
            old = self.csr.read(instr.csr)
            if m == "csrrw":
                self.csr.write(instr.csr, rs1)
            elif m == "csrrs" and instr.rs1:
                self.csr.set_bits(instr.csr, rs1)
            elif m == "csrrc" and instr.rs1:
                self.csr.clear_bits(instr.csr, rs1)
            self._write_reg(instr.rd, old)
        elif m in ("csrrwi", "csrrsi", "csrrci"):
            old = self.csr.read(instr.csr)
            if m == "csrrwi":
                self.csr.write(instr.csr, imm)
            elif m == "csrrsi" and imm:
                self.csr.set_bits(instr.csr, imm)
            elif imm:
                self.csr.clear_bits(instr.csr, imm)
            self._write_reg(instr.rd, old)
        elif m == "fence":
            pass
        elif m == "wfi":
            # Wait for interrupt: skip time forward to the next event.
            self._do_wfi()
        elif m in ("ecall", "ebreak"):
            raise SimulationError(
                f"unexpected {m} (environment calls are not used by the "
                f"kernel; yields go through msip)",
                pc=pc, cycle=self.cycle)
        else:
            raise SimulationError(f"unimplemented mnemonic {m!r}",
                                  pc=pc, cycle=self.cycle)

        self.pc = next_pc
        return mem_addr, is_store, taken

    def _do_wfi(self) -> None:
        if self.clint is None:
            raise SimulationError("wfi with no interrupt sources")
        targets = [self.clint.mtimecmp]
        if self.clint.external_events:
            targets.append(self.clint.external_events[0])
        if self.clint.msip:
            targets.append(self.cycle)
        wake = max(self.cycle, min(targets))
        self.cycle = wake
        self.next_issue = wake + 1

    # -- timing (in-order default) -------------------------------------------------------------

    def _time(self, instr: Instr, info: tuple[int | None, bool, bool]) -> None:
        mem_addr, is_store, taken = info
        p = self.params
        issue = max(self.next_issue, self.reg_avail[instr.rs1],
                    self.reg_avail[instr.rs2])
        self.stats.stall_cycles += issue - self.next_issue
        penalty = 0
        result_latency = 0
        m = instr.mnemonic
        if mem_addr is not None:
            penalty, result_latency = self._mem_time(mem_addr, is_store, issue)
        elif m == "jal" or m == "jalr":
            penalty = p.jump_penalty
        elif instr.fmt == "B":
            penalty = self._branch_time(instr, taken)
        elif m == "mul" or m == "mulh" or m == "mulhsu" or m == "mulhu":
            result_latency = p.mul_latency
        elif m in ("div", "divu", "rem", "remu"):
            penalty = p.div_cycles
        elif instr.fmt in ("CSR", "CSRI"):
            penalty = p.csr_cycles - 1
        if instr.rd:
            self.reg_avail[instr.rd] = issue + result_latency
        self.cycle = issue + penalty
        self.next_issue = self.cycle + 1

    def _mem_time(self, addr: int, is_store: bool, issue: int) -> tuple[int, int]:
        """Default: no cache, single-cycle SRAM on a shared port."""
        self.timeline.mark_core_busy(issue)
        if is_store:
            return 0, 0
        return 0, self.params.load_result_latency

    def _branch_time(self, instr: Instr, taken: bool) -> int:
        if taken:
            return self.params.branch_taken_penalty
        return 0

    # -- RTOSUnit hooks ------------------------------------------------------------------------

    def rtosunit_frame_cost(self, slot: int, words, is_write: bool) -> int:
        """Port cycles for an RTOSUnit context transfer of *words* (word
        indices into the frame at *slot*): one bus beat per word."""
        return len(words)
