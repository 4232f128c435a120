"""Basic-block predecoded interpretation for :class:`BaseCore`.

The per-instruction ``step()`` loop pays a decode-cache probe, an
interrupt poll, a mnemonic if-chain and a timing call for every single
instruction. This module fetches straight-line instruction runs *once*,
pre-resolves each :class:`~repro.isa.instructions.Instr` into a compact
execute record, and dispatches whole blocks from a PC-keyed block cache.

Exactness contract (the whole point):

* Architectural state, cycle counts, stats and error behaviour are
  byte-identical to the per-instruction path. The reference interpreter
  (``BaseCore._exec``, the cores' ``_time`` and their ``_mem_time`` /
  ``_branch_time`` hooks) is left untouched and the differential tests
  run both paths against each other.
* Anything a block cannot replay exactly stays on the exact path:
  ``mret``, ``wfi``, ``ecall``/``ebreak`` and ``fence`` are never
  predecoded (:data:`~repro.isa.instructions.SYNC_OPS`), and Zicsr ops
  ride inside blocks only as prebuilt read-modify-write records. A
  tracer, step hook or progress guard on the core disables block
  dispatch entirely (fault campaigns and invariant checkers therefore
  always observe the per-instruction path). RTOSUnit custom ops are
  *tiered*: deterministic FSM interactions (scheduler list ops, hardware
  semaphores, context restores that write MSTATUS/MEPC) predecode into
  block-resident records driving per-op fast handlers with the exact
  path's issue/commit arithmetic; ops that can reschedule (bank
  switches) end the block and run through ``_step_custom`` unchanged.
* Interrupts: instead of polling the CLINT per instruction, dispatch
  computes an *interrupt horizon* — the earliest cycle at which
  ``Clint.pending`` could return non-None or mutate state (pop an
  external event) — and bails out of block execution as soon as the
  cycle counter reaches it. In-block instructions cannot change the
  horizon silently: MMIO stores bail immediately, and horizon-writing
  CSR/custom records recompute it in place, so the exact path takes the
  interrupt on precisely the same instruction boundary as before.
* Stores into cached code (self-modifying code) invalidate the decode
  and block caches and end the block; the same check runs on the slow
  path so both modes stay in lockstep.
* Spin loops: a block of ``addi r, r, imm`` accumulators closed by a
  ``j`` back to its own entry (:func:`_spin_shape`) runs one iteration
  per executor call. Once two consecutive iteration boundaries show
  the same timing state relative to the clock,
  :meth:`BlockEngine._spin_forward` applies every further whole
  iteration that ends before the bail cycle in closed form, and the
  executor runs the last, partial one, so the interrupt or budget stop
  lands on the same record. This extrapolates iterations the executors
  already ran; it is not another execution of the RV32 semantics.

Two executor layers, both timing every record inline with no Python
call per record:

* an *inlined in-order* loop for cores that keep ``BaseCore``'s timing
  (`CV32E40P`, `CVA6`) — operand indices, immediates and the in-order
  issue/stall arithmetic are unrolled with hoisted locals; on CVA6 it
  also runs the write-through, no-allocate D$ (with the uncached context
  range and MMIO) and the bimodal predictor;
* an *architectural* loop for `NaxRiscv` — the same inlined execute
  records, timed with its dataflow window: front-end slots, operand
  readiness, one LSU port over the write-back D$, the predictor and CSR
  serialisation.

Both take an MRU-way early-out on D$ hits and write the D$ hit and
predictor counters back when the block exits. The timing model is
picked from the core class when the engine is built
(:func:`_timing_model`); a core that overrides a timing hook neither
executor models is refused there rather than timed wrong.

Both executors chain blocks, as QEMU chains translation blocks
(Bellard, "QEMU, a Fast and Portable Dynamic Translator", USENIX ATC
2005): after a block completes, the executor probes the block cache
for the next PC itself and keeps running with its locals hoisted. It
returns to :meth:`BlockEngine.dispatch` only at the bail cycle, at a PC
with no cached block, before a spin loop, after an MMIO or
self-modifying store and at a rescheduling custom op. Chaining keeps no
state of its own: every transition probes the cache again, so a block
that SMC or fault injection dropped is never re-entered.
"""

from __future__ import annotations

import types

from repro.cores.base import BaseCore, MASK32, _divrem, _sgn
from repro.cores.cva6 import CVA6
from repro.cores.naxriscv import NaxRiscv
from repro.cores.predictor import BimodalPredictor
from repro.errors import ConfigurationError, ReproError
from repro.isa.csr import (MIE, MIP_MEIP, MIP_MSIP, MIP_MTIP, MSTATUS,
                           MSTATUS_MIE)
from repro.isa.custom import CustomOp
from repro.isa.instructions import (BLOCK_TERMINATORS, CSR_OPS, FMT_CUSTOM,
                                    SYNC_OPS)
from repro.mem.cache import CacheModel
from repro.mem.memory import MMIO_ADDRS
from repro.util import LRUCache

_INF = float("inf")
_WORD = 0xFFFFFFFC

#: Maximum instructions per predecoded block. Blocks normally end at a
#: control transfer or excluded mnemonic; this bounds straight-line runs
#: (and decode-ahead into non-code bytes that happen to decode).
MAX_BLOCK_INSTRS = 96

#: Bound on the slow-PC memo (same LRU recency policy as the decode cache).
SLOW_PC_CAPACITY = 65536
#: Stand-in for an empty ``uncached_ranges``: a range no address is in.
_NO_RANGE = ((0, 0),)

# -- per-mnemonic operators, carried by execute records as ``fn`` ------------

_ALU_FNS = {
    "add": lambda a, b: a + b,
    "sub": lambda a, b: a - b,
    "and": lambda a, b: a & b,
    "or": lambda a, b: a | b,
    "xor": lambda a, b: a ^ b,
    "sll": lambda a, b: a << (b & 31),
    "srl": lambda a, b: a >> (b & 31),
    "sra": lambda a, b: _sgn(a) >> (b & 31),
    "slt": lambda a, b: int(_sgn(a) < _sgn(b)),
    "sltu": lambda a, b: int(a < b),
}

#: mnemonic -> (fn(rs1_value, imm), imm is pre-masked to 32 bits)
_ALUI_FNS = {
    "addi": (lambda a, b: a + b, False),
    "andi": (lambda a, b: a & b, True),
    "ori": (lambda a, b: a | b, True),
    "xori": (lambda a, b: a ^ b, True),
    "slti": (lambda a, b: int(_sgn(a) < b), False),
    "sltiu": (lambda a, b: int(a < b), True),
    "slli": (lambda a, b: a << b, False),
    "srli": (lambda a, b: a >> b, False),
    "srai": (lambda a, b: _sgn(a) >> b, False),
}

_MUL_FNS = {
    "mul": lambda a, b: a * b,
    "mulh": lambda a, b: (_sgn(a) * _sgn(b)) >> 32,
    "mulhsu": lambda a, b: (_sgn(a) * b) >> 32,
    "mulhu": lambda a, b: (a * b) >> 32,
}

_DIV_FNS = {m: (lambda a, b, _m=m: _divrem(_m, a, b))
            for m in ("div", "divu", "rem", "remu")}

_BRANCH_FNS = {
    "beq": lambda a, b: a == b,
    "bne": lambda a, b: a != b,
    "blt": lambda a, b: _sgn(a) < _sgn(b),
    "bge": lambda a, b: _sgn(a) >= _sgn(b),
    "bltu": lambda a, b: a < b,
    "bgeu": lambda a, b: a >= b,
}

_LOAD_SPECS = {
    "lw": (4, 0, 0),
    "lh": (2, 0x8000, 0x10000),
    "lhu": (2, 0, 0),
    "lb": (1, 0x80, 0x100),
    "lbu": (1, 0, 0),
}

# -- execute-record kinds for the inlined in-order layer ---------------------

K_ADDI = 0
K_ALU = 1
K_ALUI = 2
K_LUI = 3
K_AUIPC = 4
_K_SIMPLE_MAX = K_AUIPC   # kinds <= this share the zero-penalty ALU tail
K_LW = 5
K_LBH = 6
K_SW = 7
K_SBH = 8
K_BRANCH = 9
K_JAL = 10
K_JALR = 11
K_MUL = 12
K_DIV = 13
#: RTOSUnit custom op resident in the block: ``fn`` is the per-op fast
#: handler ``(rs1_value, rs2_value, issue) -> (rd_value, complete_cycle)``.
K_CUSTOM = 15
#: RTOSUnit custom op that may reschedule (bank switch / context load):
#: executes via the exact ``_step_custom`` path and ends the block.
K_CUSTOM_BRK = 16
#: Zicsr op resident in the block: ``fn`` is a prebuilt ``(rs1_value) ->
#: old_csr_value`` closure applying the exact read/write/set/clear
#: effects on the live ``csr.regs`` dict. ``imm`` is 1 when the op can
#: write an interrupt-horizon input (mstatus/mie) — the executor then
#: resyncs the horizon in place and reports the cached one stale.
K_CSR = 18

#: CSR addresses whose writes feed ``_horizon`` / ``_maybe_take_interrupt``.
_HORIZON_CSRS = frozenset({MSTATUS, MIE})


def _classify_inorder(instr: Instr):
    """Pre-resolve one instruction into an inlined-execution record.

    Record layout: ``(kind, rd, rs1, rs2, imm, instr, fn)`` where ``fn``
    carries the bound operator / load spec / store size per kind.
    Returns None when the mnemonic has no inlined kind (the block then
    ends and the instruction stays slow-path).
    """
    m = instr.mnemonic
    rd, rs1, rs2, imm = instr.rd, instr.rs1, instr.rs2, instr.imm
    if m == "addi":
        return (K_ADDI, rd, rs1, rs2, imm, instr, None)
    fn = _ALU_FNS.get(m)
    if fn is not None:
        return (K_ALU, rd, rs1, rs2, imm, instr, fn)
    spec = _ALUI_FNS.get(m)
    if spec is not None:
        fn, mask_imm = spec
        return (K_ALUI, rd, rs1, rs2,
                imm & MASK32 if mask_imm else imm, instr, fn)
    if m == "lw":
        return (K_LW, rd, rs1, rs2, imm, instr, None)
    load = _LOAD_SPECS.get(m)
    if load is not None:
        return (K_LBH, rd, rs1, rs2, imm, instr, load)
    if m == "sw":
        return (K_SW, rd, rs1, rs2, imm, instr, None)
    if m == "sh" or m == "sb":
        return (K_SBH, rd, rs1, rs2, imm, instr, 2 if m == "sh" else 1)
    fn = _BRANCH_FNS.get(m)
    if fn is not None:
        return (K_BRANCH, rd, rs1, rs2, imm, instr, fn)
    if m == "jal":
        return (K_JAL, rd, rs1, rs2, imm, instr, None)
    if m == "jalr":
        return (K_JALR, rd, rs1, rs2, imm, instr, None)
    if m == "lui":
        return (K_LUI, rd, rs1, rs2, imm, instr, None)
    if m == "auipc":
        return (K_AUIPC, rd, rs1, rs2, imm, instr, None)
    fn = _MUL_FNS.get(m)
    if fn is not None:
        return (K_MUL, rd, rs1, rs2, imm, instr, fn)
    fn = _DIV_FNS.get(m)
    if fn is not None:
        return (K_DIV, rd, rs1, rs2, imm, instr, fn)
    return None


def _classify_csr(instr: Instr, csr_regs):
    """Pre-resolve a Zicsr instruction into a ``K_CSR`` record, or None.

    ``fn`` closes over the live ``CSRFile.regs`` dict (its identity
    survives snapshot restore, see ``CSRFile.restore_state``) and applies
    exactly what ``BaseCore._exec``'s CSR arm would: read-modify-write
    per mnemonic, with csrrs/csrrc writing only for a non-zero rs1
    *index* and the immediate forms only for a non-zero zimm. The
    terminal flag (record ``imm``) marks ops that can write mstatus/mie.
    """
    m = instr.mnemonic
    a = instr.csr
    get = csr_regs.get
    writes = True
    if m == "csrrw":
        def fn(x, _r=csr_regs, _a=a, _get=get):
            old = _get(_a, 0) & MASK32
            _r[_a] = x & MASK32
            return old
    elif m == "csrrs":
        if instr.rs1:
            def fn(x, _r=csr_regs, _a=a, _get=get):
                old = _get(_a, 0) & MASK32
                _r[_a] = old | (x & MASK32)
                return old
        else:
            writes = False

            def fn(x, _a=a, _get=get):
                return _get(_a, 0) & MASK32
    elif m == "csrrc":
        if instr.rs1:
            def fn(x, _r=csr_regs, _a=a, _get=get):
                old = _get(_a, 0) & MASK32
                _r[_a] = old & ~x & MASK32
                return old
        else:
            writes = False

            def fn(x, _a=a, _get=get):
                return _get(_a, 0) & MASK32
    elif m == "csrrwi":
        def fn(x, _r=csr_regs, _a=a, _get=get, _z=instr.imm & MASK32):
            old = _get(_a, 0) & MASK32
            _r[_a] = _z
            return old
    elif m == "csrrsi" or m == "csrrci":
        zimm = instr.imm & MASK32
        if not zimm:
            writes = False

            def fn(x, _a=a, _get=get):
                return _get(_a, 0) & MASK32
        elif m == "csrrsi":
            def fn(x, _r=csr_regs, _a=a, _get=get, _z=zimm):
                old = _get(_a, 0) & MASK32
                _r[_a] = old | _z
                return old
        else:
            def fn(x, _r=csr_regs, _a=a, _get=get, _z=zimm):
                old = _get(_a, 0) & MASK32
                _r[_a] = old & ~_z & MASK32
                return old
    else:
        return None
    terminal = 1 if writes and a in _HORIZON_CSRS else 0
    return (K_CSR, instr.rd, instr.rs1, instr.rs2, terminal, instr, fn)


class Block:
    """One predecoded straight-line run starting at ``entry``.

    ``spin`` is the block's :func:`_spin_shape`, or None when the block
    is not a spin loop (or dispatch demoted it).
    """

    __slots__ = ("entry", "records", "addrs", "spin")

    def __init__(self, entry, records, addrs):
        self.entry = entry
        self.records = records
        self.addrs = addrs
        self.spin = _spin_shape(entry, records)

    def __len__(self):
        return len(self.records)


#: Iteration boundaries a spin loop may take to reach a periodic timing
#: state before dispatch demotes it to an ordinary chained block.
SPIN_PROBES = 4

def _spin_shape(entry, records):
    """``((reg, imm), ...)``, the accumulators of a spin loop, or None.

    A spin loop is a block of ``addi r, r, imm`` accumulators on
    distinct registers closed by a ``j`` (``jal x0``) back to its own
    entry, like a background task's ``addi s0, s0, 1; j bg_loop``. Each
    record reads only its own accumulator and x0, whose availability
    never passes the issue point (every reset leaves it a cycle behind
    ``next_issue``), so every iteration does the same thing: each
    accumulator advances by its ``imm``. Returns None for any other
    block.
    """
    *body, (kind, rd, _, _, imm, instr, _) = records
    if kind != K_JAL or rd or (instr.addr + imm) & MASK32 != entry:
        return None
    accumulators = {}
    for kind, rd, rs1, _, imm, _, _ in body:
        if kind != K_ADDI or rs1 != rd or not rd or rd in accumulators:
            return None
        accumulators[rd] = imm
    return tuple(accumulators.items())


#: (core class, executor name) -> per-class clone of the executor.
_EXEC_CLONES: dict = {}


def _monomorphic_executor(cls, fn):
    """Per-core-class clone of a block executor function.

    CPython's specializing interpreter keeps its inline caches *per code
    object*. One shared executor serving several core classes (CV32E40P
    and CVA6 both run the in-order loop) watches its attribute-load and
    call sites go polymorphic and deoptimise — measurably slower than
    the same loop serving a single class. Cloning the code object per
    core class keeps every copy's caches monomorphic; the clones share
    globals and are otherwise identical.
    """
    key = (cls, fn.__name__)
    clone = _EXEC_CLONES.get(key)
    if clone is None:
        clone = types.FunctionType(
            fn.__code__.replace(), fn.__globals__, fn.__name__,
            fn.__defaults__, fn.__closure__)
        _EXEC_CLONES[key] = clone
    return clone


def _timing_model(core) -> str:
    """Name the timing model the block executors inline for *core*.

    ``"inorder"``: ``BaseCore``'s in-order timing over single-cycle SRAM
    (CV32E40P). ``"cached"``: the same with CVA6's write-through D$,
    uncached ranges and predictor. ``"window"``: NaxRiscv's dataflow
    window over its write-back D$. Each executor stands in for exactly
    these hooks, so a core class overriding any of them (or a D$ or
    predictor of another kind) would be timed wrong on the block path;
    it gets a :class:`ConfigurationError` instead.
    """
    cls = type(core)
    if (cls._exec is BaseCore._exec
            and cls._step_normal is BaseCore._step_normal):
        if cls._time is BaseCore._time:
            if (cls._mem_time is BaseCore._mem_time
                    and cls._branch_time is BaseCore._branch_time):
                return "inorder"
            if (cls._mem_time is CVA6._mem_time
                    and cls._branch_time is CVA6._branch_time
                    and getattr(cls, "_uncached", None) is CVA6._uncached
                    and _standard_models(core)):
                return "cached"
        elif (cls._time is NaxRiscv._time
                and getattr(cls, "_mem_latency", None)
                is NaxRiscv._mem_latency
                and getattr(cls, "_flush_front", None)
                is NaxRiscv._flush_front
                and _standard_models(core)):
            return "window"
    raise ConfigurationError(
        f"{cls.__name__} overrides a timing hook that the block executors "
        f"do not model, so block dispatch would time it wrong")


def _standard_models(core) -> bool:
    """True when *core*'s D$ and predictor are the stock models."""
    return (type(core.dcache).lookup is CacheModel.lookup
            and type(core.predictor).predict_and_update
            is BimodalPredictor.predict_and_update)


class BlockEngine:
    """PC-keyed block cache plus the two block executors for one core."""

    def __init__(self, core: BaseCore, capacity: int | None = None):
        self.core = core
        if capacity is None:
            capacity = core.BLOCK_CACHE_CAPACITY
        self.cache = LRUCache(capacity, self._on_evict)
        #: word address -> set of block entry PCs covering that word.
        self.addr_map: dict[int, set[int]] = {}
        #: PCs whose first instruction must stay on the exact path.
        #: Bounded like the decode cache: recency-refreshed only once
        #: full, evicting the least-recently-dispatched memo entry.
        self.slow_pcs: LRUCache = LRUCache(SLOW_PC_CAPACITY)
        self.hits = 0
        self.misses = 0
        self.invalidations = 0
        self.fast_instret = 0
        #: Block transitions taken inside an executor call (chaining).
        self.chained = 0
        #: Spin-loop iterations skipped in closed form (:meth:`_spin_forward`).
        self.spin_skipped = 0
        #: pc -> slow-path dispatch count; None unless profiling enables it.
        self.slow_counts: dict[int, int] | None = None
        unit = getattr(core, "unit", None)
        self._custom_handlers = (unit.fast_custom_handlers()
                                 if unit is not None else None)
        cls = type(core)
        model = _timing_model(core)
        params = core.params
        lrl = params.load_result_latency
        # Static per-core state, unpacked into executor locals in one go
        # (tuple unpack beats a pile of attribute chains per block). All
        # referenced objects are stable for the core's lifetime (restores
        # mutate them in place); per-run dynamic state (cycle, bank, dirty
        # tracking, the timeline and CVA6's uncached range — the System
        # sets both after construction) is read per call instead.
        hoist = (core.mem, core.mem.data, core.mem.size, core.reg_avail,
                 core.stats, core._decode_cache, self.addr_map, MMIO_ADDRS,
                 core.config.dirty, params.custom_commit_delay, self.cache,
                 self.cache.capacity or _INF)
        #: NaxRiscv's window: :meth:`_spin_forward` probes its front end.
        self._window = model == "window"
        if model != "inorder":
            dcache = core.dcache
            predictor = core.predictor
            models = (dcache, dcache._lines, dcache.sets, dcache.line_bytes,
                      dcache.lookup, predictor, predictor.counters,
                      predictor.entries)
        if model == "window":
            # NaxRiscv._time and _mem_latency, constants folded.
            self._hoist = hoist + models + (
                params.issue_width, 1 + params.branch_mispredict_penalty,
                lrl, params.mul_latency, params.div_cycles,
                params.csr_cycles, params.cache_line_words,
                params.cache_line_words // 2,
                1 + params.cache_miss_penalty // 2,
                lrl + params.cache_miss_penalty, lrl + 4)
            exec_fn = BlockEngine._exec_block_arch
        else:
            self._hoist = hoist + (
                model == "cached", lrl, params.branch_taken_penalty,
                params.jump_penalty, params.mul_latency, params.div_cycles,
                params.csr_cycles - 1)
            if model == "cached":
                # CVA6._mem_time and _branch_time, constants folded; the
                # CV32E40P clone never unpacks it.
                self._cache_hoist = models + (
                    params.branch_mispredict_penalty,
                    lrl + params.cache_miss_penalty, lrl + 1,
                    params.cache_line_words)
            exec_fn = BlockEngine._exec_block_inorder
        self._exec_block = _monomorphic_executor(cls, exec_fn).__get__(self)
        # The dispatch loop runs once per block and loads core attributes
        # just as often as the executors — clone it per class too (the
        # instance attribute shadows the class method for callers).
        self.dispatch = _monomorphic_executor(
            cls, BlockEngine.dispatch).__get__(self)

    # -- cache maintenance ---------------------------------------------------

    def _on_evict(self, entry, block):
        self._unregister(block)

    def _unregister(self, block):
        addr_map = self.addr_map
        entry = block.entry
        for a in block.addrs:
            pcs = addr_map.get(a)
            if pcs is not None:
                pcs.discard(entry)
                if not pcs:
                    del addr_map[a]

    def invalidate_word(self, word: int) -> None:
        """Drop every cached block containing *word* (word-aligned)."""
        self.slow_pcs.pop(word, None)
        pcs = self.addr_map.get(word)
        if not pcs:
            return
        self.invalidations += 1
        for entry in tuple(pcs):
            block = self.cache.pop(entry, None)
            if block is not None:
                self._unregister(block)
            else:
                pcs.discard(entry)
        if word in self.addr_map and not self.addr_map[word]:
            del self.addr_map[word]

    def reset(self) -> None:
        """Drop every cached block (snapshot restore with many dirty
        pages). ``addr_map`` is cleared in place — the hoisted fast
        path holds a direct reference to it."""
        self.cache.clear()
        self.addr_map.clear()
        self.slow_pcs.clear()

    def release(self) -> None:
        """Drop the engine's edges back to its core and to itself (see
        :meth:`repro.cores.system.System.release`)."""
        self.core = None
        self._custom_handlers = None
        self.cache.on_evict = None
        self._exec_block = self.dispatch = None

    def counters(self) -> dict:
        total = self.hits + self.misses
        return {
            "block_hits": self.hits,
            "block_misses": self.misses,
            "block_hit_rate": self.hits / total if total else 0.0,
            "blocks_cached": len(self.cache),
            "block_capacity": self.cache.capacity or 0,
            "block_evictions": self.cache.evictions,
            "fast_instret": self.fast_instret,
            "invalidations": self.invalidations,
            "slow_pcs": len(self.slow_pcs),
            "slow_pc_evictions": self.slow_pcs.evictions,
            "chained": self.chained,
            "spin_skipped": self.spin_skipped,
        }

    # -- predecode -----------------------------------------------------------

    def _build(self, pc: int):
        core = self.core
        fetch = core._fetch
        custom_handlers = self._custom_handlers
        # Both executors resync the interrupt horizon *inside* the record
        # loop after a horizon-writing CSR/custom record, so blocks run
        # straight through them.
        records = []
        addrs = []
        addr = pc
        for _ in range(MAX_BLOCK_INSTRS):
            try:
                instr = fetch(addr)
            except ReproError:
                break  # ran off RAM or into non-code bytes: end the block
            m = instr.mnemonic
            if instr.fmt == FMT_CUSTOM:
                # RTOSUnit custom ops: deterministic FSM interactions.
                # Ops with a registered fast handler stay block-resident,
                # horizon-writing ones (context restore into MSTATUS/MEPC)
                # included. Ops that switch register banks end the block
                # and run through the exact ``_step_custom``.
                if custom_handlers is None:
                    break
                try:
                    op = CustomOp[m.split(".", 1)[1].upper()]
                except (KeyError, IndexError):
                    break
                entry = custom_handlers.get(op)
                if entry is not None:
                    handler, terminal = entry
                    records.append((K_CUSTOM, instr.rd, instr.rs1,
                                    instr.rs2, terminal, instr, handler))
                    addrs.append(addr)
                    addr = (addr + 4) & MASK32
                    continue
                records.append((K_CUSTOM_BRK, instr.rd, instr.rs1,
                                instr.rs2, 0, instr, op))
                addrs.append(addr)
                break
            if m in CSR_OPS:
                # Zicsr stays block-resident: CSRFile is a plain dict
                # (reads and writes are hook-free), so effects predecode
                # into a closure. Writes that can touch mstatus/mie —
                # interrupt-horizon inputs — carry the terminal flag,
                # which resyncs the horizon inline.
                rec = _classify_csr(instr, core.csr.regs)
                if rec is None:
                    break
                records.append(rec)
                addrs.append(addr)
                addr = (addr + 4) & MASK32
                continue
            if m in SYNC_OPS:
                break
            rec = _classify_inorder(instr)
            if rec is None:
                break
            records.append(rec)
            addrs.append(addr)
            if m in BLOCK_TERMINATORS:
                break
            addr = (addr + 4) & MASK32
        if not records:
            return None
        block = Block(pc, tuple(records), tuple(addrs))
        self.cache[pc] = block
        addr_map = self.addr_map
        for a in addrs:
            pcs = addr_map.get(a)
            if pcs is None:
                addr_map[a] = {pc}
            else:
                pcs.add(pc)
        return block

    # -- interrupt horizon ---------------------------------------------------

    def _horizon(self):
        """Earliest cycle at which ``Clint.pending`` could fire or mutate.

        Mirrors ``BaseCore._maybe_take_interrupt`` + ``Clint.pending``:
        no CLINT or a clear global enable means no per-step poll happens
        at all (and ``pending`` is never called, so no side effects);
        otherwise the next external event (whose arrival *pops* the event
        queue — observable through ``wfi`` — regardless of MEIP), a
        pending software interrupt, and the timer compare each bound how
        far block execution may run without an exact-path poll.
        """
        core = self.core
        clint = core.clint
        if clint is None:
            return _INF
        csr_regs = core.csr.regs
        if not (csr_regs.get(MSTATUS, 0) & MSTATUS_MIE):
            return _INF
        mie = csr_regs.get(MIE, 0)
        horizon = _INF
        if clint._external_pending_since is not None:
            if mie & MIP_MEIP:
                return core.cycle
        elif clint.external_events:
            horizon = clint.external_events[0]
        if clint.msip and mie & MIP_MSIP:
            return core.cycle
        if mie & MIP_MTIP and clint.mtimecmp < horizon:
            horizon = clint.mtimecmp
        return horizon

    # -- dispatch ------------------------------------------------------------

    def dispatch(self, max_cycles: int) -> None:
        """Execute predecoded blocks until exact-path attention is needed.

        Returns with the core fully synced whenever the cycle limit is
        crossed, an interrupt may be pending, or the next instruction is
        slow-path; the caller's per-instruction loop handles it. Each
        executor call chains through cached blocks on its own, so this
        loop runs once per return from an executor: it builds missing
        blocks and recomputes the horizon.

        The interrupt horizon is computed lazily and cached across
        executor calls: nothing but an MMIO store or a horizon-writing
        CSR/custom record can change its inputs (``read_mmio`` is
        side-effect-free, and event-queue pops happen only in the
        exact-path poll), so it is recomputed only after an executor
        reports it stale. The executors also resync it in place
        mid-block to keep executing. Cache probes use the raw dict
        lookup; LRU recency is refreshed only once the cache is actually
        full, when eviction order starts to matter.

        The executors never chain into a spin loop (:func:`_spin_shape`),
        so this loop runs one iteration of it per executor call and
        hands each iteration boundary to :meth:`_spin_forward`.
        """
        core = self.core
        cache = self.cache
        cap = cache.capacity or _INF
        dget = dict.get
        slow_pcs = self.slow_pcs
        slow_cap = slow_pcs.capacity or _INF
        counts = self.slow_counts
        exec_block = self._exec_block
        limit = max_cycles + 1  # bail ceiling handed to the executors
        horizon = probe = None
        while True:
            if core.halted or core.cycle > max_cycles:
                return
            pc = core.pc
            block = dget(cache, pc)
            if block is None:
                if pc in slow_pcs:
                    if len(slow_pcs) >= slow_cap:
                        slow_pcs.move_to_end(pc)
                    if counts is not None:
                        counts[pc] = counts.get(pc, 0) + 1
                    return
                block = self._build(pc)
                if block is None:
                    slow_pcs[pc] = True
                    if counts is not None:
                        counts[pc] = counts.get(pc, 0) + 1
                    return
                self.misses += 1
            else:
                self.hits += 1
                if len(cache) >= cap:
                    cache.move_to_end(pc)
            if horizon is None:
                horizon = self._horizon()
            if horizon <= core.cycle:
                return
            bail = horizon if horizon < limit else limit
            if block.spin is not None:
                probe = self._spin_forward(block, bail, probe)
            if exec_block(block, bail, limit):
                horizon = None  # MMIO store / custom op: the CLINT or
                #                 CSR state may have re-armed

    def _spin_forward(self, block, bail, probe):
        """Skip the whole iterations of a spin loop that end before *bail*.

        :meth:`dispatch` calls this at each iteration boundary of the
        spin loop *block* with the probe this returned at the previous
        boundary, and passes the result on to the next. The calls in
        one dispatch call see consecutive boundaries: the executors
        never chain into a spin loop, and the loop's only exit is its
        bail cycle, which ends the dispatch call. A probe holds the
        loop's timing state relative to a reference cycle
        (``core.cycle`` on the in-order models, the front end on
        NaxRiscv): the issue point, the accumulators' availability, and
        NaxRiscv's commit front and free front-end slots. It also holds
        the counters an iteration moves. Nothing in a spin loop touches
        memory or the branch predictor, so the D$, the LSU port, the
        port timeline and the predictor stay put.

        Once two consecutive boundaries agree exactly, every later
        iteration repeats the last one Δ cycles later: the timing
        models are max-plus arithmetic, so they commute with a time
        shift, and the loop has no control inputs. The k iterations
        that end before ``bail`` are then applied in closed form: the
        live cycle fields move by kΔ, the counters by k times the last
        iteration's deltas and each accumulator by k·imm. The executor
        runs the last, partial iteration, so the interrupt or budget
        stop lands on the same record as on the exact path. A loop that
        is not periodic within :data:`SPIN_PROBES` iterations is
        demoted and chains like any other block.
        """
        core = self.core
        avail = core.reg_avail
        stats = core.stats
        if self._window:
            ref = core._front
            head = (core.next_issue - ref, core._last_commit - ref,
                    core._front_slots)
        else:
            ref = core.cycle
            head = core.next_issue - ref
        state = (head, [avail[reg] - ref for reg, _ in block.spin])
        counts = (stats.instret, stats.reg_writes, stats.stall_cycles,
                  self.fast_instret, self.hits)
        if probe is None:
            return ref, state, counts, 1
        last_ref, last_state, last_counts, seen = probe
        if state != last_state:
            if seen < SPIN_PROBES:
                return ref, state, counts, seen + 1
            block.spin = None  # not periodic: chain it like any block
            return None
        delta = ref - last_ref
        k = (bail - 1 - core.cycle) // delta
        if k > 0:
            shift = k * delta
            core.cycle += shift
            core.next_issue += shift
            if self._window:
                core._front += shift
                core._last_commit += shift
            regs = core.banks[core.active_bank]
            for reg, imm in block.spin:
                avail[reg] += shift
                regs[reg] = (regs[reg] + k * imm) & MASK32
            (stats.instret, stats.reg_writes, stats.stall_cycles,
             self.fast_instret, self.hits) = (
                now + k * (now - last)
                for now, last in zip(counts, last_counts))
            self.spin_skipped += k
        return None  # the next iteration reaches bail

    # -- executors -----------------------------------------------------------

    def _exec_block_arch(self, block, bail, limit):
        """Inlined execute and NaxRiscv's dataflow-window timing.

        Architectural effects run exactly as in the in-order layer, and
        each record is then timed inline exactly as ``NaxRiscv._time``
        would time it. The record takes a front-end slot
        (``issue_width`` per cycle) and issues once its operands are
        ready. A memory op also waits for the single LSU port, which a
        D$ hit holds for a cycle and a line refill for half a line. A
        mispredicted branch or a ``jalr`` refills the front end, and a
        CSR op serialises it. ``core.cycle`` is the in-order commit
        front. The front, its free slots, the commit front, the LSU port
        and the D$/predictor counters live in locals and are written
        back on every exit path. ``next_issue`` follows from the front
        and the last issue, except right after a CSR op (it is fixed
        before the serialising flush) or a custom op (which sets cycle
        and next issue outright): ``fix_at`` is the ``done`` count at
        which ``fcycle``/``fnext`` were last set outright.

        Horizon-writing records resync the horizon in place, and the
        per-record ``cycle >= bail`` check lands the exact-path
        interrupt poll on the same boundary, as in
        :meth:`_exec_block_inorder`. A rescheduling custom op ends the
        loop and runs through ``_step_custom`` once the locals are
        written back. Blocks chain as in :meth:`_exec_block_inorder`;
        the locals carry over unchanged, because ``fix_at`` counts
        ``done`` across the whole call. Returns True when dispatch's
        cached interrupt horizon is stale (MMIO store, rescheduling
        custom op, horizon write anywhere in the call).
        """
        core = self.core
        (mem, data, memsize, avail, stats, decoded, addr_map, mmio,
         config_dirty, custom_delay, cache, cap, dcache, lines, nsets,
         line_bytes, lookup, predictor, counters, entries, width, redirect,
         load_lat, mul_lat, div_cyc, csr_cyc, line_words, refill,
         store_miss, load_miss, mmio_lat) = self._hoist
        dget = dict.get
        timeline = core.timeline
        tl_append = timeline._busy.append
        tl_scan = timeline._scan
        tl_last = timeline._last_marked
        tl_marks = 0
        bank = core.active_bank
        regs = core.banks[bank]
        track_dirty = bank == 0 and config_dirty
        front = core._front
        slots = core._front_slots
        commit = core._last_commit
        lsu = core._lsu_next
        fcycle = core.cycle
        fnext = core.next_issue
        fix_at = issue = 0
        loads = stores = branches = takenb = regw = stall = customs = 0
        dirty = done = hits = preds = mps = chained = 0
        instr = brk = None
        pc_set = stale = False
        try:
            while True:
                for rec in block.records:
                    kind, rd, rs1, rs2, imm, instr, fn = rec
                    if kind <= _K_SIMPLE_MAX:
                        if kind == K_ADDI:
                            value = regs[rs1] + imm
                        elif kind == K_ALU:
                            value = fn(regs[rs1], regs[rs2])
                        elif kind == K_ALUI:
                            value = fn(regs[rs1], imm)
                        elif kind == K_LUI:
                            value = imm << 12
                        else:  # K_AUIPC
                            value = instr.addr + (imm << 12)
                        if slots:
                            slots -= 1
                        else:
                            front += 1
                            slots = width - 1
                        issue = front
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - front
                        complete = issue + 1
                        if rd:
                            regs[rd] = value & MASK32
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = complete
                    elif kind == K_LW or kind == K_LBH:
                        if kind == K_LW:
                            size, sign_bit, sign_sub = 4, 0, 0
                        else:
                            size, sign_bit, sign_sub = fn
                        addr = (regs[rs1] + imm) & MASK32
                        io = addr in mmio
                        if io or addr % size or addr + size > memsize:
                            # MMIO reads the live cycle; anything else raises.
                            core.cycle = fcycle if fix_at == done else commit
                            value = mem.read(addr, size)
                        else:
                            value = int.from_bytes(data[addr:addr + size],
                                                   "little")
                        if sign_bit and value & sign_bit:
                            value -= sign_sub
                        loads += 1
                        if slots:
                            slots -= 1
                        else:
                            front += 1
                            slots = width - 1
                        issue = front
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - front
                        if lsu > issue:
                            issue = lsu
                        # The port is busy in the issue cycle
                        # (``mark_core_busy`` inlined as in the in-order
                        # executor).
                        if issue > tl_last:
                            tl_last = issue
                        if tl_last >= tl_scan:
                            tl_append(tl_last)
                        tl_marks += 1
                        if io:
                            complete = issue + mmio_lat  # uncached MMIO
                            lsu = issue + 2
                        else:
                            line = addr // line_bytes
                            ways = dget(lines, line % nsets)
                            if ways and ways[-1] == line:
                                hits += 1  # MRU way: LRU order unchanged
                                complete = issue + load_lat
                                lsu = issue + 1
                            elif lookup(addr, False):
                                complete = issue + load_lat
                                lsu = issue + 1
                            else:
                                # Line refill: one port beat per word.
                                for beat in range(issue + 1,
                                                  issue + line_words):
                                    if beat > tl_last:
                                        tl_last = beat
                                    if tl_last >= tl_scan:
                                        tl_append(tl_last)
                                tl_marks += line_words - 1
                                complete = issue + load_miss
                                lsu = issue + refill
                        if rd:
                            regs[rd] = value & MASK32
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = complete
                    elif kind == K_SW or kind == K_SBH:
                        size = 4 if kind == K_SW else fn
                        addr = (regs[rs1] + imm) & MASK32
                        io = addr in mmio
                        if io:
                            # halt/probe record the live cycle
                            core.cycle = fcycle if fix_at == done else commit
                            mem.write(addr, regs[rs2], size)
                        else:
                            if addr % size or addr + size > memsize:
                                # raises exactly
                                mem.write(addr, regs[rs2], size)
                            if size == 4:
                                data[addr:addr + 4] = regs[rs2].to_bytes(
                                    4, "little")
                            else:
                                mask = (1 << (8 * size)) - 1
                                data[addr:addr + size] = (
                                    regs[rs2] & mask).to_bytes(size, "little")
                        stores += 1
                        if slots:
                            slots -= 1
                        else:
                            front += 1
                            slots = width - 1
                        issue = front
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - front
                        if lsu > issue:
                            issue = lsu
                        if issue > tl_last:
                            tl_last = issue
                        if tl_last >= tl_scan:
                            tl_append(tl_last)
                        tl_marks += 1
                        if io:
                            complete = issue + mmio_lat
                            lsu = issue + 2
                        else:
                            line = addr // line_bytes
                            ways = dget(lines, line % nsets)
                            if ways and ways[-1] == line:
                                hits += 1
                                complete = lsu = issue + 1
                            elif lookup(addr, True):
                                complete = lsu = issue + 1
                            else:
                                for beat in range(issue + 1,
                                                  issue + line_words):
                                    if beat > tl_last:
                                        tl_last = beat
                                    if tl_last >= tl_scan:
                                        tl_append(tl_last)
                                tl_marks += line_words - 1
                                complete = issue + store_miss
                                lsu = issue + refill
                        if complete > commit:
                            commit = complete
                        done += 1
                        if io:
                            stale = True
                            break  # halt/msip/mtimecmp may have changed
                        word = addr & _WORD
                        if word in decoded or word in addr_map:
                            core.invalidate_code(word)  # self-modifying store
                            break
                        if commit >= bail:
                            break
                        continue
                    elif kind == K_BRANCH:
                        branches += 1
                        taken = fn(regs[rs1], regs[rs2])
                        if taken:
                            takenb += 1
                            pc = (instr.addr + imm) & MASK32
                            pc_set = True
                        if slots:
                            slots -= 1
                        else:
                            front += 1
                            slots = width - 1
                        issue = front
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - front
                        # Bimodal predictor, as ``predict_and_update``.
                        index = (instr.addr >> 2) % entries
                        counter = dget(counters, index, 1)
                        if taken:
                            counters[index] = counter + 1 if counter < 3 else 3
                            miss = counter < 2
                        else:
                            counters[index] = counter - 1 if counter else 0
                            miss = counter > 1
                        preds += 1
                        if miss:
                            mps += 1
                            c = issue + redirect  # front-end refill
                            if c > front:
                                front = c
                                slots = width
                        complete = issue + 1
                    elif kind == K_JAL or kind == K_JALR:
                        if kind == K_JALR:
                            target = (regs[rs1] + imm) & MASK32 & ~1
                        else:
                            target = (instr.addr + imm) & MASK32
                        if slots:
                            slots -= 1
                        else:
                            front += 1
                            slots = width - 1
                        issue = front
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - front
                        complete = issue + 1
                        if rd:
                            regs[rd] = (instr.addr + 4) & MASK32
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = complete
                        if kind == K_JALR:
                            # The indirect target resolves at issue.
                            c = issue + 2
                            if c > front:
                                front = c
                                slots = width
                        pc = target
                        pc_set = True
                    elif kind == K_MUL or kind == K_DIV:
                        value = fn(regs[rs1], regs[rs2])
                        if slots:
                            slots -= 1
                        else:
                            front += 1
                            slots = width - 1
                        issue = front
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - front
                        complete = issue + (mul_lat if kind == K_MUL
                                            else div_cyc)
                        if rd:
                            regs[rd] = value & MASK32
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = complete
                    elif kind == K_CSR:
                        old = fn(regs[rs1])
                        if slots:
                            slots -= 1
                        else:
                            front += 1
                            slots = width - 1
                        issue = front
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - front
                        complete = issue + csr_cyc
                        if rd:
                            regs[rd] = old
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = complete
                        if complete > commit:
                            commit = complete
                        # ``next_issue`` is taken before the serialising flush.
                        fcycle = commit
                        fnext = front if front > issue + 1 else issue + 1
                        fix_at = done + 1
                        if complete > front:
                            front = complete
                            slots = width
                        if imm:
                            # mstatus/mie write: interrupts may have been
                            # enabled or masked — resync the horizon in
                            # place and keep going under the new bail.
                            stale = True
                            core.cycle = commit
                            h = self._horizon()
                            bail = h if h < limit else limit
                    elif kind == K_CUSTOM:
                        # Block-resident: same issue/commit arithmetic as
                        # ``_step_custom``, effects via the per-op handler.
                        # Custom ops take no front-end slot.
                        if fix_at == done:
                            c = fnext
                        else:
                            c = front if front > issue + 1 else issue + 1
                        a = avail[rs1]
                        if a > c:
                            c = a
                        a = avail[rs2]
                        if a > c:
                            c = a
                        c += custom_delay
                        rdv, complete = fn(regs[rs1], regs[rs2], c)
                        if complete < c:
                            complete = c
                        if rd:
                            regs[rd] = rdv & MASK32
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = complete + 1
                        customs += 1
                        tl_scan = timeline._scan  # the FSMs may have consumed
                        done += 1
                        fcycle = complete
                        fnext = complete + 1
                        fix_at = done
                        if imm:
                            # Restored MSTATUS/MEPC — resync the horizon in
                            # place and keep going under the new bail.
                            stale = True
                            core.cycle = complete
                            h = self._horizon()
                            bail = h if h < limit else limit
                        if complete >= bail:
                            break
                        continue
                    else:  # K_CUSTOM_BRK
                        brk = instr
                        break
                    if complete > commit:
                        commit = complete
                    done += 1
                    if commit >= bail:
                        break
                else:
                    # Clean completion: chain into the next cached block
                    # with dispatch's probe, hit count and LRU refresh.
                    if not pc_set:
                        pc = (instr.addr + 4) & MASK32
                        pc_set = True
                    block = dget(cache, pc)
                    if block is None or block.spin is not None:
                        break  # slow, not built yet or a spin loop
                    if len(cache) >= cap:
                        cache.move_to_end(pc)
                    chained += 1
                    pc_set = False
                    continue
                break
        except BaseException:
            # Exact-path contract: a faulting instruction leaves pc at its
            # own address and the cycle at the previous completion.
            if instr is not None:
                core.pc = instr.addr
            raise
        finally:
            if fix_at == done:
                core.cycle = fcycle
                core.next_issue = fnext
            else:
                core.cycle = commit
                core.next_issue = front if front > issue + 1 else issue + 1
            core._front = front
            core._front_slots = slots
            core._last_commit = commit
            core._lsu_next = lsu
            if tl_marks:
                timeline._last_marked = tl_last
                timeline.core_cycles += tl_marks
            if hits:
                dcache.hits += hits
            if preds:
                predictor.predictions += preds
                if mps:
                    predictor.mispredictions += mps
                    stats.mispredicts += mps
            stats.instret += done
            stats.loads += loads
            stats.stores += stores
            stats.branches += branches
            stats.taken_branches += takenb
            stats.reg_writes += regw
            stats.stall_cycles += stall
            if customs:
                stats.custom_ops += customs
            if dirty:
                core.dirty_mask |= dirty
            self.fast_instret += done
            if chained:
                self.hits += chained
                self.chained += chained
        if brk is not None:
            # May reschedule (bank switch / context restore): run the
            # exact path on the synced core; it ends the block.
            core.pc = brk.addr
            core._step_custom(brk)
            stats.instret += 1
            self.fast_instret += 1
            return True
        core.pc = pc if pc_set else (instr.addr + 4) & MASK32
        return stale

    def _exec_block_inorder(self, block, bail, limit):
        """Fully inlined loop for cores on BaseCore's in-order timing.

        Hot state (cycle, next_issue, stat deltas, the active register
        bank) is hoisted into locals and synced back on every exit path;
        ``core.cycle`` is synced *before* any MMIO delegate (mtime and
        probe records read it). The bank cannot change inside a block
        (traps/mret and rescheduling custom ops are never predecoded;
        block-resident custom ops never switch banks), so hoisting
        ``regs`` once per block is exact. On CVA6 (``cached``) the
        memory and branch arms also inline its ``_mem_time`` and
        ``_branch_time``: MMIO and the uncached context range cost one
        bus beat, loads probe the write-through, no-allocate D$ (a miss
        refills a line over the bus), every store takes a bus beat and
        refreshes a D$ hit, and branches train the bimodal predictor;
        the D$ hit and predictor counters are written back at exit.
        Horizon-writing records (mstatus/mie CSR writes,
        context-restoring custom ops) do not end the block here: they
        recompute the horizon in place —
        ``self._horizon()`` is side-effect-free — clamp ``bail`` to
        ``limit`` (the caller's cycle ceiling), and keep executing; the
        per-record ``cycle >= bail`` check then lands the exact-path
        interrupt poll on the same instruction boundary as before.

        Blocks chain: after a clean completion the loop probes the block
        cache for the next PC itself, exactly as :meth:`dispatch` would
        (raw ``dict.get``, a block hit, LRU refresh once the cache is
        full), and keeps running under the same ``bail`` with its locals
        hoisted. That is exact because a clean completion leaves the
        core where dispatch would find it: not halted and below
        ``bail``, which a horizon-writing record has already resynced
        in place. The loop returns to dispatch at the bail cycle, at a
        PC with no cached block, before a spin loop (dispatch runs those
        one iteration per call), after an MMIO or self-modifying store
        and at a rescheduling custom op. Returns True when dispatch's
        cached interrupt horizon is stale: after the last two of those,
        or after a horizon write anywhere in the call.
        """
        core = self.core
        (mem, data, memsize, avail, stats, decoded, addr_map, mmio,
         config_dirty, custom_delay, cache, cap, cached, load_lat,
         taken_pen, jump_pen, mul_lat, div_cyc, csr_pen) = self._hoist
        if cached:
            (dcache, lines, nsets, line_bytes, lookup, predictor, counters,
             entries, mp_pen, miss_lat, unc_lat,
             line_words) = self._cache_hoist
            # The System adds CVA6's one uncached range (the context
            # region) after the engine is built, so it is read per call.
            (unc_lo, unc_hi), = core.uncached_ranges or _NO_RANGE
            hits = preds = mps = 0
        dget = dict.get
        # ``mark_core_busy`` inlined: the busy queue appends eagerly while
        # the scan fence and last-mark clamp stay in locals. The fence is
        # reread after a resident custom handler, whose FSMs may consume
        # free cycles. ``_last_marked`` is only ever touched by marking,
        # so the local copy is authoritative.
        timeline = core.timeline
        tl_append = timeline._busy.append
        tl_scan = timeline._scan
        tl_last = timeline._last_marked
        tl_marks = 0
        bank = core.active_bank
        regs = core.banks[bank]
        track_dirty = bank == 0 and config_dirty
        cycle = core.cycle
        next_issue = core.next_issue
        loads = stores = branches = takenb = regw = stall = customs = 0
        dirty = done = chained = 0
        instr = None
        pc_set = stale = False
        try:
            while True:
                for rec in block.records:
                    kind, rd, rs1, rs2, imm, instr, fn = rec
                    if kind <= _K_SIMPLE_MAX:
                        # Zero-penalty, zero-latency ALU class.
                        if kind == K_ADDI:
                            value = regs[rs1] + imm
                        elif kind == K_ALU:
                            value = fn(regs[rs1], regs[rs2])
                        elif kind == K_ALUI:
                            value = fn(regs[rs1], imm)
                        elif kind == K_LUI:
                            value = imm << 12
                        else:  # K_AUIPC
                            value = instr.addr + (imm << 12)
                        issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - next_issue
                        if rd:
                            regs[rd] = value & MASK32
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = issue
                        cycle = issue
                        next_issue = issue + 1
                    elif kind == K_LW:
                        addr = (regs[rs1] + imm) & MASK32
                        if addr in mmio:
                            core.cycle = cycle  # mtime reads the live cycle
                            value = mem.read(addr, 4)
                        elif addr & 3 or addr + 4 > memsize:
                            value = mem.read(addr, 4)  # raises exactly
                        else:
                            value = int.from_bytes(data[addr:addr + 4],
                                                   "little")
                        if rd:
                            regs[rd] = value
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                        loads += 1
                        issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - next_issue
                        if cached:
                            if addr in mmio or unc_lo <= addr < unc_hi:
                                # Uncached: one bus beat.
                                if issue >= tl_last:
                                    tl_last = issue
                                if tl_last >= tl_scan:
                                    tl_append(tl_last)
                                tl_marks += 1
                                rlat = unc_lat
                            else:
                                line = addr // line_bytes
                                ways = dget(lines, line % nsets)
                                if ways and ways[-1] == line:
                                    hits += 1  # MRU way: LRU order unchanged
                                    rlat = load_lat
                                elif lookup(addr, False):
                                    rlat = load_lat
                                else:
                                    # The refill holds the bus for a line.
                                    for beat in range(issue,
                                                      issue + line_words):
                                        if beat > tl_last:
                                            tl_last = beat
                                        if tl_last >= tl_scan:
                                            tl_append(tl_last)
                                    tl_marks += line_words
                                    rlat = miss_lat
                            if rd:
                                avail[rd] = issue + rlat
                        else:
                            if issue >= tl_last:
                                tl_last = issue
                            if tl_last >= tl_scan:
                                tl_append(tl_last)
                            tl_marks += 1
                            if rd:
                                avail[rd] = issue + load_lat
                        cycle = issue
                        next_issue = issue + 1
                    elif kind == K_SW:
                        addr = (regs[rs1] + imm) & MASK32
                        if addr in mmio:
                            # probe/halt record the live cycle
                            core.cycle = cycle
                            mem.write(addr, regs[rs2], 4)
                            stores += 1
                            issue = next_issue
                            a = avail[rs1]
                            if a > issue:
                                issue = a
                            a = avail[rs2]
                            if a > issue:
                                issue = a
                            stall += issue - next_issue
                            # MMIO is uncached on every core: one bus beat.
                            if issue >= tl_last:
                                tl_last = issue
                            if tl_last >= tl_scan:
                                tl_append(tl_last)
                            tl_marks += 1
                            cycle = issue
                            next_issue = issue + 1
                            done += 1
                            stale = True
                            break  # halt/msip/mtimecmp may have changed
                        if addr & 3 or addr + 4 > memsize:
                            mem.write(addr, regs[rs2], 4)  # raises exactly
                        data[addr:addr + 4] = regs[rs2].to_bytes(4, "little")
                        stores += 1
                        issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - next_issue
                        if cached and not unc_lo <= addr < unc_hi:
                            # Write-through, no allocate: only a hit moves
                            # the D$; the bus beat below is paid either way.
                            line = addr // line_bytes
                            ways = dget(lines, line % nsets)
                            if ways and ways[-1] == line:
                                hits += 1
                            else:
                                lookup(addr, True)
                        if issue >= tl_last:
                            tl_last = issue
                        if tl_last >= tl_scan:
                            tl_append(tl_last)
                        tl_marks += 1
                        cycle = issue
                        next_issue = issue + 1
                        done += 1
                        word = addr & _WORD
                        if word in decoded or word in addr_map:
                            core.invalidate_code(word)  # self-modifying store
                            break
                        if cycle >= bail:
                            break
                        continue
                    elif kind == K_BRANCH:
                        branches += 1
                        taken = fn(regs[rs1], regs[rs2])
                        if taken:
                            takenb += 1
                            pc = (instr.addr + imm) & MASK32
                            pc_set = True
                        issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - next_issue
                        if cached:
                            # Bimodal predictor, as ``predict_and_update``.
                            index = (instr.addr >> 2) % entries
                            counter = dget(counters, index, 1)
                            if taken:
                                counters[index] = (counter + 1 if counter < 3
                                                   else 3)
                                miss = counter < 2
                            else:
                                counters[index] = counter - 1 if counter else 0
                                miss = counter > 1
                            preds += 1
                            if miss:
                                mps += 1
                                cycle = issue + mp_pen
                            else:
                                cycle = issue
                        else:
                            cycle = issue + (taken_pen if taken else 0)
                        next_issue = cycle + 1
                    elif kind == K_JAL:
                        issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - next_issue
                        if rd:
                            regs[rd] = (instr.addr + 4) & MASK32
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = issue
                        pc = (instr.addr + imm) & MASK32
                        pc_set = True
                        cycle = issue + jump_pen
                        next_issue = cycle + 1
                    elif kind == K_JALR:
                        target = (regs[rs1] + imm) & MASK32 & ~1
                        issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - next_issue
                        if rd:
                            regs[rd] = (instr.addr + 4) & MASK32
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = issue
                        pc = target
                        pc_set = True
                        cycle = issue + jump_pen
                        next_issue = cycle + 1
                    elif kind == K_LBH:
                        size, sign_bit, sign_sub = fn
                        addr = (regs[rs1] + imm) & MASK32
                        if addr in mmio:
                            core.cycle = cycle
                            value = mem.read(addr, size)
                        elif addr % size or addr + size > memsize:
                            value = mem.read(addr, size)  # raises exactly
                        else:
                            value = int.from_bytes(data[addr:addr + size],
                                                   "little")
                        if sign_bit and value & sign_bit:
                            value -= sign_sub
                        if rd:
                            regs[rd] = value & MASK32
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                        loads += 1
                        issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - next_issue
                        if cached:
                            if addr in mmio or unc_lo <= addr < unc_hi:
                                if issue >= tl_last:
                                    tl_last = issue
                                if tl_last >= tl_scan:
                                    tl_append(tl_last)
                                tl_marks += 1
                                rlat = unc_lat
                            else:
                                line = addr // line_bytes
                                ways = dget(lines, line % nsets)
                                if ways and ways[-1] == line:
                                    hits += 1
                                    rlat = load_lat
                                elif lookup(addr, False):
                                    rlat = load_lat
                                else:
                                    for beat in range(issue,
                                                      issue + line_words):
                                        if beat > tl_last:
                                            tl_last = beat
                                        if tl_last >= tl_scan:
                                            tl_append(tl_last)
                                    tl_marks += line_words
                                    rlat = miss_lat
                            if rd:
                                avail[rd] = issue + rlat
                        else:
                            if issue >= tl_last:
                                tl_last = issue
                            if tl_last >= tl_scan:
                                tl_append(tl_last)
                            tl_marks += 1
                            if rd:
                                avail[rd] = issue + load_lat
                        cycle = issue
                        next_issue = issue + 1
                    elif kind == K_SBH:
                        size = fn
                        addr = (regs[rs1] + imm) & MASK32
                        if addr in mmio:
                            core.cycle = cycle
                            mem.write(addr, regs[rs2], size)
                            stores += 1
                            issue = next_issue
                            a = avail[rs1]
                            if a > issue:
                                issue = a
                            a = avail[rs2]
                            if a > issue:
                                issue = a
                            stall += issue - next_issue
                            if issue >= tl_last:
                                tl_last = issue
                            if tl_last >= tl_scan:
                                tl_append(tl_last)
                            tl_marks += 1
                            cycle = issue
                            next_issue = issue + 1
                            done += 1
                            stale = True
                            break
                        if addr % size or addr + size > memsize:
                            mem.write(addr, regs[rs2], size)  # raises exactly
                        mask = (1 << (8 * size)) - 1
                        data[addr:addr + size] = (regs[rs2] & mask).to_bytes(
                            size, "little")
                        stores += 1
                        issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - next_issue
                        if cached and not unc_lo <= addr < unc_hi:
                            line = addr // line_bytes
                            ways = dget(lines, line % nsets)
                            if ways and ways[-1] == line:
                                hits += 1
                            else:
                                lookup(addr, True)
                        if issue >= tl_last:
                            tl_last = issue
                        if tl_last >= tl_scan:
                            tl_append(tl_last)
                        tl_marks += 1
                        cycle = issue
                        next_issue = issue + 1
                        done += 1
                        word = addr & _WORD
                        if word in decoded or word in addr_map:
                            core.invalidate_code(word)
                            break
                        if cycle >= bail:
                            break
                        continue
                    elif kind == K_MUL:
                        value = fn(regs[rs1], regs[rs2])
                        issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - next_issue
                        if rd:
                            regs[rd] = value & MASK32
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = issue + mul_lat
                        cycle = issue
                        next_issue = issue + 1
                    elif kind == K_DIV:
                        value = fn(regs[rs1], regs[rs2])
                        issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - next_issue
                        if rd:
                            regs[rd] = value & MASK32
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = issue
                        cycle = issue + div_cyc
                        next_issue = cycle + 1
                    elif kind == K_CSR:
                        # Zicsr: effects via the prebuilt closure, timing as
                        # in ``_time``'s CSR arm (zero result latency,
                        # ``csr_cycles - 1`` completion penalty).
                        old = fn(regs[rs1])
                        issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - next_issue
                        if rd:
                            regs[rd] = old
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = issue
                        cycle = issue + csr_pen
                        next_issue = cycle + 1
                        if imm:
                            # mstatus/mie write: interrupts may have been
                            # enabled or masked — resync the horizon in
                            # place and keep going under the new bail.
                            stale = True
                            core.cycle = cycle
                            h = self._horizon()
                            bail = h if h < limit else limit
                    elif kind == K_CUSTOM or kind == K_CUSTOM_BRK:
                        if kind == K_CUSTOM_BRK:
                            # May reschedule (bank switch / context restore):
                            # run the exact path and end the block.
                            core.cycle = cycle
                            core.next_issue = next_issue
                            core.pc = instr.addr
                            core._step_custom(instr)
                            cycle = core.cycle
                            next_issue = core.next_issue
                            pc = core.pc
                            pc_set = True
                            done += 1
                            stale = True
                            break
                        # Block-resident: same issue/commit arithmetic as
                        # ``_step_custom``, effects via the per-op handler.
                        issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        issue += custom_delay
                        rdv, complete = fn(regs[rs1], regs[rs2], issue)
                        if complete < issue:
                            complete = issue
                        if rd:
                            regs[rd] = rdv & MASK32
                            regw += 1
                            if track_dirty:
                                dirty |= 1 << rd
                            avail[rd] = complete + 1
                        customs += 1
                        tl_scan = timeline._scan  # the FSMs may have consumed
                        cycle = complete
                        next_issue = complete + 1
                        if imm:
                            # Restored MSTATUS/MEPC — resync the horizon in
                            # place and keep going under the new bail.
                            stale = True
                            core.cycle = cycle
                            h = self._horizon()
                            bail = h if h < limit else limit
                    done += 1
                    if cycle >= bail:
                        break
                else:
                    # Clean completion: chain into the next cached block
                    # with dispatch's probe, hit count and LRU refresh.
                    if not pc_set:
                        pc = (instr.addr + 4) & MASK32
                        pc_set = True
                    block = dget(cache, pc)
                    if block is None or block.spin is not None:
                        break  # slow, not built yet or a spin loop
                    if len(cache) >= cap:
                        cache.move_to_end(pc)
                    chained += 1
                    pc_set = False
                    continue
                break
        except BaseException:
            # Exact-path contract: a faulting instruction leaves pc at its
            # own address and the cycle at the previous completion.
            if instr is not None:
                core.pc = instr.addr
            raise
        finally:
            core.cycle = cycle
            core.next_issue = next_issue
            if tl_marks:
                timeline._last_marked = tl_last
                timeline.core_cycles += tl_marks
            if cached:
                if hits:
                    dcache.hits += hits
                if preds:
                    predictor.predictions += preds
                    if mps:
                        predictor.mispredictions += mps
                        stats.mispredicts += mps
            stats.instret += done
            stats.loads += loads
            stats.stores += stores
            stats.branches += branches
            stats.taken_branches += takenb
            stats.reg_writes += regw
            stats.stall_cycles += stall
            if customs:
                stats.custom_ops += customs
            if dirty:
                core.dirty_mask |= dirty
            self.fast_instret += done
            if chained:
                self.hits += chained
                self.chained += chained
        core.pc = pc if pc_set else (instr.addr + 4) & MASK32
        return stale
