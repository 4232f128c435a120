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
  lands on the same record. This extrapolates iterations the executor
  already ran; it is not another execution of the RV32 semantics.

One executor source times every record inline, with no Python call
per record, for three timing models (:func:`_timing_model`, picked from
the core class when the engine is built):

* ``inorder`` (`CV32E40P`): ``BaseCore``'s in-order issue and stall
  arithmetic over single-cycle SRAM;
* ``cached`` (`CVA6`): the same, plus the write-through, no-allocate D$
  (with the uncached context range and MMIO) and the bimodal predictor;
* ``window`` (`NaxRiscv`): its dataflow window: front-end slots, operand
  readiness, one LSU port over the write-back D$, the predictor and CSR
  serialisation.

The execute semantics, register write-back, block exits, chaining and
the exit write-back are written once for all three, and each record
class's operand readiness once; only the timing arms test the model
names ``INORDER``, ``CACHED`` and ``WINDOW``.
:func:`_specialise` compiles the source once per process per model with
those names folded to constants, so each core class runs a copy holding
only its own arms. A core that overrides a timing hook no model covers is
refused when the engine is built rather than timed wrong. The D$ probes
take an MRU-way early-out, and the D$ hit and predictor counters are
written back when the executor exits.

The executor chains blocks, as QEMU chains translation blocks (Bellard,
"QEMU, a Fast and Portable Dynamic Translator", USENIX ATC 2005): after
a block completes, it probes the block cache for the next PC itself and
keeps running with its locals hoisted. It returns to
:meth:`BlockEngine.dispatch` only at the bail cycle, at a PC with no
cached block, before a spin loop, after an MMIO or self-modifying store
and at a rescheduling custom op. Chaining keeps no state of its own:
every transition probes the cache again, so a block
that SMC or fault injection dropped is never re-entered.
"""

from __future__ import annotations

import dis
import re

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

#: mnemonic -> (size, sign bit, the bits a set sign bit extends to)
_LOAD_SPECS = {
    "lw": (4, 0, 0),
    "lh": (2, 0x8000, 0xFFFF0000),
    "lhu": (2, 0, 0),
    "lb": (1, 0x80, 0xFFFFFF00),
    "lbu": (1, 0, 0),
}

_STORE_SIZES = {"sw": 4, "sh": 2, "sb": 1}

# -- execute-record kinds ----------------------------------------------------
#
# The executor tests kinds in this order, so each range test below is one
# comparison: ALU kinds, then memory, control transfer, mul/div, Zicsr
# and RTOSUnit custom ops.

K_ADDI = 0
K_ALU = 1
K_ALUI = 2
K_LUI = 3
K_AUIPC = 4
#: ``fn`` is the load spec from ``_LOAD_SPECS``.
K_LOAD = 5
#: ``fn`` is the store size in bytes.
K_STORE = 6
K_BRANCH = 7
K_JAL = 8
K_JALR = 9
K_MUL = 10
K_DIV = 11
#: Zicsr op resident in the block: ``fn`` is a prebuilt ``(rs1_value) ->
#: old_csr_value`` closure applying the exact read/write/set/clear
#: effects on the live ``csr.regs`` dict. ``imm`` is 1 when the op can
#: write an interrupt-horizon input (mstatus/mie) — the executor then
#: resyncs the horizon in place and reports the cached one stale.
K_CSR = 12
#: RTOSUnit custom op resident in the block: ``fn`` is the per-op fast
#: handler ``(rs1_value, rs2_value, issue) -> (rd_value, complete_cycle)``.
K_CUSTOM = 13
#: RTOSUnit custom op that may reschedule (bank switch / context load):
#: executes via the exact ``_step_custom`` path and ends the block.
K_CUSTOM_BRK = 14

#: CSR addresses whose writes feed ``_horizon`` / ``_maybe_take_interrupt``.
_HORIZON_CSRS = frozenset({MSTATUS, MIE})


def _classify(instr: Instr):
    """Pre-resolve one instruction into an execute record.

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
    load = _LOAD_SPECS.get(m)
    if load is not None:
        return (K_LOAD, rd, rs1, rs2, imm, instr, load)
    size = _STORE_SIZES.get(m)
    if size is not None:
        return (K_STORE, rd, rs1, rs2, imm, instr, size)
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


#: The names under which the executor source tests each timing model
#: :func:`_timing_model` names; only :func:`_specialise` gives them a
#: value.
_MODEL_NAMES = re.compile(r"\b(?:INORDER|CACHED|WINDOW)\b")
#: (source function, timing model) -> the function compiled for it.
_SPECIALISED: dict = {}


def _specialise(fn, model):
    """*fn* compiled for one timing model, once per process.

    Each model name in *fn*'s source text becomes ``True`` or ``False``,
    and CPython's compiler drops the dead arms: a folded ``if``, ``not``,
    ``and``/``or`` or conditional expression leaves at most a ``NOP``.
    The copy compiles under this file's name at the source's own line
    numbers and indentation, so tracebacks and coverage point at real
    lines. Each copy is also a code object of its own per core class,
    so CPython's inline caches stay monomorphic in each. The text comes
    from the file on disk, which must still be the one the module was
    imported from.
    """
    special = _SPECIALISED.get((fn, model))
    if special is None:
        code = fn.__code__
        # The source runs from the def to the last line holding code
        # (read from the line table: no tokenizer pass). The file is
        # read here rather than through ``linecache``, which would keep
        # all of it for the life of the process.
        first = code.co_firstlineno
        last = max(line for _, line in dis.findlinestarts(code) if line)
        with open(code.co_filename, encoding="utf-8") as source_file:
            source = "".join(source_file.readlines()[first - 1:last])
        source = _MODEL_NAMES.sub(
            lambda name: str(name[0].lower() == model), source)
        # A class header on the line above keeps the method's indent.
        compiled = compile("\n" * (first - 2) + "class _:\n" + source,
                           code.co_filename, "exec")
        namespace = {}
        exec(compiled, fn.__globals__, namespace)
        special = vars(namespace["_"])[fn.__name__]
        _SPECIALISED[fn, model] = special
    return special


def _timing_model(core) -> str:
    """Name the timing model the block executor inlines for *core*.

    ``"inorder"``: ``BaseCore``'s in-order timing over single-cycle SRAM
    (CV32E40P). ``"cached"``: the same with CVA6's write-through D$,
    uncached ranges and predictor. ``"window"``: NaxRiscv's dataflow
    window over its write-back D$. Each model's timing arms stand in for
    exactly these hooks, so a core class overriding any of them (or a D$
    or predictor of another kind) would be timed wrong on the block
    path; it gets a :class:`ConfigurationError` instead.
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
        f"{cls.__name__} overrides a timing hook that the block executor "
        f"does not model, so block dispatch would time it wrong")


def _standard_models(core) -> bool:
    """True when *core*'s D$ and predictor are the stock models."""
    return (type(core.dcache).lookup is CacheModel.lookup
            and type(core.predictor).predict_and_update
            is BimodalPredictor.predict_and_update)


class BlockEngine:
    """PC-keyed block cache plus the block executor for one core."""

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
        model = _timing_model(core)
        params = core.params
        lrl = params.load_result_latency
        #: NaxRiscv's window: :meth:`_spin_forward` probes its front end.
        self._window = window = model == "window"
        # Static per-core state, unpacked into executor locals in one go
        # (tuple unpack beats a pile of attribute chains per block). All
        # referenced objects are stable for the core's lifetime (restores
        # mutate them in place); per-run dynamic state (cycle, bank, dirty
        # tracking, the timeline and CVA6's uncached range — the System
        # sets both after construction) is read per call instead. Each
        # model reads its own entries: CV32E40P has no D$ or predictor.
        models = (None,) * 8
        if model != "inorder":
            dcache = core.dcache
            predictor = core.predictor
            models = (dcache, dcache._lines, dcache.sets, dcache.line_bytes,
                      dcache.lookup, predictor, predictor.counters,
                      predictor.entries)
        # The uncached load latency (SRAM, CVA6's bus, NaxRiscv's MMIO)
        # and the branch penalty (taken on CV32E40P, which resolves
        # branches in EX; mispredicted on CVA6; the front-end refill of
        # a mispredict on NaxRiscv).
        if model == "inorder":
            io_lat, mp_pen = lrl, params.branch_taken_penalty
        elif model == "cached":
            io_lat, mp_pen = lrl + 1, params.branch_mispredict_penalty
        else:
            io_lat, mp_pen = lrl + 4, 1 + params.branch_mispredict_penalty
        # Loads and stores that reach past ``ram_end`` (MMIO, faults, and
        # RAM above the lowest MMIO address) go through ``Memory``.
        ram_end = min(core.mem.size, min(MMIO_ADDRS))
        self._hoist = (
            core.mem, core.mem.data, ram_end, core.reg_avail,
            core.stats, core._decode_cache, self.addr_map, MMIO_ADDRS,
            core.config.dirty, params.custom_commit_delay, self.cache,
            self.cache.capacity or _INF) + models + (
            lrl, lrl + params.cache_miss_penalty, io_lat, mp_pen,
            params.jump_penalty, params.mul_latency, params.div_cycles,
            params.csr_cycles if window else params.csr_cycles - 1,
            params.cache_line_words, params.issue_width,
            params.cache_line_words // 2,
            1 + params.cache_miss_penalty // 2)
        self._exec_block = _specialise(BlockEngine._exec_block,
                                       model).__get__(self)
        # The instance attribute shadows the source method for callers.
        self.dispatch = _specialise(BlockEngine.dispatch, model).__get__(self)

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
        # The executor resyncs the interrupt horizon *inside* the record
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
            rec = _classify(instr)
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
        reports it stale. The executor also resyncs it in place
        mid-block to keep executing. Cache probes use the raw dict
        lookup; LRU recency is refreshed only once the cache is actually
        full, when eviction order starts to matter.

        The executor never chains into a spin loop (:func:`_spin_shape`),
        so this loop runs one iteration of it per executor call and
        hands each iteration boundary to :meth:`_spin_forward`.

        It loads core attributes once per block, as often as the
        executor does, so each engine runs its own timing model's copy
        (:func:`_specialise`), whose inline caches see one core class.
        """
        core = self.core
        cache = self.cache
        cap = cache.capacity or _INF
        dget = dict.get
        slow_pcs = self.slow_pcs
        slow_cap = slow_pcs.capacity or _INF
        counts = self.slow_counts
        exec_block = self._exec_block
        limit = max_cycles + 1  # bail ceiling handed to the executor
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
        one dispatch call see consecutive boundaries: the executor
        never chains into a spin loop, and the loop's only exit is its
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

    # -- executor ------------------------------------------------------------

    def _exec_block(self, block, bail, limit):
        """Run *block*, and the cached blocks it chains into, timed inline.

        This is the one executor source for the three timing models, and
        it is never called as written: :func:`_specialise` compiles a
        copy per model with ``INORDER``, ``CACHED`` and ``WINDOW`` folded
        to constants. Each record's architectural effects run as in
        ``BaseCore._exec``, and its timing arm then times it as the
        model's exact-path hooks would:

        * ``INORDER`` (CV32E40P): ``BaseCore._time`` and ``_mem_time``
          over single-cycle SRAM; a taken branch pays its bubbles.
        * ``CACHED`` (CVA6): the same issue arithmetic with ``_mem_time``
          and ``_branch_time``. MMIO and the uncached context range cost
          one bus beat, loads probe the write-through, no-allocate D$ (a
          miss refills a line over the bus), every store takes a bus
          beat and refreshes a D$ hit, and branches train the bimodal
          predictor.
        * ``WINDOW`` (NaxRiscv): ``_time``'s dataflow window. A record
          takes a front-end slot (``issue_width`` per cycle) and issues
          once its operands are ready. A memory op also waits for the
          single LSU port, which a D$ access holds for a cycle and a line
          refill for half a line. A mispredicted branch or a ``jalr``
          refills the front end, and a CSR op serialises it. ``cycle``
          follows the in-order commit front, except after a custom op,
          which sets ``cycle`` and ``next_issue`` outright. At exit
          ``next_issue`` follows from the front and the last issue,
          except after a CSR op (fixed before its serialising flush)
          or a custom op: ``fix_at`` is the ``done`` count at which it
          was last fixed.

        Hot state lives in locals and is written back on every exit
        path, a fault included: the clock, the stat deltas, the port
        timeline's clamp, the D$ and predictor counters and NaxRiscv's
        front, free slots, commit front and LSU port. ``core.cycle`` is
        synced before an MMIO access (mtime and probe records read it).
        The register bank cannot change inside a call (traps, ``mret``
        and rescheduling custom ops are never predecoded), so ``regs``
        is hoisted once.

        Horizon-writing records (mstatus/mie CSR writes,
        context-restoring custom ops) recompute the interrupt horizon in
        place — ``self._horizon()`` is side-effect-free — clamp ``bail``
        to ``limit`` (the caller's cycle ceiling) and keep executing;
        the per-record ``cycle >= bail`` check then lands the exact-path
        interrupt poll on the same instruction boundary.

        Blocks chain: after a clean completion the loop probes the block
        cache for the next PC itself, exactly as :meth:`dispatch` would
        (raw ``dict.get``, a block hit, LRU refresh once the cache is
        full), and keeps running under the same ``bail`` with its locals
        hoisted. It returns to dispatch at the bail cycle, at a PC with
        no cached block, before a spin loop (dispatch runs those one
        iteration per call), after an MMIO or self-modifying store and
        at a rescheduling custom op, which runs through ``_step_custom``
        once the locals are written back. Returns True when dispatch's
        cached interrupt horizon is stale: after the last two of those,
        or after a horizon write anywhere in the call.
        """
        core = self.core
        (mem, data, ram_end, avail, stats, decoded, addr_map, mmio,
         config_dirty, custom_delay, cache, cap, dcache, lines, nsets,
         line_bytes, lookup, predictor, counters, entries, load_lat,
         miss_lat, io_lat, mp_pen, jump_pen, mul_lat, div_lat, csr_lat,
         line_words, width, refill, store_miss) = self._hoist
        if CACHED:
            # The System adds CVA6's one uncached range (the context
            # region) after the engine is built, so it is read per call.
            (unc_lo, unc_hi), = core.uncached_ranges or _NO_RANGE
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
        if WINDOW:
            front = core._front
            slots = core._front_slots
            commit = core._last_commit
            lsu = core._lsu_next
            fix_at = issue = 0
        loads = stores = branches = takenb = regw = stall = customs = 0
        dirty = done = hits = preds = mps = chained = 0
        instr = brk = None
        pc_set = stale = False
        try:
            while True:
                for rec in block.records:
                    kind, rd, rs1, rs2, imm, instr, fn = rec
                    if kind <= K_AUIPC:
                        if kind == K_ADDI:
                            value = (regs[rs1] + imm) & MASK32
                        elif kind == K_ALU:
                            value = fn(regs[rs1], regs[rs2]) & MASK32
                        elif kind == K_ALUI:
                            value = fn(regs[rs1], imm) & MASK32
                        elif kind == K_LUI:
                            value = (imm << 12) & MASK32
                        else:  # K_AUIPC
                            value = (instr.addr + (imm << 12)) & MASK32
                        if WINDOW:
                            if slots:
                                slots -= 1
                            else:
                                front += 1
                                slots = width - 1
                            issue = front
                        else:
                            issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - (front if WINDOW else next_issue)
                        if WINDOW:
                            complete = issue + 1
                            if complete > commit:
                                commit = complete
                            cycle = commit
                        else:
                            complete = cycle = issue
                            next_issue = issue + 1
                    elif kind == K_LOAD:
                        size, sign_bit, sign_ext = fn
                        addr = (regs[rs1] + imm) & MASK32
                        if addr % size or addr + size > ram_end:
                            # MMIO reads the live cycle; a fault raises.
                            core.cycle = cycle
                            value = mem.read(addr, size)
                        else:
                            value = int.from_bytes(data[addr:addr + size],
                                                   "little")
                        if sign_bit and value & sign_bit:
                            value |= sign_ext
                        loads += 1
                        if WINDOW:
                            if slots:
                                slots -= 1
                            else:
                                front += 1
                                slots = width - 1
                            issue = front
                        else:
                            issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - (front if WINDOW else next_issue)
                        if WINDOW and lsu > issue:
                            issue = lsu
                        if (INORDER or addr in mmio
                                or CACHED and unc_lo <= addr < unc_hi):
                            # Uncached: one beat on the port.
                            if issue > tl_last:
                                tl_last = issue
                            if tl_last >= tl_scan:
                                tl_append(tl_last)
                            tl_marks += 1
                            complete = issue + io_lat
                            if WINDOW:
                                lsu = issue + 2
                        else:
                            if WINDOW:
                                # The D$ access holds the LSU port a cycle.
                                if issue > tl_last:
                                    tl_last = issue
                                if tl_last >= tl_scan:
                                    tl_append(tl_last)
                                tl_marks += 1
                                lsu = issue + 1
                            line = addr // line_bytes
                            ways = dget(lines, line % nsets)
                            if ways and ways[-1] == line:
                                hits += 1  # MRU way: LRU order unchanged
                                complete = issue + load_lat
                            elif lookup(addr, False):
                                complete = issue + load_lat
                            else:
                                # The refill holds the port for a line.
                                if CACHED:
                                    if issue > tl_last:
                                        tl_last = issue
                                    if tl_last >= tl_scan:
                                        tl_append(tl_last)
                                    tl_marks += 1
                                for beat in range(issue + 1,
                                                  issue + line_words):
                                    if beat > tl_last:
                                        tl_last = beat
                                    if tl_last >= tl_scan:
                                        tl_append(tl_last)
                                tl_marks += line_words - 1
                                complete = issue + miss_lat
                                if WINDOW:
                                    lsu = issue + refill
                        if WINDOW:
                            if complete > commit:
                                commit = complete
                            cycle = commit
                        else:
                            cycle = issue
                            next_issue = issue + 1
                    elif kind == K_STORE:
                        addr = (regs[rs1] + imm) & MASK32
                        if addr % fn or addr + fn > ram_end:
                            # MMIO (halt and probe record the live cycle);
                            # a fault raises.
                            core.cycle = cycle
                            mem.write(addr, regs[rs2], fn)
                            io = addr in mmio
                        else:
                            io = False
                            if fn == 4:
                                data[addr:addr + 4] = regs[rs2].to_bytes(
                                    4, "little")
                            else:
                                data[addr:addr + fn] = (
                                    regs[rs2] & (1 << 8 * fn) - 1).to_bytes(
                                        fn, "little")
                        stores += 1
                        if WINDOW:
                            if slots:
                                slots -= 1
                            else:
                                front += 1
                                slots = width - 1
                            issue = front
                        else:
                            issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - (front if WINDOW else next_issue)
                        if WINDOW and lsu > issue:
                            issue = lsu
                        # Every store holds the port in its issue cycle.
                        if issue > tl_last:
                            tl_last = issue
                        if tl_last >= tl_scan:
                            tl_append(tl_last)
                        tl_marks += 1
                        if INORDER or io or CACHED and unc_lo <= addr < unc_hi:
                            if WINDOW:
                                complete = issue + io_lat
                                lsu = issue + 2
                        else:
                            if WINDOW:
                                complete = lsu = issue + 1
                            line = addr // line_bytes
                            ways = dget(lines, line % nsets)
                            if ways and ways[-1] == line:
                                hits += 1
                            elif not lookup(addr, True) and WINDOW:
                                # Write-back allocates the line (CVA6's
                                # write-through D$ does not).
                                for beat in range(issue + 1,
                                                  issue + line_words):
                                    if beat > tl_last:
                                        tl_last = beat
                                    if tl_last >= tl_scan:
                                        tl_append(tl_last)
                                tl_marks += line_words - 1
                                complete = issue + store_miss
                                lsu = issue + refill
                        if WINDOW:
                            if complete > commit:
                                commit = complete
                            cycle = commit
                        else:
                            cycle = issue
                            next_issue = issue + 1
                        done += 1
                        if io:
                            stale = True
                            break  # halt/msip/mtimecmp may have changed
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
                        if WINDOW:
                            if slots:
                                slots -= 1
                            else:
                                front += 1
                                slots = width - 1
                            issue = front
                        else:
                            issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - (front if WINDOW else next_issue)
                        if INORDER:
                            miss = taken  # no predictor: not taken
                        else:
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
                        if WINDOW:
                            if miss:
                                c = issue + mp_pen  # front-end refill
                                if c > front:
                                    front = c
                                    slots = width
                            complete = issue + 1
                            if complete > commit:
                                commit = complete
                            cycle = commit
                        else:
                            cycle = issue + mp_pen if miss else issue
                            next_issue = cycle + 1
                    elif kind <= K_JALR:
                        if kind == K_JAL:
                            pc = (instr.addr + imm) & MASK32
                        else:
                            pc = (regs[rs1] + imm) & MASK32 & ~1
                        pc_set = True
                        if rd:
                            value = (instr.addr + 4) & MASK32
                        if WINDOW:
                            if slots:
                                slots -= 1
                            else:
                                front += 1
                                slots = width - 1
                            issue = front
                        else:
                            issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - (front if WINDOW else next_issue)
                        if WINDOW:
                            if kind == K_JALR:
                                # The indirect target resolves at issue.
                                c = issue + 2
                                if c > front:
                                    front = c
                                    slots = width
                            complete = issue + 1
                            if complete > commit:
                                commit = complete
                            cycle = commit
                        else:
                            complete = issue
                            cycle = issue + jump_pen
                            next_issue = cycle + 1
                    elif kind <= K_DIV:
                        value = fn(regs[rs1], regs[rs2]) & MASK32
                        if WINDOW:
                            if slots:
                                slots -= 1
                            else:
                                front += 1
                                slots = width - 1
                            issue = front
                        else:
                            issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - (front if WINDOW else next_issue)
                        if WINDOW:
                            complete = issue + (mul_lat if kind == K_MUL
                                                else div_lat)
                            if complete > commit:
                                commit = complete
                            cycle = commit
                        elif kind == K_MUL:
                            complete = issue + mul_lat
                            cycle = issue
                            next_issue = issue + 1
                        else:
                            complete = issue
                            cycle = issue + div_lat
                            next_issue = cycle + 1
                    elif kind == K_CSR:
                        value = fn(regs[rs1])
                        if WINDOW:
                            if slots:
                                slots -= 1
                            else:
                                front += 1
                                slots = width - 1
                            issue = front
                        else:
                            issue = next_issue
                        a = avail[rs1]
                        if a > issue:
                            issue = a
                        a = avail[rs2]
                        if a > issue:
                            issue = a
                        stall += issue - (front if WINDOW else next_issue)
                        if WINDOW:
                            complete = issue + csr_lat
                            if complete > commit:
                                commit = complete
                            cycle = commit
                            # Fixed before the serialising flush.
                            next_issue = (front if front > issue + 1
                                          else issue + 1)
                            fix_at = done + 1
                            if complete > front:
                                front = complete
                                slots = width
                        else:
                            complete = issue
                            cycle = issue + csr_lat
                            next_issue = cycle + 1
                        if imm:
                            # mstatus/mie write: interrupts may have been
                            # enabled or masked — resync the horizon in
                            # place and keep going under the new bail.
                            stale = True
                            core.cycle = cycle
                            h = self._horizon()
                            bail = h if h < limit else limit
                    elif kind == K_CUSTOM:
                        # Block-resident: same issue/commit arithmetic as
                        # ``_step_custom``, effects via the per-op handler.
                        # Custom ops take no front-end slot.
                        c = next_issue
                        if WINDOW and fix_at != done:
                            c = front if front > issue + 1 else issue + 1
                        a = avail[rs1]
                        if a > c:
                            c = a
                        a = avail[rs2]
                        if a > c:
                            c = a
                        c += custom_delay
                        value, cycle = fn(regs[rs1], regs[rs2], c)
                        value &= MASK32
                        if cycle < c:
                            cycle = c
                        complete = next_issue = cycle + 1
                        customs += 1
                        tl_scan = timeline._scan  # the FSMs may have consumed
                        if WINDOW:
                            fix_at = done + 1
                        if imm:
                            # Restored MSTATUS/MEPC — resync the horizon in
                            # place and keep going under the new bail.
                            stale = True
                            core.cycle = cycle
                            h = self._horizon()
                            bail = h if h < limit else limit
                    else:  # K_CUSTOM_BRK
                        brk = instr
                        break
                    if rd:
                        regs[rd] = value
                        regw += 1
                        if track_dirty:
                            dirty |= 1 << rd
                        avail[rd] = complete
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
            if WINDOW:
                if fix_at != done:
                    next_issue = front if front > issue + 1 else issue + 1
                core._front = front
                core._front_slots = slots
                core._last_commit = commit
                core._lsu_next = lsu
            core.cycle = cycle
            core.next_issue = next_issue
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
            # exact path on the synced core; it ends the call.
            core.pc = brk.addr
            core._step_custom(brk)
            stats.instret += 1
            self.fast_instret += 1
            return True
        core.pc = pc if pc_set else (instr.addr + 4) & MASK32
        return stale
