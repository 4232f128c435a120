"""Host-speed calibration: a fixed pure-Python workload, timed in chunks.

The host the benchmark runs on is shared, and the speed of each of its
CPUs drifts with the load of other tenants, over seconds and over
minutes. A :class:`Sampler` in the timed process, and in every pool
worker it forks, times a short chunk of this workload every
``INTERVAL_S`` on the CPU the work runs on; ``run.py`` scales the
process's timings by ``REFERENCE_MS`` over the mean chunk time, so they
read as seconds on a host where a chunk takes ``REFERENCE_MS``. Chunks
timed from another process track the work's CPU far worse.

The workload is a toy register machine interpreted in Python (tuple
decode, list registers, branches, a dict decode cache and a 1 MiB
bytearray memory, the kinds of work the simulator's interpreter does),
then page faults on a fresh mapping, standing in for the kernel work of
forking pool workers. It never imports ``repro``, so a change to the
program cannot move it.
"""

from __future__ import annotations

import mmap
import os
import pathlib
import signal
import statistics
import time

INTERVAL_S = 0.04       # between chunks while a sampler runs
REFERENCE_MS = 1.0      # chunk time that timings are scaled to
STEPS = 5_000           # steps of the toy machine per chunk
MEMORY = 1 << 20
FAULT_PAGES = 64         # fresh pages touched per chunk
MASK = 0xFFFFFFFF

# (opcode, rd, rs, immediate); opcode 4 is a conditional branch to imm.
PROGRAM = (
    (0, 1, 1, 0x9E37), (1, 2, 1, 0), (2, 2, 1, 0), (3, 3, 2, 0),
    (0, 4, 3, 7), (5, 5, 4, 0), (1, 6, 5, 0), (2, 6, 6, 0),
    (3, 7, 6, 0), (0, 1, 7, 0x51), (4, 1, 0, 0), (5, 3, 1, 0),
    (1, 4, 3, 0), (2, 4, 2, 0), (4, 4, 0, 2),
)

_memory = bytearray(MEMORY)
_cache: dict = {}


def run_machine(steps: int, memory: bytearray, cache: dict) -> int:
    regs = [0] * 8
    program = PROGRAM
    size = len(program)
    pc = 0
    for _ in range(steps):
        op, rd, rs, imm = program[pc]
        if op == 0:
            regs[rd] = (regs[rs] + imm) & MASK
        elif op == 1:
            regs[rd] = (regs[rs] * 1103515245 + 12345) & MASK
        elif op == 2:
            memory[regs[rs] % MEMORY] = regs[rd] & 0xFF
        elif op == 3:
            regs[rd] = regs[rd] ^ memory[(regs[rs] >> 5) % MEMORY]
        elif op == 4:
            if regs[rd] & 1:
                pc = imm
                continue
        else:
            key = regs[rs] & 0xFFF
            entry = cache.get(key)
            if entry is None:
                entry = cache[key] = (key * 31) & MASK
            regs[rd] = entry
        pc += 1
        if pc == size:
            pc = 0
    return regs[1]


def chunk_ms() -> float:
    """CPU time of one chunk of the toy machine, in milliseconds.

    CPU time, not wall time: a chunk that shares its CPU with busy pool
    workers is preempted, and only the time it ran says how fast the CPU
    is.
    """
    start = time.thread_time()
    run_machine(STEPS, _memory, _cache)
    fresh = mmap.mmap(-1, FAULT_PAGES * mmap.PAGESIZE)
    for offset in range(0, len(fresh), mmap.PAGESIZE):
        fresh[offset] = 1
    fresh.close()
    return (time.thread_time() - start) * 1e3


class Sampler:
    """Times a chunk now and on every ``SIGALRM`` until :meth:`stop`.

    Forked pool workers do not inherit the timer; a fork hook starts one
    in each worker, which appends its samples to ``calib-<pid>.txt`` in
    ``spool``. Samples are ``(time.monotonic(), ms)`` pairs, and the
    monotonic clock is shared by all processes of the host.
    """

    def __init__(self, spool: pathlib.Path):
        self._spool = spool
        self._log = None
        self._running = True
        chunk_ms()  # warm-up, not a sample
        self._own = [(time.monotonic(), chunk_ms())]
        self._mark = self._own[0][0]
        os.register_at_fork(after_in_child=self._start_in_worker)
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _tick(self, _signum, _frame) -> None:
        sample = (time.monotonic(), chunk_ms())
        if self._log is None:
            self._own.append(sample)
        else:
            self._log.write("%r %r\n" % sample)

    def _start_in_worker(self) -> None:
        if self._running:
            self._log = open(self._spool / f"calib-{os.getpid()}.txt", "a",
                             buffering=1)
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def samples(self) -> list[tuple[float, float]]:
        """Every sample so far, of this process and its workers."""
        samples = list(self._own)
        for path in self._spool.glob("calib-*.txt"):
            for line in path.read_text().splitlines():
                fields = line.split()
                if len(fields) == 2:  # not a line still being written
                    samples.append((float(fields[0]), float(fields[1])))
        return samples

    def split(self) -> float:
        """Mean chunk time in ms of every process since the last split
        (or the start), counting a chunk taken now in both windows."""
        now = (time.monotonic(), chunk_ms())
        self._own.append(now)
        start, self._mark = self._mark, now[0]
        return mean_ms(self.samples(), start, now[0])

    def stop(self) -> None:
        self._running = False
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)


def mean_ms(samples, start: float, end: float,
            default: float | None = None) -> float:
    """Mean chunk time of the samples taken from ``start`` to ``end``, or
    ``default`` when none was."""
    inside = [ms for when, ms in samples if start <= when <= end]
    return statistics.fmean(inside) if inside else default
