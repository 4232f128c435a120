"""Kernel image builder: assembles boot + ISR + kernel + tasks + data.

``KernelBuilder`` renders one self-contained assembly source for a
(configuration, workload) pair and loads it into a :class:`System`. The
same workload source runs unmodified across cores; only the RTOSUnit
configuration changes the generated ISR/boot/API code — exactly the
FreeRTOS-extension story of the paper.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

from repro.chaos.hooks import fire as _chaos_fire
from repro.chaos.model import mangle_blob
from repro.errors import KernelError
from repro.cores.system import System, build_system
from repro.isa.assembler import Program, assemble, reset_memo
from repro.kernel.boot import boot_asm
from repro.kernel.layout import equates
from repro.kernel.lists import LIST_ASM
from repro.kernel.tasks import KernelObjects, TaskSpec, data_section
from repro.mem.regions import MemoryLayout
from repro.rtosunit.config import RTOSUnitConfig
from repro.util.lru import LRUCache

_DEFAULT_EXT_HANDLER = """\
ext_irq_handler:
    ret
"""

#: Content-addressed build cache: (source text, origin) →
#: (Program, blob, blob digest). The assembler is pure, so identical
#: source assembles identically — each distinct kernel image is
#: assembled once per process and then shared by every run, sweep cell
#: and DSE pool worker that needs it.
_PROGRAM_CACHE: LRUCache = LRUCache(64)


class _BuildCacheHealth:
    """Self-healing accounting for the in-process build cache."""

    def __init__(self):
        self.corrupt_evictions = 0

    def as_dict(self) -> dict:
        return {"corrupt_evictions": self.corrupt_evictions}


#: Process-wide build-cache health counters (reset with the cache).
BUILD_CACHE_HEALTH = _BuildCacheHealth()


def assemble_cached(source: str, origin: int) -> tuple[Program, bytes]:
    """Assemble *source*, memoized, with a pre-rendered flat image.

    The blob covers address 0 through the highest assembled word, ready
    for :meth:`Memory.load_blob`'s single slice blit. Every hit is
    digest-verified: a blob that no longer hashes to what was stored
    (in-memory corruption, or an injected chaos fault) is evicted,
    counted, and rebuilt from source — never loaded into a system.
    """
    key = (source, origin)
    cached = _PROGRAM_CACHE.get(key)
    if cached is not None:
        program, blob, digest = cached
        spec = _chaos_fire("build.read")
        if spec is not None:
            blob = mangle_blob(blob, spec.kind)
        if hashlib.sha256(blob).hexdigest() == digest:
            return program, blob
        del _PROGRAM_CACHE[key]
        BUILD_CACHE_HEALTH.corrupt_evictions += 1
    program = assemble(source, origin=origin)
    top = max(program.words) + 4 if program.words else 0
    image = bytearray(top)
    for addr, word in program.words.items():
        image[addr:addr + 4] = word.to_bytes(4, "little")
    blob = bytes(image)
    _PROGRAM_CACHE[key] = (program, blob,
                           hashlib.sha256(blob).hexdigest())
    return program, blob


def reset_program_cache() -> None:
    """Drop all memoized builds and the assembler's memo (tests and
    long-lived services)."""
    _PROGRAM_CACHE.clear()
    reset_memo()
    BUILD_CACHE_HEALTH.corrupt_evictions = 0


@dataclass
class KernelBuilder:
    """Builds runnable kernel images for one configuration."""

    config: RTOSUnitConfig
    objects: KernelObjects
    layout: MemoryLayout = None  # type: ignore[assignment]
    tick_period: int = 1000
    include_idle: bool = True
    validate: bool = True

    def __post_init__(self) -> None:
        from repro.personalities import personality_by_name

        if self.layout is None:
            self.layout = MemoryLayout()
        self._personality = personality_by_name(self.config.personality)
        self.tasks: list[TaskSpec] = list(self.objects.tasks)
        if self.include_idle:
            if any(t.name == "idle" for t in self.tasks):
                raise KernelError(
                    "task name 'idle' is reserved for the idle task")
            self.tasks.append(self._personality.idle_task())
        if not self.tasks:
            raise KernelError("a kernel needs at least one task")
        # A task set the personality cannot represent is a hard build
        # error (e.g. two tasks on one priority under scm) — not an
        # optional lint, so it is checked regardless of ``validate``.
        from repro.kernel.validate import personality_conflicts

        conflicts = personality_conflicts(self.tasks, self._personality)
        if conflicts:
            raise KernelError(
                f"task set not representable under personality "
                f"{self._personality.name!r}: " + "; ".join(conflicts))
        if self.config.sched:
            ready_count = sum(t.auto_ready for t in self.tasks)
            if ready_count > self.config.list_length:
                raise KernelError(
                    f"{ready_count} initially ready tasks exceed the "
                    f"hardware list length {self.config.list_length}")
        if self.config.hwsync:
            n_sems = len(self.objects.semaphores)
            if n_sems > self.config.sem_slots:
                raise KernelError(
                    f"{n_sems} semaphores exceed the {self.config.sem_slots} "
                    f"hardware semaphore slots")
        if self.validate:
            from repro.kernel.validate import require_clean

            require_clean(self.objects)
        self._source: str | None = None

    # -- source rendering -------------------------------------------------------

    def source(self) -> str:
        """Render the complete assembly source (memoized).

        The rendered text doubles as the content-address of the build:
        the program cache hashes it, so it must (and does) capture every
        input that can change the image.
        """
        if self._source is None:
            self._source = self._render_source()
        return self._source

    def _render_source(self) -> str:
        objects = KernelObjects(
            tasks=self.tasks,
            semaphores=self.objects.semaphores,
            queues=self.objects.queues,
            ext_handler=self.objects.ext_handler,
        )
        ready = [(task_id, task.priority)
                 for task_id, task in enumerate(self.tasks)
                 if task.auto_ready]
        first = max(ready, key=lambda pair: pair[1])[0]
        parts = [
            equates(self.layout, self.tick_period),
            f".equ ISR_STACK_TOP, {self.layout.stack_base:#x}\n",
            f".equ LIST_SCAN_BOUND, {self.layout.max_tasks}\n",
            f".equ DELAY_WAKE_BOUND, {self.config.list_length}\n",
            ".equ BLOCK_RETRY_BOUND, 4\n",
            boot_asm(self.config, ready, first,
                     sem_inits=[(index, sem.initial)
                                for index, sem in
                                enumerate(self.objects.semaphores)]),
            self._personality.isr_asm(self.config),
            LIST_ASM,
            (self._personality.sched_asm(self.config)
             if not self.config.sched else _sw_sched_stub()),
            self._personality.api_asm(self.config),
            objects.ext_handler or _DEFAULT_EXT_HANDLER,
        ]
        for task in self.tasks:
            parts.append(task.body if task.body.endswith("\n")
                         else task.body + "\n")
        parts.append(data_section(objects, self.layout, self.config,
                                  personality=self._personality))
        return "\n".join(parts)

    # -- building ------------------------------------------------------------------

    def program(self) -> Program:
        return assemble_cached(self.source(), self.layout.text_base)[0]

    def build(self, core_name: str, external_events=None,
              mem_size: int = 1 << 20) -> System:
        """Assemble (cached) and load into a ready-to-run :class:`System`."""
        program, blob = assemble_cached(self.source(), self.layout.text_base)
        system = build_system(
            core_name, self.config, layout=self.layout,
            tick_period=self.tick_period, mem_size=mem_size,
            external_events=external_events)
        system.load_image(program, blob)
        return system


def _sw_sched_stub() -> str:
    """Hardware-scheduled kernels keep the panic entry point only."""
    return """
kernel_panic:
    li   t0, HALT_ADDR
    li   t1, 0xDEAD
    sw   t1, 0(t0)
kp_spin:
    j    kp_spin
"""


def build_kernel_system(core_name: str, config: RTOSUnitConfig,
                        objects: KernelObjects, *,
                        tick_period: int = 1000,
                        external_events=None,
                        layout: MemoryLayout | None = None) -> System:
    """One-call convenience: build and load a kernel for a workload."""
    builder = KernelBuilder(config=config, objects=objects,
                            layout=layout or MemoryLayout(),
                            tick_period=tick_period)
    return builder.build(core_name, external_events=external_events)
