"""Host-fault specifications and seeded chaos policy generation.

Where :mod:`repro.faults` corrupts the *simulated hardware*, this module
corrupts the *host infrastructure that serves simulations*: pool
workers, cache blobs, spool files. A :class:`ChaosSpec` names one fault
— *what* goes wrong (``kind``) and *where* (``site``, an explicit hook
in the production code) and *when* (the ``at``-th visit of that site, or
a seeded ``rate`` per visit). Specs are plain data interpreted by
:mod:`repro.chaos.hooks`, so campaigns can be generated, logged and
replayed deterministically from a seed — the exact design of
:class:`repro.faults.model.FaultSpec` one level up the stack.

Chaos kinds
===========

``worker_crash``
    The visiting code raises :class:`InjectedCrash` (an infrastructure
    failure, **not** a :class:`~repro.errors.ReproError`, so it escapes
    the worker's deterministic-error catch and consumes the executor's
    retry budget). With ``ChaosPolicy.hard_crash`` the whole worker
    process dies via ``os._exit`` instead — a real SIGKILL-shaped death
    that breaks the process pool.
``worker_hang``
    The visiting code sleeps ``delay_s`` seconds — long enough, with an
    executor deadline configured, to trip the stall watchdog.
``slow_io``
    A bounded ``delay_s`` sleep: degraded storage, not a failure.
``corrupt_blob``
    The payload the site is about to read has a byte flipped.
``truncate_blob``
    The payload the site is about to read is cut in half.
``partial_write``
    The write the site is about to perform stops halfway (a crash
    mid-write without the atomic rename).
``drop_result``
    The write the site is about to perform is silently lost.
"""

from __future__ import annotations

import random
import zlib
from dataclasses import dataclass, field

from repro.errors import ChaosInjectionError


def derive_seed(seed: int, *parts: object) -> int:
    """Mix *seed* with identifying parts into a stable 32-bit sub-seed.

    Same CRC32 mixer as :func:`repro.faults.model.derive_seed`, kept
    local because the chaos hooks sit *below* the fault campaign in the
    import graph (``kernel.builder`` fires chaos sites, and
    ``repro.faults`` builds kernels).
    """
    text = ":".join(str(part) for part in parts)
    return (seed * 0x9E3779B1 + zlib.crc32(text.encode())) & 0xFFFFFFFF

#: All chaos kinds the hooks understand.
CHAOS_KINDS: tuple[str, ...] = (
    "worker_crash", "worker_hang", "slow_io", "corrupt_blob",
    "truncate_blob", "partial_write", "drop_result",
)

#: Injection sites — explicit hook points in the production code.
CHAOS_SITES: tuple[str, ...] = (
    "worker.run",       # dse.executor.execute_point, before simulating
    "cache.read",       # dse.cache.ResultCache.get, before decoding
    "cache.write",      # dse.cache.ResultCache.put, before the store
    "build.read",       # kernel.builder.assemble_cached, on a cache hit
    "spool.result",     # service.client result-file delivery
)

#: Which kinds make sense at which site (validation, not enforcement —
#: the hooks simply ignore kinds their site cannot interpret).
SITE_KINDS: dict[str, tuple[str, ...]] = {
    "worker.run": ("worker_crash", "worker_hang", "slow_io"),
    "cache.read": ("corrupt_blob", "truncate_blob", "slow_io"),
    "cache.write": ("partial_write", "slow_io"),
    "build.read": ("corrupt_blob", "truncate_blob"),
    "spool.result": ("drop_result", "partial_write", "slow_io"),
}


class InjectedCrash(RuntimeError):
    """An injected infrastructure failure.

    Deliberately **not** a :class:`~repro.errors.ReproError`: the worker
    bridge converts library errors into per-job records, while
    infrastructure failures must escape and consume the retry budget —
    an injected crash has to take the second path to be a faithful model
    of a dying worker.
    """


@dataclass(frozen=True)
class ChaosSpec:
    """One scheduled host fault.

    ``at`` selects the N-th visit of ``site`` (1-based); ``at=0`` means
    "every visit, with probability ``rate``" — the seeded-rate mode used
    by the resilience benchmark. ``delay_s`` parameterizes the sleeping
    kinds.
    """

    kind: str
    site: str
    at: int = 1
    rate: float = 0.0
    delay_s: float = 0.02
    note: str = ""

    def __post_init__(self) -> None:
        if self.kind not in CHAOS_KINDS:
            raise ChaosInjectionError(
                f"unknown chaos kind {self.kind!r}; expected one of "
                f"{', '.join(CHAOS_KINDS)}")
        if self.site not in CHAOS_SITES:
            raise ChaosInjectionError(
                f"unknown chaos site {self.site!r}; expected one of "
                f"{', '.join(CHAOS_SITES)}")
        if self.kind not in SITE_KINDS[self.site]:
            raise ChaosInjectionError(
                f"chaos kind {self.kind!r} cannot fire at site "
                f"{self.site!r} (valid: {', '.join(SITE_KINDS[self.site])})")
        if self.at < 0:
            raise ChaosInjectionError(
                f"visit index must be >= 0, got {self.at}")
        if not 0.0 <= self.rate <= 1.0:
            raise ChaosInjectionError(
                f"rate must be in [0, 1], got {self.rate}")
        if self.at == 0 and self.rate == 0.0:
            raise ChaosInjectionError(
                "a spec needs either a visit index (at >= 1) or a rate")
        if self.delay_s < 0:
            raise ChaosInjectionError(
                f"delay_s must be non-negative, got {self.delay_s}")

    def describe(self) -> str:
        when = f"@visit {self.at}" if self.at else f"@rate {self.rate:g}"
        note = f" ({self.note})" if self.note else ""
        return f"{self.kind} at {self.site} {when}{note}"

    def as_dict(self) -> dict:
        return {"kind": self.kind, "site": self.site, "at": self.at,
                "rate": self.rate, "delay_s": self.delay_s,
                "note": self.note}

    @classmethod
    def from_dict(cls, payload: dict) -> "ChaosSpec":
        return cls(kind=payload["kind"], site=payload["site"],
                   at=int(payload.get("at", 1)),
                   rate=float(payload.get("rate", 0.0)),
                   delay_s=float(payload.get("delay_s", 0.02)),
                   note=str(payload.get("note", "")))


@dataclass
class ChaosPolicy:
    """A set of specs plus the per-site visit state that schedules them.

    ``decide(site)`` is the single entry point: it advances the site's
    visit counter and returns the spec that fires on this visit, or
    ``None``. Rate-mode decisions derive their randomness from
    ``derive_seed(seed, site, visit, kind)`` — a pure function of the
    policy and the visit, never of wall clock or ``PYTHONHASHSEED`` —
    so the same policy replays the same faults visit-for-visit.
    """

    specs: tuple = ()
    seed: int = 0
    hard_crash: bool = False
    fired: list = field(default_factory=list)

    def __post_init__(self) -> None:
        self.specs = tuple(self.specs)
        self._visits: dict[str, int] = {}

    def reset(self) -> None:
        self._visits = {}
        self.fired = []

    def visits(self, site: str) -> int:
        return self._visits.get(site, 0)

    def decide(self, site: str):
        """Advance *site*'s visit counter; the spec firing now, or None."""
        visit = self._visits.get(site, 0) + 1
        self._visits[site] = visit
        for spec in self.specs:
            if spec.site != site:
                continue
            if spec.at:
                if spec.at != visit:
                    continue
            else:
                rng = random.Random(
                    derive_seed(self.seed, site, visit, spec.kind))
                if rng.random() >= spec.rate:
                    continue
            self.fired.append((site, visit, spec.kind))
            return spec
        return None


def generate_chaos(seed: int, count: int,
                   sites: tuple[str, ...] = CHAOS_SITES) -> list[ChaosSpec]:
    """Generate *count* random single-shot specs, deterministically.

    The same ``(seed, count, sites)`` always yields the same list —
    the campaign's random-episode extension uses this the way the fault
    campaign uses :func:`repro.faults.model.generate_faults`.
    """
    if count < 0:
        raise ChaosInjectionError(f"count must be >= 0, got {count}")
    rng = random.Random(derive_seed(seed, "chaos-generate", count))
    specs = []
    for index in range(count):
        site = rng.choice(sites)
        kind = rng.choice(SITE_KINDS[site])
        specs.append(ChaosSpec(kind=kind, site=site,
                               at=rng.randint(1, 3),
                               note=f"random#{index}"))
    return specs


def mangle_blob(blob: bytes, kind: str) -> bytes:
    """Apply a data-corruption kind to an in-memory payload.

    The shared primitive behind every ``corrupt_blob``/``truncate_blob``
    site: flip one bit in the middle, or cut the payload in half. An
    empty payload passes through (nothing to corrupt).
    """
    if not blob:
        return blob
    if kind == "truncate_blob":
        return blob[:len(blob) // 2]
    if kind == "corrupt_blob":
        mid = len(blob) // 2
        return blob[:mid] + bytes([blob[mid] ^ 0x40]) + blob[mid + 1:]
    raise ChaosInjectionError(f"{kind!r} is not a data-corruption kind")
