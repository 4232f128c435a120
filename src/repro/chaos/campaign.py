"""Seeded chaos campaigns against a live in-process serving stack.

The host-level mirror of :mod:`repro.faults.campaign`: instead of
corrupting the simulated hardware and asking whether the *RTOS* noticed,
each episode injects one host fault — a crashing worker, a rotting cache
blob, a torn spool file — into a live :class:`SimulationService` and
asks whether the *serving stack* noticed. A fault-free golden run fixes
the reference payload first; every episode's delivered payloads are then
compared byte-for-byte against it and the episode is classified:

``masked``
    every job resolved ``done`` with the golden payload and none of the
    self-healing machinery fired — the fault had no observable effect.
``detected``
    every job resolved ``done`` with the golden payload *because*
    self-healing fired: a corrupt blob was evicted and recomputed, a
    dead worker retried, a dropped spool result reposted. The healing
    counters are the proof.
``degraded``
    some jobs resolved with *structured* non-``done`` records (poison
    quarantine, shedding, open circuit, rejection) — service degraded
    honestly, and every payload that **was** delivered stayed golden.
``failed``
    a hang, an unstructured error escaping the stack, or — the class
    all of this machinery exists to prevent — a *silently wrong
    payload* delivered as ``done``.

Everything is deterministic for a given :class:`CampaignSpec`: episodes
fire on fixed visit indices, details quote counters (never wall-clock),
and the rendered table is byte-identical across runs of the same seed.

This module imports the whole service stack; :mod:`repro.chaos` itself
deliberately does not re-export it (the hooks sit below the service in
the import graph).
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import tempfile
import threading
from dataclasses import dataclass, field

from repro.chaos import hooks
from repro.chaos.model import ChaosPolicy, ChaosSpec
from repro.errors import ChaosInjectionError, ExplorationError

#: Outcome classes, in report order (best to worst).
OUTCOMES: tuple[str, ...] = ("masked", "detected", "degraded", "failed")

#: Counters whose non-zero value proves self-healing machinery engaged.
HEALING_COUNTERS: tuple[str, ...] = (
    "cache_corrupt_evictions",
    "build_corrupt_evictions",
    "worker_retries",
    "worker_crashes",
    "pool_restarts",
    "journal_replays",
    "client_reposts",
    "client_corrupt_results",
)


@dataclass(frozen=True)
class Episode:
    """One targeted fault scenario against the serving stack.

    ``mode`` selects the front door (``service`` = in-process submit,
    ``spool`` = the file-spool protocol with a threaded server);
    ``cached`` enables the result-cache tier; ``submits`` sequential
    submissions of the campaign's single request.
    """

    name: str
    spec: ChaosSpec
    mode: str = "service"
    cached: bool = False
    submits: int = 1


def _episodes() -> tuple[Episode, ...]:
    """The targeted episode list — one per (site, interesting kind)."""
    return (
        Episode("cache-read-corrupt",
                ChaosSpec("corrupt_blob", "cache.read", at=1,
                          note="bit flip in a cached result"),
                cached=True, submits=2),
        Episode("cache-read-truncate",
                ChaosSpec("truncate_blob", "cache.read", at=1,
                          note="cached result cut in half"),
                cached=True, submits=2),
        Episode("cache-write-torn",
                ChaosSpec("partial_write", "cache.write", at=1,
                          note="crash mid-write, no atomic rename"),
                cached=True, submits=2),
        Episode("cache-read-slow",
                ChaosSpec("slow_io", "cache.read", at=1, delay_s=0.01,
                          note="degraded storage, not a failure"),
                cached=True, submits=2),
        Episode("build-read-corrupt",
                ChaosSpec("corrupt_blob", "build.read", at=1,
                          note="bit flip in the program cache"),
                submits=2),
        Episode("worker-crash-retry",
                ChaosSpec("worker_crash", "worker.run", at=1,
                          note="worker dies once, retry succeeds")),
        Episode("worker-crash-poison",
                ChaosSpec("worker_crash", "worker.run", at=0, rate=1.0,
                          note="worker dies every attempt")),
        Episode("spool-result-dropped",
                ChaosSpec("drop_result", "spool.result", at=1,
                          note="result write silently lost"),
                mode="spool"),
        Episode("spool-result-torn",
                ChaosSpec("partial_write", "spool.result", at=1,
                          note="result file torn mid-write"),
                mode="spool"),
    )


@dataclass(frozen=True)
class EpisodeResult:
    """Classified outcome of one episode."""

    name: str
    site: str
    kind: str
    outcome: str
    detail: str


@dataclass
class CampaignResult:
    """All episode outcomes plus the seed that reproduces them."""

    seed: int
    results: list[EpisodeResult] = field(default_factory=list)
    golden_digest: str = ""

    def counts(self) -> dict[str, int]:
        table = {outcome: 0 for outcome in OUTCOMES}
        for result in self.results:
            table[result.outcome] += 1
        return table

    @property
    def silent_corruptions(self) -> int:
        return sum(1 for r in self.results
                   if r.outcome == "failed" and "silent" in r.detail)


@dataclass
class CampaignSpec:
    """Parameters of one chaos campaign."""

    seed: int = 42
    core: str = "cv32e40p"
    config: str = "SLT"
    workload: str = "yield_pingpong"
    iterations: int = 3
    episodes: tuple[str, ...] | None = None  # None = every episode

    @classmethod
    def quick(cls, seed: int = 42) -> "CampaignSpec":
        """A fast subset still covering cache, worker and spool faults."""
        return cls(seed=seed, episodes=(
            "cache-read-corrupt", "cache-write-torn",
            "worker-crash-retry", "worker-crash-poison",
            "spool-result-dropped"))


# -- execution ---------------------------------------------------------------


def _reset_warm_state() -> None:
    from repro.kernel.builder import reset_program_cache

    reset_program_cache()


def _request(spec: CampaignSpec):
    from repro.service import JobRequest

    return JobRequest(core=spec.core, config=spec.config,
                      workload=spec.workload, iterations=spec.iterations,
                      priority="interactive")


def _canonical(payload) -> str:
    return json.dumps(payload, sort_keys=True)


def _drive_service(episode: Episode, request, workdir) -> tuple[list, dict]:
    """Run one episode through an in-process service; (outcomes, counters)."""
    from repro.dse.cache import ResultCache
    from repro.kernel.builder import BUILD_CACHE_HEALTH
    from repro.service import SimulationService

    cache = (ResultCache(os.path.join(workdir, episode.name))
             if episode.cached else None)

    async def go():
        service = SimulationService(jobs=1, retries=1, cache=cache)
        async with service:
            results = []
            for _ in range(episode.submits):
                results.append(await service.submit_and_wait(request))
            return results, service.stats

    results, stats = asyncio.run(asyncio.wait_for(go(), timeout=300.0))
    outcomes = [(r.status, r.run, r.error) for r in results]
    counters = {
        "cache_corrupt_evictions": (cache.stats.corrupt_evictions
                                    if cache is not None else 0),
        "build_corrupt_evictions": BUILD_CACHE_HEALTH.corrupt_evictions,
        "worker_retries": stats.pool.retries,
        "worker_crashes": stats.pool.crashes,
        "pool_restarts": stats.pool.restarts,
        "poisoned": stats.pool.poisoned,
        "shed": stats.shed,
        "circuit_open": stats.circuit_open,
        "journal_replays": stats.journal_replays,
        "client_reposts": 0,
        "client_corrupt_results": 0,
    }
    return outcomes, counters


def _drive_spool(episode: Episode, request, workdir) -> tuple[list, dict]:
    """Run one episode over the spool protocol; (outcomes, counters)."""
    from repro.service import (
        SimulationService,
        SpoolClient,
        request_drain,
        serve_spool,
    )

    spool = os.path.join(workdir, episode.name)
    stats_box: dict = {}
    errors: list = []

    def server():
        async def go():
            service = SimulationService(jobs=1, retries=1)
            async with service:
                stats_box.update(await serve_spool(service, spool,
                                                   poll=0.01))
        try:
            asyncio.run(go())
        except Exception as exc:  # noqa: BLE001 - surfaced as "failed"
            errors.append(exc)

    thread = threading.Thread(target=server, daemon=True)
    thread.start()
    client = SpoolClient(spool, poll=0.02, timeout=120.0, repost_after=2.0)
    records = client.submit_many([request] * episode.submits)
    request_drain(spool, timeout=60.0)
    thread.join(timeout=60.0)
    if errors:
        raise errors[0]
    if thread.is_alive():
        raise ExplorationError("spool server failed to drain (hang)")
    outcomes = [(record.get("status", "missing"), record.get("run"),
                 record.get("error")) for record in records]
    pool = stats_box.get("pool", {})
    counters = {
        "cache_corrupt_evictions": 0,
        "build_corrupt_evictions": 0,
        "worker_retries": pool.get("retries", 0),
        "worker_crashes": pool.get("crashes", 0),
        "pool_restarts": pool.get("restarts", 0),
        "poisoned": pool.get("poisoned", 0),
        "shed": stats_box.get("shed", 0),
        "circuit_open": stats_box.get("circuit_open", 0),
        "journal_replays": stats_box.get("journal_replays", 0),
        "client_reposts": client.reposts,
        "client_corrupt_results": client.corrupt_results,
    }
    return outcomes, counters


def _classify(outcomes: list, counters: dict, golden: str) -> tuple[str, str]:
    """Map one episode's evidence to (outcome, detail)."""
    degraded_types: list[str] = []
    for status, run, error in outcomes:
        if status == "done":
            if _canonical(run) != golden:
                return "failed", ("silent corruption: delivered payload "
                                  "differs from golden")
        elif status == "rejected":
            degraded_types.append((error or {}).get("type", "rejection"))
        elif status == "error":
            if not isinstance(error, dict) or "type" not in error:
                return "failed", "unstructured error outcome"
            degraded_types.append(error["type"])
        else:
            return "failed", f"unexpected outcome status {status!r}"
    healed = [f"{name}={counters[name]}" for name in HEALING_COUNTERS
              if counters.get(name)]
    if degraded_types:
        kinds = ", ".join(sorted(set(degraded_types)))
        detail = f"structured {kinds}"
        if counters.get("poisoned"):
            detail += f"; poisoned={counters['poisoned']}"
        if healed:
            detail += f"; healed: {', '.join(healed)}"
        return "degraded", detail
    if healed:
        return "detected", f"healed: {', '.join(healed)}"
    return "masked", "behaviour identical to golden run"


def _golden_payload(request) -> dict:
    """The fault-free reference payload, via the same service front door."""
    from repro.service import SimulationService

    async def go():
        service = SimulationService(jobs=1, retries=1)
        async with service:
            return await service.submit_and_wait(request)

    _reset_warm_state()
    result = asyncio.run(asyncio.wait_for(go(), timeout=300.0))
    if result.status != "done":
        raise ExplorationError(
            f"golden run failed: {result.error}")
    return result.run


def run_campaign(spec: CampaignSpec, workdir=None,
                 progress=None) -> CampaignResult:
    """Execute every episode; deterministic for a given *spec*.

    ``workdir`` holds the per-episode caches and spools (a temporary
    directory by default). Warm state (the program cache) is
    reset before the golden run and before each episode, so episodes
    cannot contaminate each other and the table is order-independent.
    """
    if hooks.active() is not None:
        raise ChaosInjectionError(
            "a chaos policy is already installed; campaigns must start "
            "from a clean slate")
    episodes = _episodes()
    if spec.episodes is not None:
        known = {episode.name for episode in episodes}
        unknown = set(spec.episodes) - known
        if unknown:
            raise ChaosInjectionError(
                f"unknown episodes: {', '.join(sorted(unknown))} "
                f"(expected among: {', '.join(sorted(known))})")
        episodes = tuple(e for e in episodes if e.name in spec.episodes)
    request = _request(spec)
    with contextlib.ExitStack() as stack:
        if workdir is None:
            workdir = stack.enter_context(
                tempfile.TemporaryDirectory(prefix="repro-chaos-"))
        golden = _canonical(_golden_payload(request))
        campaign = CampaignResult(
            seed=spec.seed,
            golden_digest=_digest(golden))
        for episode in episodes:
            campaign.results.append(
                _run_episode(episode, request, workdir, spec.seed, golden))
            if progress is not None:
                progress(campaign.results[-1])
        _reset_warm_state()
    return campaign


def _digest(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode()).hexdigest()[:16]


def _run_episode(episode: Episode, request, workdir, seed: int,
                 golden: str) -> EpisodeResult:
    policy = ChaosPolicy(specs=(episode.spec,), seed=seed)
    drive = _drive_spool if episode.mode == "spool" else _drive_service
    _reset_warm_state()
    try:
        with hooks.installed(policy):
            outcomes, counters = drive(episode, request, workdir)
    except (Exception, asyncio.TimeoutError) as exc:  # noqa: BLE001
        # Anything escaping the stack — including a campaign-level
        # timeout — is exactly what "failed" means.
        return EpisodeResult(
            name=episode.name, site=episode.spec.site,
            kind=episode.spec.kind, outcome="failed",
            detail=f"unstructured {type(exc).__name__} escaped")
    outcome, detail = _classify(outcomes, counters, golden)
    return EpisodeResult(name=episode.name, site=episode.spec.site,
                         kind=episode.spec.kind, outcome=outcome,
                         detail=detail)


# -- reporting ---------------------------------------------------------------


def format_campaign(campaign: CampaignResult) -> str:
    """Render the episode table; byte-stable for a given campaign."""
    from repro.analysis.reporting import format_table

    rows = [(r.name, r.site, r.kind, r.outcome, r.detail)
            for r in campaign.results]
    counts = campaign.counts()
    summary = "  ".join(f"{outcome}={counts[outcome]}"
                        for outcome in OUTCOMES)
    lines = [
        f"Chaos campaign (seed {campaign.seed}): host-fault episodes "
        f"against the serving stack",
        "",
        format_table(("episode", "site", "kind", "outcome", "detail"),
                     rows),
        "",
        f"episodes: {len(campaign.results)}  {summary}",
        f"silent corruptions: {campaign.silent_corruptions}",
        f"golden payload digest: {campaign.golden_digest}",
    ]
    return "\n".join(lines)


def campaign_dict(campaign: CampaignResult) -> dict:
    """JSON-ready representation (``python -m repro chaos --json``)."""
    return {
        "seed": campaign.seed,
        "golden_digest": campaign.golden_digest,
        "counts": campaign.counts(),
        "silent_corruptions": campaign.silent_corruptions,
        "episodes": [
            {
                "name": r.name,
                "site": r.site,
                "kind": r.kind,
                "outcome": r.outcome,
                "detail": r.detail,
            }
            for r in campaign.results
        ],
    }
