"""Host-level chaos engineering for the simulation serving stack.

The counterpart of :mod:`repro.faults`, one level up: instead of
flipping bits inside the *simulated hardware*, this package injects
seeded, deterministic faults into the *host infrastructure* — pool
workers, cache blobs, spool files — through explicit hooks in the
production code, and the campaign harness
(:mod:`repro.chaos.campaign`, run by ``python -m repro chaos``)
classifies what the serving stack did about each one:

* ``masked``   — behaviour identical to the fault-free run, nothing
  even engaged;
* ``detected`` — results identical, but self-healing machinery fired
  (corrupt-blob eviction, worker retry, pool restart, spool repost);
* ``degraded`` — some jobs resolved with *structured* non-``done``
  records (poison quarantine, shedding, circuit breaking) while every
  delivered payload stayed byte-identical to golden;
* ``failed``   — a hang, an unstructured error, or — worst of all — a
  silently wrong payload.

This module exports only the model and the hooks; import
:mod:`repro.chaos.campaign` directly for the harness (it pulls in the
whole service stack, which in turn hooks back into these sites).
"""

from repro.chaos.hooks import (
    active,
    fire,
    install,
    installed,
    uninstall,
)
from repro.chaos.model import (
    CHAOS_KINDS,
    CHAOS_SITES,
    SITE_KINDS,
    ChaosPolicy,
    ChaosSpec,
    InjectedCrash,
    generate_chaos,
    mangle_blob,
)

__all__ = [
    "CHAOS_KINDS",
    "CHAOS_SITES",
    "ChaosPolicy",
    "ChaosSpec",
    "InjectedCrash",
    "SITE_KINDS",
    "active",
    "fire",
    "generate_chaos",
    "install",
    "installed",
    "mangle_blob",
    "uninstall",
]
