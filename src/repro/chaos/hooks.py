"""The chaos injection points: install a policy, fire at sites.

The production code calls :func:`fire(site)` at each explicit injection
site. With no policy installed (the default, always, outside chaos
campaigns and tests) the call is a single module-global ``None`` check —
the serving stack pays nothing for being injectable.

With a policy installed, :func:`fire` consults
:meth:`~repro.chaos.model.ChaosPolicy.decide` and *executes* the
control-flow kinds inline — sleeping for ``slow_io``/``worker_hang``,
raising :class:`~repro.chaos.model.InjectedCrash` (or killing the
process, in ``hard_crash`` mode) for ``worker_crash`` — while the
data-corruption kinds (``corrupt_blob``, ``truncate_blob``,
``partial_write``, ``drop_result``) are returned to the caller, which
alone knows what payload to mangle.

Process pools always fork their workers (``repro.dse.executor.WorkerPool``),
so a worker inherits the policy installed when its pool starts and
replays visits from its own copy of the counters.
"""

from __future__ import annotations

import contextlib
import os
import time

from repro.chaos.model import ChaosPolicy, InjectedCrash

_POLICY: ChaosPolicy | None = None


def install(policy: ChaosPolicy) -> None:
    """Make *policy* the process-wide chaos policy."""
    global _POLICY
    _POLICY = policy


def uninstall() -> None:
    """Remove any installed policy."""
    global _POLICY
    _POLICY = None


def active() -> ChaosPolicy | None:
    """The installed policy, or ``None``."""
    return _POLICY


@contextlib.contextmanager
def installed(policy: ChaosPolicy):
    """Scope a policy to a ``with`` block (tests and campaign episodes)."""
    install(policy)
    try:
        yield policy
    finally:
        uninstall()


def fire(site: str):
    """Visit injection site *site*; returns a data-corruption spec or None.

    Control-flow kinds happen here: ``slow_io`` and ``worker_hang``
    sleep, ``worker_crash`` raises :class:`InjectedCrash` (or exits the
    process when the policy runs in ``hard_crash`` mode). The remaining
    kinds describe payload damage only the call site can apply, so the
    spec is handed back.
    """
    policy = _POLICY
    if policy is None:
        return None
    spec = policy.decide(site)
    if spec is None:
        return None
    if spec.kind in ("slow_io", "worker_hang"):
        time.sleep(spec.delay_s)
        return None
    if spec.kind == "worker_crash":
        if policy.hard_crash:
            os._exit(57)  # simulated OOM-kill: no cleanup, no excuses
        raise InjectedCrash(f"chaos: injected worker crash at {site}")
    return spec
