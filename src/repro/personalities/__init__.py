"""Kernel personalities: one scheduler design per registry entry.

The paper evaluates a single FreeRTOS-workalike against microarchitecture
variants; this package generalises the co-exploration to *kernel designs*
the way CV32RT (arXiv:2311.08320) and the eChronos RISC-V port
(arXiv:1908.11648) each quantify context-switch cost for a different RTOS
structure. Three personalities ship:

``freertos``
    The paper's kernel, unchanged: per-priority ready lists, round-robin
    within priority, preemptive wakes.
``scm``
    scmRTOS-style process-per-priority: readiness is a bitmap, the
    scheduler a constant-time highest-bit resolver, no round-robin
    (every priority owns exactly one task).
``echronos``
    eChronos-style static/cooperative: fixed task set, per-task run
    flags, no preemption outside yield points, simplified ISR path.

A configuration selects its personality with an ``@`` suffix
(``SL@scm``); :func:`kernel_fingerprint` folds the selected
personality's identity into the DSE cache keys.
"""

from __future__ import annotations

from repro.errors import ConfigurationError
from repro.personalities.base import Personality
from repro.personalities.echronos import EChronosPersonality
from repro.personalities.freertos import FreeRTOSPersonality
from repro.personalities.scm import ScmPersonality

DEFAULT_PERSONALITY = "freertos"

#: Registry of shipped personalities, keyed by name.
PERSONALITIES: dict[str, Personality] = {
    p.name: p for p in (FreeRTOSPersonality(), ScmPersonality(),
                        EChronosPersonality())
}


def personality_names() -> tuple[str, ...]:
    """All registered personality names, sorted."""
    return tuple(sorted(PERSONALITIES))


def personality_by_name(name: str) -> Personality:
    """Look up a personality, suggesting the nearest name when unknown."""
    try:
        return PERSONALITIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown kernel personality {name!r} "
            f"(known: {', '.join(personality_names())})"
            f"{_suggest_personality(name)}") from None


def require_personality(name: str) -> Personality:
    """Alias of :func:`personality_by_name` for validation call sites."""
    return personality_by_name(name)


def _suggest_personality(name: str) -> str:
    """The nearest registered personality name, as a message tail."""
    import difflib

    matches = difflib.get_close_matches(
        name.strip().lower(), list(PERSONALITIES), n=1, cutoff=0.0)
    if not matches:  # pragma: no cover - cutoff=0 always matches
        return ""
    return f"; did you mean {matches[0]!r}?"


def kernel_fingerprint(config) -> str:
    """Digest of every kernel-shaping dimension of *config*.

    Currently the personality's :meth:`~Personality.fingerprint`; any
    future dimension that changes generated kernel text without
    changing the config name must be folded in here, so that the DSE
    cache keys (which call this) re-address automatically. Two
    personalities can never collide: the digest covers the personality
    name itself.
    """
    return personality_by_name(config.personality).fingerprint()


def kernel_fingerprint_for_name(config_name: str) -> str:
    """:func:`kernel_fingerprint` from a config *name* (DSE grids)."""
    _, _, suffix = config_name.partition("@")
    personality = suffix.strip().lower() or DEFAULT_PERSONALITY
    return personality_by_name(personality).fingerprint()
