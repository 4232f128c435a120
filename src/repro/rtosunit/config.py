"""RTOSUnit feature configuration and validity rules.

The paper's letter scheme (§4): **S** context storing, **L** context
loading, **T** hardware task scheduling, **D** dirty bits, **O** load
omission, **P** preloading. ``vanilla`` is the all-software baseline and
``CV32RT`` the comparison point of Balas et al. (half-register-file
snapshotting over a dedicated memory port).

Validity rules from the paper:

* L only works in conjunction with S (§4.3).
* D requires S — it accelerates *storing* (§4.5).
* O requires L — it skips *loading* (§4.6).
* P requires S, L and T (it preloads the head of the *hardware* ready
  list in lockstep with storing, §4.7) and is incompatible with D.

Beyond the paper's letters, a configuration names its **kernel
personality** (:mod:`repro.personalities`): the scheduler design built
behind the assembly-kernel interface. ``freertos`` (the paper's kernel)
is the default and keeps every existing name unchanged; alternative
personalities are spelled with an ``@`` suffix, e.g. ``SL@scm`` or
``vanilla@echronos``. Non-default personalities are software schedulers
by definition, so they cannot be combined with hardware scheduling (T,
and therefore Y/P) or with the CV32RT comparison point.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class RTOSUnitConfig:
    """One point in the RTOSUnit design space.

    Attributes mirror the paper's letters. ``cv32rt`` selects the related
    work re-implementation instead of the RTOSUnit (all letters must then
    be off). ``list_length`` sizes the hardware ready and delay lists
    (8 in the paper's evaluation unless stated otherwise).
    """

    store: bool = False
    load: bool = False
    sched: bool = False
    dirty: bool = False
    omit: bool = False
    preload: bool = False
    hwsync: bool = False
    cv32rt: bool = False
    list_length: int = 8
    sem_slots: int = 4
    personality: str = "freertos"

    def __post_init__(self) -> None:
        if self.personality != "freertos":
            # Lazy import: repro.personalities renders kernel assembly
            # and therefore imports modules that import this one.
            from repro.personalities import require_personality

            require_personality(self.personality)
            if self.sched or self.hwsync or self.preload:
                raise ConfigurationError(
                    f"personality {self.personality!r} is a software "
                    f"scheduler; it cannot be combined with hardware "
                    f"scheduling (T, Y, P)")
            if self.cv32rt:
                raise ConfigurationError(
                    f"CV32RT is a comparison point for the freertos "
                    f"kernel; personality {self.personality!r} cannot "
                    f"select it")
        if self.cv32rt and (self.store or self.load or self.sched
                            or self.dirty or self.omit or self.preload
                            or self.hwsync):
            raise ConfigurationError(
                "CV32RT is a standalone comparison point; it cannot be "
                "combined with RTOSUnit features")
        if self.load and not self.store:
            raise ConfigurationError(
                "context loading (L) only works in conjunction with "
                "storing (S)")
        if self.dirty and not self.store:
            raise ConfigurationError("dirty bits (D) require storing (S)")
        if self.omit and not self.load:
            raise ConfigurationError("load omission (O) requires loading (L)")
        if self.preload:
            if not (self.store and self.load and self.sched):
                raise ConfigurationError(
                    "preloading (P) requires store, load and hardware "
                    "scheduling (S, L, T)")
            if self.dirty:
                raise ConfigurationError(
                    "preloading (P) is incompatible with dirty bits (D)")
        if self.hwsync and not self.sched:
            raise ConfigurationError(
                "hardware synchronisation (Y, §7 extension) needs the "
                "hardware scheduler (T) for its waiter wakeups")
        if self.hwsync and self.sem_slots <= 0:
            raise ConfigurationError(
                "hardware synchronisation needs at least one semaphore slot")
        if self.list_length < 0:
            raise ConfigurationError("list_length must be non-negative")
        if self.sched and self.list_length == 0:
            raise ConfigurationError(
                "hardware scheduling (T) needs a non-zero list length")

    # -- derived properties --------------------------------------------------

    @property
    def is_vanilla(self) -> bool:
        """True for the unmodified all-software baseline."""
        return not (self.store or self.load or self.sched or self.cv32rt)

    @property
    def uses_switch_rf(self) -> bool:
        """SWITCH_RF is needed when storing is on but loading is not (§4.2)."""
        return self.store and not self.load

    @property
    def hw_timer_autoreset(self) -> bool:
        """(T) auto-resets the tick timer in hardware (§4.4)."""
        return self.sched

    @property
    def features(self) -> tuple[str, ...]:
        """The enabled paper letters, in canonical order (DSE metadata)."""
        if self.cv32rt:
            return ("CV32RT",)
        pairs = (("S", self.store), ("P", self.preload), ("D", self.dirty),
                 ("L", self.load), ("O", self.omit), ("T", self.sched),
                 ("Y", self.hwsync))
        return tuple(letter for letter, enabled in pairs if enabled)

    @property
    def base_name(self) -> str:
        """Paper-style letter name, e.g. ``SLT``, ``SDLOT``, ``SPLIT``."""
        if self.cv32rt:
            return "CV32RT"
        if self.is_vanilla:
            return "vanilla"
        letters = []
        if self.store:
            letters.append("S")
        if self.preload:
            letters.append("P")
        if self.dirty:
            letters.append("D")
        if self.load:
            letters.append("L")
        if self.omit:
            letters.append("O")
        if self.sched:
            letters.append("T")
        if self.hwsync:
            letters.append("Y")  # our §7 future-work extension
        # The paper spells the preloading configuration "SPLIT".
        name = "".join(letters)
        if name.startswith("SPLT"):
            name = "SPLIT" + name[4:]
        return name

    @property
    def name(self) -> str:
        """Config name with the personality suffix when non-default.

        ``freertos`` names stay exactly the paper's spelling, so every
        pre-personality cache key, seed derivation and export remains
        byte-identical.
        """
        base = self.base_name
        if self.personality == "freertos":
            return base
        return f"{base}@{self.personality}"

    def __str__(self) -> str:
        return self.name


def _suggest(name: str) -> str:
    """The nearest valid evaluated configuration name, as a message tail."""
    import difflib

    matches = difflib.get_close_matches(
        name.strip().upper(), [c.upper() for c in EVALUATED_CONFIGS],
        n=1, cutoff=0.0)
    if not matches:  # pragma: no cover - cutoff=0 always matches
        return ""
    by_upper = {c.upper(): c for c in EVALUATED_CONFIGS}
    return f"; did you mean {by_upper[matches[0]]!r}?"


def parse_config(name: str, list_length: int = 8) -> RTOSUnitConfig:
    """Parse a paper-style configuration name into a config object.

    Accepts ``vanilla``, ``CV32RT`` (case-insensitive), and letter strings
    such as ``S``, ``SL``, ``SLT``, ``SDLOT`` or ``SPLIT`` (the paper's
    spelling of S+P+L+T; the stray ``I`` is tolerated). An ``@`` suffix
    selects a kernel personality (``SL@scm``, ``vanilla@echronos``); no
    suffix means ``freertos``. Unknown letters, unknown personalities and
    invalid combinations raise :class:`ConfigurationError` naming the
    offending letter/rule and suggesting the nearest valid name.
    """
    text = name.strip()
    personality = "freertos"
    if "@" in text:
        text, _, personality = text.partition("@")
        text = text.strip()
        personality = personality.strip().lower()
        from repro.personalities import require_personality

        require_personality(personality)
    lowered = text.lower()
    if lowered == "vanilla":
        return RTOSUnitConfig(list_length=list_length,
                              personality=personality)
    if lowered == "cv32rt":
        try:
            return RTOSUnitConfig(cv32rt=True, list_length=list_length,
                                  personality=personality)
        except ConfigurationError as exc:
            raise ConfigurationError(f"{exc}{_suggest(text)}") from None
    flags = {"store": False, "load": False, "sched": False,
             "dirty": False, "omit": False, "preload": False,
             "hwsync": False}
    by_letter = {"S": "store", "L": "load", "T": "sched",
                 "D": "dirty", "O": "omit", "P": "preload",
                 "Y": "hwsync"}
    for letter in text.upper():
        if letter == "I":  # "SPLIT" contains a decorative I
            continue
        field = by_letter.get(letter)
        if field is None:
            raise ConfigurationError(
                f"unknown configuration letter {letter!r} in {name!r} "
                f"(valid letters: S, L, T, D, O, P, Y){_suggest(name)}")
        if flags[field]:
            raise ConfigurationError(
                f"duplicate letter {letter!r} in {name!r}{_suggest(name)}")
        flags[field] = True
    try:
        return RTOSUnitConfig(list_length=list_length,
                              personality=personality, **flags)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{exc}{_suggest(text)}") from None


#: The configuration sweep evaluated in the paper's Figures 9, 10, 11, 13.
EVALUATED_CONFIGS: tuple[str, ...] = (
    "vanilla", "CV32RT", "S", "SD", "SL", "SDLO", "T", "ST", "SDT",
    "SLT", "SDLOT", "SPLIT",
)
