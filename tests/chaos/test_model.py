"""ChaosSpec validation, policy determinism, serialization."""

import pathlib
import re

import pytest

import repro
from repro.chaos import (
    CHAOS_SITES,
    ChaosPolicy,
    ChaosSpec,
    generate_chaos,
    mangle_blob,
)
from repro.errors import ChaosInjectionError


class TestSpecValidation:
    def test_valid_spec(self):
        spec = ChaosSpec("corrupt_blob", "cache.read", at=2)
        assert "corrupt_blob at cache.read @visit 2" in spec.describe()

    @pytest.mark.parametrize("kwargs, fragment", [
        ({"kind": "nope", "site": "cache.read"}, "unknown chaos kind"),
        ({"kind": "corrupt_blob", "site": "nowhere"}, "unknown chaos site"),
        ({"kind": "drop_result", "site": "cache.read"}, "cannot fire"),
        ({"kind": "corrupt_blob", "site": "cache.read", "at": -1},
         "visit index"),
        ({"kind": "corrupt_blob", "site": "cache.read", "rate": 1.5},
         "rate must be"),
        ({"kind": "corrupt_blob", "site": "cache.read", "at": 0},
         "visit index \\(at >= 1\\) or a rate"),
        ({"kind": "slow_io", "site": "cache.read", "delay_s": -0.1},
         "delay_s"),
    ])
    def test_invalid_specs(self, kwargs, fragment):
        with pytest.raises(ChaosInjectionError, match=fragment):
            ChaosSpec(**kwargs)

    def test_round_trip(self):
        spec = ChaosSpec("worker_hang", "worker.run", at=0, rate=0.25,
                         delay_s=1.5, note="stall")
        assert ChaosSpec.from_dict(spec.as_dict()) == spec


class TestPolicyScheduling:
    def test_at_fires_exactly_once(self):
        policy = ChaosPolicy(specs=(
            ChaosSpec("corrupt_blob", "cache.read", at=2),))
        decisions = [policy.decide("cache.read") for _ in range(4)]
        assert [d.kind if d else None for d in decisions] == \
            [None, "corrupt_blob", None, None]
        assert policy.fired == [("cache.read", 2, "corrupt_blob")]

    def test_sites_count_independently(self):
        policy = ChaosPolicy(specs=(
            ChaosSpec("corrupt_blob", "cache.read", at=1),))
        assert policy.decide("cache.write") is None
        assert policy.decide("cache.read").kind == "corrupt_blob"
        assert policy.visits("cache.read") == 1
        assert policy.visits("cache.write") == 1

    def test_rate_mode_is_seed_deterministic(self):
        def fired_pattern(seed):
            policy = ChaosPolicy(specs=(
                ChaosSpec("worker_crash", "worker.run", at=0, rate=0.5),),
                seed=seed)
            pattern = []
            for _ in range(32):
                try:
                    pattern.append(policy.decide("worker.run") is not None)
                except Exception:  # pragma: no cover - decide never raises
                    raise
            return pattern

        assert fired_pattern(7) == fired_pattern(7)
        assert fired_pattern(7) != fired_pattern(8)
        assert any(fired_pattern(7))
        assert not all(fired_pattern(7))

    def test_reset_replays_identically(self):
        policy = ChaosPolicy(specs=(
            ChaosSpec("corrupt_blob", "cache.read", at=0, rate=0.4),),
            seed=3)
        first = [policy.decide("cache.read") is not None for _ in range(16)]
        policy.reset()
        second = [policy.decide("cache.read") is not None for _ in range(16)]
        assert first == second


def _fired_sites() -> set:
    """Every site named by a literal ``fire("...")`` call in the package,
    outside the chaos package that defines the hooks."""
    root = pathlib.Path(repro.__file__).parent
    call = re.compile(r"""fire\(\s*["']([^"']+)["']""")
    sites = set()
    for path in root.rglob("*.py"):
        if path.parent.name != "chaos":
            sites.update(call.findall(path.read_text(encoding="utf-8")))
    return sites


class TestSites:
    @pytest.mark.parametrize("site", CHAOS_SITES)
    def test_every_site_is_fired_by_production_code(self, site):
        # A declared site with no hook would accept policies that can
        # never inject anything.
        assert site in _fired_sites()

    def test_every_fired_site_is_declared(self):
        # A hook on an undeclared site could never be targeted: ChaosSpec
        # rejects the name.
        assert _fired_sites() <= set(CHAOS_SITES)


class TestGeneration:
    def test_deterministic_for_seed(self):
        assert generate_chaos(5, 8) == generate_chaos(5, 8)
        assert generate_chaos(5, 8) != generate_chaos(6, 8)

    def test_specs_are_valid_for_their_site(self):
        for spec in generate_chaos(1, 32):
            assert spec.site in CHAOS_SITES  # __post_init__ validated kind

    def test_negative_count_rejected(self):
        with pytest.raises(ChaosInjectionError, match="count"):
            generate_chaos(1, -1)


class TestMangleBlob:
    def test_corrupt_flips_one_bit(self):
        blob = b"abcdefgh"
        mangled = mangle_blob(blob, "corrupt_blob")
        assert len(mangled) == len(blob)
        assert sum(a != b for a, b in zip(blob, mangled)) == 1

    def test_truncate_halves(self):
        assert mangle_blob(b"abcdefgh", "truncate_blob") == b"abcd"

    def test_empty_passthrough(self):
        assert mangle_blob(b"", "corrupt_blob") == b""

    def test_non_corruption_kind_rejected(self):
        with pytest.raises(ChaosInjectionError):
            mangle_blob(b"abc", "worker_crash")
