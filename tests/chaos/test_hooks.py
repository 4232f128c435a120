"""Hook semantics: inert by default, policy-driven when installed."""

import os
import time

import pytest

from repro.chaos import (
    ENV_VAR,
    ChaosPolicy,
    ChaosSpec,
    InjectedCrash,
    active,
    ensure_from_env,
    fire,
    hooks,
    install,
    installed,
    uninstall,
)


class TestInertDefault:
    def test_no_policy_fires_nothing(self):
        assert active() is None
        assert fire("cache.read") is None
        assert fire("worker.run") is None

    def test_uninstall_clears_env(self):
        install(ChaosPolicy(), env=True)
        assert ENV_VAR in os.environ
        uninstall()
        assert ENV_VAR not in os.environ
        assert active() is None


class TestFireSemantics:
    def test_crash_kind_raises(self):
        with installed(ChaosPolicy(specs=(
                ChaosSpec("worker_crash", "worker.run", at=1),))):
            with pytest.raises(InjectedCrash, match="worker.run"):
                fire("worker.run")
            assert fire("worker.run") is None  # at=1 already consumed

    def test_sleep_kinds_return_none(self):
        with installed(ChaosPolicy(specs=(
                ChaosSpec("slow_io", "cache.read", at=1, delay_s=0.01),))):
            start = time.monotonic()
            assert fire("cache.read") is None
            assert time.monotonic() - start >= 0.01

    def test_data_kinds_returned_to_caller(self):
        with installed(ChaosPolicy(specs=(
                ChaosSpec("corrupt_blob", "cache.read", at=1),))):
            spec = fire("cache.read")
            assert spec is not None and spec.kind == "corrupt_blob"

    def test_installed_scopes_policy(self):
        with installed(ChaosPolicy()):
            assert active() is not None
        assert active() is None


class TestEnvAdoption:
    def test_ensure_from_env_adopts_policy(self, monkeypatch):
        policy = ChaosPolicy(specs=(
            ChaosSpec("truncate_blob", "build.read", at=2),), seed=9)
        monkeypatch.setenv(ENV_VAR, policy.to_json())
        assert active() is None
        ensure_from_env()
        adopted = active()
        assert adopted is not None
        assert adopted.specs == policy.specs
        assert adopted.seed == 9

    def test_ensure_is_noop_without_env(self):
        ensure_from_env()
        assert active() is None

    def test_installed_policy_wins_over_env(self, monkeypatch):
        mine = ChaosPolicy(seed=1)
        install(mine)
        monkeypatch.setenv(ENV_VAR, ChaosPolicy(seed=2).to_json())
        ensure_from_env()
        assert hooks.active() is mine
