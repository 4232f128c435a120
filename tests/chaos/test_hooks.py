"""Hook semantics: inert by default, policy-driven when installed."""

import time

import pytest

from repro.chaos import (
    ChaosPolicy,
    ChaosSpec,
    InjectedCrash,
    active,
    fire,
    install,
    installed,
    uninstall,
)
from repro.dse.executor import (GridPoint, PoolHealth, execute_point,
                                parallel_map)
from repro.harness.export import run_dict


class TestInertDefault:
    def test_no_policy_fires_nothing(self):
        assert active() is None
        assert fire("cache.read") is None
        assert fire("worker.run") is None

    def test_uninstall_clears_policy(self):
        install(ChaosPolicy())
        assert active() is not None
        uninstall()
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


class TestForkedWorkers:
    def test_policy_installed_before_the_pool_forks_fires_in_workers(self):
        """Workers are forked, so each inherits the installed policy and
        crashes on its own first ``worker.run`` visit; every crash is
        charged as a retry, and the results equal the serial run's."""
        points = [GridPoint("cv32e40p", config, "yield_pingpong",
                            iterations=2)
                  for config in ("vanilla", "S", "SLT", "T")]
        serial = parallel_map(execute_point, points, jobs=1)
        policy = ChaosPolicy(specs=(
            ChaosSpec("worker_crash", "worker.run", at=1),))
        health = PoolHealth()
        with installed(policy):
            # Each of the two workers crashes at most once, so no point
            # can fail more than twice.
            pooled = parallel_map(execute_point, points, jobs=2, retries=2,
                                  health=health)
        assert 1 <= health.retries <= 2
        assert health.poisoned == 0
        # The visits happened in the workers, not in this process.
        assert policy.visits("worker.run") == 0
        assert ([run_dict(run) for run in pooled]
                == [run_dict(run) for run in serial])
