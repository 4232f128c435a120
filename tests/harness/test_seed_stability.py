"""Seed derivation must depend on the grid position, not execution order.

A factory is not required to be pure: if its workload names encode a
counter, calling it once per (core, config) cell would give each cell a
*different* workload name and therefore a different
:func:`derive_point_seed`. ``run_suite`` calls each factory once, and
``sweep`` takes only registered workloads or names, which the DSE
executor rebuilds by name in any process; it rejects ad-hoc factories
before simulating anything.
"""

import dataclasses
import itertools

import pytest

from repro.errors import ConfigurationError
from repro.harness import experiment
from repro.harness.experiment import derive_point_seed, run_suite, sweep
from repro.workloads import yield_pingpong

SEED = 7


def _counting_factory():
    """An impure factory: every call yields a differently-named workload."""
    counter = itertools.count()

    def factory(iterations):
        workload = yield_pingpong(iterations=2)
        return dataclasses.replace(workload,
                                   name=f"adhoc{next(counter)}")

    return factory


@pytest.mark.parametrize("adhoc", [
    _counting_factory(),
    dataclasses.replace(yield_pingpong(iterations=2), name="prebuilt"),
], ids=["factory", "instance"])
def test_sweep_rejects_adhoc_factories(adhoc, monkeypatch):
    def simulate(*args, **kwargs):
        raise AssertionError("sweep() simulated an ad-hoc workload")

    monkeypatch.setattr(experiment, "run_workload", simulate)
    with pytest.raises(ConfigurationError, match=r"run_suite\(\)"):
        sweep(cores=("cv32e40p", "cva6"), configs=("vanilla", "S"),
              iterations=2, workloads=[yield_pingpong, adhoc], seed=SEED)


def test_run_suite_pins_seeds_for_prebuilt_workloads():
    workload = dataclasses.replace(yield_pingpong(iterations=2),
                                   name="pinned")
    suite = run_suite("cv32e40p", _config("SLT"), iterations=2,
                      workloads=[workload], seed=SEED)
    assert [run.seed for run in suite.runs] == [
        derive_point_seed(SEED, "cv32e40p", "SLT", "pinned")]


def test_run_suite_accepts_mixed_factories_and_instances():
    prebuilt = dataclasses.replace(yield_pingpong(iterations=2),
                                   name="prebuilt")
    suite = run_suite("cv32e40p", _config("vanilla"), iterations=2,
                      workloads=[yield_pingpong, prebuilt], seed=SEED)
    assert [run.workload for run in suite.runs] == [
        yield_pingpong(iterations=2).name, "prebuilt"]


def _config(name):
    from repro.rtosunit.config import parse_config

    return parse_config(name)
