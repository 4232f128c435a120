"""Seeded grids shared by the executor and cache tests."""

from repro.dse import GridPoint
from repro.harness.experiment import derive_point_seed, run_workload
from repro.harness.export import run_dict
from repro.rtosunit.config import parse_config
from repro.workloads import workload_by_name


#: Three base seeds over two contents: six grid points, two simulations.
SEEDS = (3, 11, 42)
CONTENTS = (("cv32e40p", "vanilla", "yield_pingpong"),
            ("cv32e40p", "SLT", "yield_pingpong"))


def seeded_grid(seeds=SEEDS) -> list:
    """Seed-major grid: each content recurs once per seed."""
    return [GridPoint(core, config, workload, iterations=2, seed=seed)
            for seed in seeds for core, config, workload in CONTENTS]


def reference_payload(point) -> dict:
    """The point run on its own, outside the executor."""
    workload = workload_by_name(point.workload, iterations=point.iterations)
    return run_dict(run_workload(
        point.core, parse_config(point.config), workload,
        seed=derive_point_seed(point.seed, point.core, point.config,
                               point.workload)))
