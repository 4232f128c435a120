"""Grid construction, parallel_map semantics, executor determinism."""

import json
import multiprocessing
import os
import pathlib
import signal
import sys
import threading
import time
from dataclasses import replace

import pytest

from repro.dse import (
    DSEExecutor,
    GridPoint,
    build_grid,
    execute_point,
    group_suites,
    parallel_map,
)
from repro.dse import ResultCache
from repro.dse import executor as executor_module
from repro.dse.executor import PoolHealth, WorkerPool
from repro.errors import ExplorationError, SimulationError
from repro.harness.experiment import derive_point_seed
from repro.harness.export import run_dict, sweep_dict

from tests.dse.helpers import CONTENTS, reference_payload, seeded_grid


def _double(value):
    return value * 2


def _boom(_value):
    raise RuntimeError("boom")


def _simulation_error(arg):
    """Worker that logs each call, then fails deterministically."""
    value, log_dir = arg
    with open(pathlib.Path(log_dir) / "calls", "a") as handle:
        handle.write(f"{value}\n")
    raise SimulationError("cycle limit exceeded", cycle=7)


def _fail_once(arg):
    """Worker that fails while its marker file exists (consuming it)."""
    value, marker_dir = arg
    marker = pathlib.Path(marker_dir) / f"fail-{value}"
    if marker.exists():
        marker.unlink()
        raise RuntimeError("flaky")
    return value * 10


def _die_once(arg):
    """Worker that hard-kills its process while its marker exists."""
    value, marker_dir = arg
    marker = pathlib.Path(marker_dir) / f"die-{value}"
    if marker.exists():
        marker.unlink()
        os._exit(57)  # no exception, no cleanup: a real worker death
    return value * 10


def _stall_once(arg):
    """Worker that wedges (far past any deadline) while its marker exists."""
    value, marker_dir = arg
    marker = pathlib.Path(marker_dir) / f"stall-{value}"
    if marker.exists():
        marker.unlink()
        time.sleep(60.0)
    return value * 10


def _pid(_value):
    return os.getpid()


#: Module state a worker reads; a test rebinds it after import.
_PARENT_STATE = "import-time"


def _parent_state(_value):
    return _PARENT_STATE


def _boom_or_stall(arg):
    """Item 0 raises; any other item wedges while its marker exists."""
    value, marker_dir = arg
    if value == 0:
        raise RuntimeError("boom")
    return _stall_once(arg)


#: Per-task deadline of the pool-lifetime tests: no wait can hang them.
DEADLINE_S = 30.0


def _children() -> set:
    """PIDs of this process's live multiprocessing children (reaps)."""
    return {process.pid for process in multiprocessing.active_children()}


def _alive(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def _all_gone(pids, within: float = 10.0) -> bool:
    """Whether every PID in ``pids`` has exited (and been reaped) in time."""
    deadline = time.monotonic() + within
    while True:
        _children()
        if not any(_alive(pid) for pid in pids):
            return True
        if time.monotonic() >= deadline:
            return False
        time.sleep(0.05)


def _pool_workers(pool, before: set) -> set:
    """Run one call on ``pool`` and return the worker PIDs it started."""
    pids = set(parallel_map(_pid, range(8), jobs=pool.jobs,
                            timeout=DEADLINE_S, pool=pool))
    workers = _children() - before
    assert pids <= workers and len(workers) == pool.jobs
    return workers


class TestGrid:
    def test_canonical_order(self):
        points = build_grid(cores=("a", "b"), configs=("x",),
                            workloads=("w1", "w2"), iterations=3, seed=9)
        assert [p.label for p in points] == [
            "a/x/w1", "a/x/w2", "b/x/w1", "b/x/w2"]
        assert all(p.iterations == 3 and p.seed == 9 for p in points)

    def test_points_are_hashable_and_serialisable(self):
        point = GridPoint("cv32e40p", "SLT", "yield_pingpong", 2, 1)
        assert {point: 1}[point] == 1
        assert point.as_dict()["config"] == "SLT"

    def test_run_seed_derives_from_seed_and_grid_position(self):
        point = GridPoint("cv32e40p", "SLT", "yield_pingpong", 2, seed=5)
        assert point.run_seed == derive_point_seed(
            5, "cv32e40p", "SLT", "yield_pingpong")
        assert replace(point, iterations=7).run_seed == point.run_seed
        for other in (replace(point, seed=6), replace(point, core="cva6"),
                      replace(point, config="T"),
                      replace(point, workload="sem_signal")):
            assert other.run_seed != point.run_seed

    def test_content_is_every_axis_but_the_seed(self):
        point = GridPoint("cv32e40p", "SLT", "yield_pingpong", 2, seed=5)
        axes = point.as_dict()
        del axes["seed"]
        assert point.content == axes
        assert replace(point, seed=6).content == point.content
        for other in (replace(point, core="cva6"), replace(point, config="T"),
                      replace(point, workload="sem_signal"),
                      replace(point, iterations=3)):
            assert other.content != point.content


class TestParallelMap:
    def test_serial_preserves_order(self):
        assert parallel_map(_double, [3, 1, 2], jobs=1) == [6, 2, 4]

    def test_parallel_preserves_order(self):
        assert parallel_map(_double, list(range(8)), jobs=2) == \
            [v * 2 for v in range(8)]

    def test_serial_retry_then_fail(self):
        with pytest.raises(ExplorationError, match="after 2 attempts"):
            parallel_map(_boom, [1], jobs=1, retries=1)

    def test_serial_on_result_hook(self):
        seen = []
        parallel_map(_double, [5, 6], jobs=1,
                     on_result=lambda i, r: seen.append((i, r)))
        assert seen == [(0, 10), (1, 12)]

    def test_parallel_retry_recovers(self, tmp_path):
        for value in (1, 2):
            (tmp_path / f"fail-{value}").touch()
        results = parallel_map(_fail_once,
                               [(v, str(tmp_path)) for v in (1, 2, 3)],
                               jobs=2, retries=1)
        assert results == [10, 20, 30]

    def test_parallel_exhausted_retries_raise(self, tmp_path):
        with pytest.raises(ExplorationError):
            parallel_map(_boom, [1, 2], jobs=2, retries=1)

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_library_error_is_not_retried(self, tmp_path, jobs):
        health = PoolHealth()
        with pytest.raises(ExplorationError,
                           match="after 1 attempt: SimulationError"):
            parallel_map(_simulation_error, [(1, str(tmp_path))],
                         jobs=jobs, retries=2, health=health)
        assert (tmp_path / "calls").read_text() == "1\n"
        assert health.retries == 0

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_library_error_quarantines_on_first_attempt(self, tmp_path,
                                                         jobs):
        def on_poison(index, item, attempts, reason):
            return (attempts, reason)

        health = PoolHealth()
        results = parallel_map(_simulation_error, [(1, str(tmp_path))],
                               jobs=jobs, retries=2, on_poison=on_poison,
                               health=health)
        assert results == [
            (1, "SimulationError: cycle limit exceeded [cycle=7]")]
        assert (tmp_path / "calls").read_text() == "1\n"
        assert (health.retries, health.poisoned) == (0, 1)


class TestSupervision:
    def test_serial_poison_quarantines_in_slot(self):
        def on_poison(index, item, attempts, reason):
            return {"poisoned": item, "attempts": attempts,
                    "reason": reason}

        health = PoolHealth()
        results = parallel_map(
            lambda v: _boom(v) if v == 2 else v * 2, [1, 2, 3],
            jobs=1, retries=1, on_poison=on_poison, health=health)
        assert results[0] == 2 and results[2] == 6
        assert results[1]["poisoned"] == 2
        assert results[1]["attempts"] == 2
        assert "boom" in results[1]["reason"]
        assert health.poisoned == 1
        assert health.retries == 1

    def test_pool_poison_keeps_batch_mates_alive(self):
        def on_poison(index, item, attempts, reason):
            return ("quarantined", item)

        health = PoolHealth()
        results = parallel_map(_boom, [1, 2], jobs=2, retries=1,
                               on_poison=on_poison, health=health)
        assert results == [("quarantined", 1), ("quarantined", 2)]
        assert health.poisoned == 2

    def test_worker_death_rebuilds_pool_and_recovers(self, tmp_path):
        (tmp_path / "die-1").touch()
        health = PoolHealth()
        results = parallel_map(_die_once,
                               [(v, str(tmp_path)) for v in (1, 2, 3)],
                               jobs=2, retries=2, health=health)
        assert results == [10, 20, 30]
        assert health.crashes >= 1
        assert health.restarts >= 1

    def test_stalled_worker_charged_and_pool_replaced(self, tmp_path):
        (tmp_path / "stall-1").touch()
        health = PoolHealth()
        start = time.monotonic()
        results = parallel_map(_stall_once,
                               [(1, str(tmp_path))],
                               jobs=2, retries=1, timeout=2.0,
                               health=health)
        assert results == [10]
        assert health.stalls == 1
        assert health.restarts >= 1
        assert health.retries == 1
        # The stalled process was terminated, not waited out.
        assert time.monotonic() - start < 30.0

    def test_shared_pool_keeps_its_workers_across_calls(self):
        before = _children()
        with WorkerPool(2) as pool:
            workers = _pool_workers(pool, before)
            again = parallel_map(_pid, range(8), jobs=2, timeout=DEADLINE_S,
                                 pool=pool)
            assert set(again) <= workers
            assert _children() - before == workers

    def test_shared_pool_replaces_dead_worker_for_later_calls(self,
                                                              tmp_path):
        (tmp_path / "die-1").touch()
        health = PoolHealth()
        before = _children()
        with WorkerPool(2) as pool:
            results = parallel_map(_die_once,
                                   [(v, str(tmp_path)) for v in (1, 2, 3)],
                                   jobs=2, retries=2, timeout=DEADLINE_S,
                                   health=health, pool=pool)
            assert results == [10, 20, 30]
            assert health.restarts == 1
            assert health.crashes >= 1
            replacement = _pool_workers(pool, before)
            again = parallel_map(_pid, range(8), jobs=2, timeout=DEADLINE_S,
                                 health=health, pool=pool)
            assert set(again) <= replacement
            assert health.restarts == 1

    def test_shared_pool_replaces_workers_that_died_between_calls(self):
        health = PoolHealth()
        before = _children()
        with WorkerPool(2) as pool:
            first = _pool_workers(pool, before)
            os.kill(min(first), signal.SIGKILL)
            # The pool sees the death and tears its other worker down.
            assert _all_gone(first)
            results = parallel_map(_double, range(4), jobs=2, retries=0,
                                   timeout=DEADLINE_S, health=health,
                                   pool=pool)
            assert results == [0, 2, 4, 6]
            # No task of this call ran on the dead pool: none is charged.
            assert health.as_dict() == {"retries": 0, "crashes": 0,
                                        "stalls": 0, "restarts": 1,
                                        "poisoned": 0}
            assert not _pool_workers(pool, before) & first

    def test_shared_pool_terminates_stalled_worker(self, tmp_path):
        (tmp_path / "stall-1").touch()
        health = PoolHealth()
        before = _children()
        with WorkerPool(2) as pool:
            first = _pool_workers(pool, before)
            started = time.monotonic()
            results = parallel_map(_stall_once, [(1, str(tmp_path))],
                                   jobs=2, retries=1, timeout=2.0,
                                   health=health, pool=pool)
            assert results == [10]
            assert time.monotonic() - started < DEADLINE_S
            assert (health.stalls, health.restarts, health.retries) == \
                (1, 1, 1)
            assert _all_gone(first)
            replacement = _pool_workers(pool, before)
            assert not replacement & first

    def test_shared_pool_left_with_tasks_in_flight_is_replaced(self,
                                                               tmp_path):
        (tmp_path / "stall-1").touch()
        before = _children()
        with WorkerPool(2) as pool:
            first = _pool_workers(pool, before)
            with pytest.raises(ExplorationError, match="boom"):
                parallel_map(_boom_or_stall,
                             [(v, str(tmp_path)) for v in (0, 1)],
                             jobs=2, retries=0, timeout=DEADLINE_S,
                             pool=pool)
            # The wedged task did not run on into the next call.
            assert _all_gone(first)
            assert not _pool_workers(pool, before) & first

    def test_workers_fork_whatever_the_default_start_method(self,
                                                            monkeypatch):
        """A worker sees module state the parent set after import, even
        when the process default is spawn (macOS, or forkserver on
        Linux from Python 3.14), which would re-import the module."""
        monkeypatch.setattr(sys.modules[__name__], "_PARENT_STATE",
                            "set by the parent")
        saved = multiprocessing.get_start_method(allow_none=True)
        multiprocessing.set_start_method("spawn", force=True)
        try:
            with WorkerPool(1) as pool:
                seen = pool.submit(_parent_state, None).result(
                    timeout=DEADLINE_S)
        finally:
            multiprocessing.set_start_method(saved, force=True)
        assert seen == "set by the parent"

    def test_closed_pool_joins_workers_and_never_forks(self):
        before = _children()
        pool = WorkerPool(2)
        workers = _pool_workers(pool, before)
        pool.close()
        assert not any(_alive(pid) for pid in workers)
        with pytest.raises(ExplorationError, match="closed"):
            parallel_map(_pid, range(4), jobs=2, timeout=DEADLINE_S,
                         pool=pool)
        pool.replace()
        pool.close()
        assert _children() == before

    def test_close_racing_a_caller_leaves_no_worker(self):
        """A caller thread loops over three workers while the main thread
        closes the pool, at staggered moments from before the first fork
        on: every call returns the right results or is refused, none
        waits out its deadline, and no worker is alive afterwards."""
        before = _children()
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for round_ in range(12):
                pool = WorkerPool(3)
                outcome = []

                def caller(pool=pool, outcome=outcome):
                    try:
                        while True:
                            assert parallel_map(
                                _double, range(6), jobs=3,
                                timeout=DEADLINE_S,
                                pool=pool) == [0, 2, 4, 6, 8, 10]
                    except ExplorationError as exc:
                        outcome.append(str(exc))

                thread = threading.Thread(target=caller)
                raced = time.monotonic()
                thread.start()
                time.sleep(0.01 * (round_ % 4))
                pool.close()
                thread.join(DEADLINE_S)
                assert not thread.is_alive()
                assert time.monotonic() - raced < DEADLINE_S / 2
                assert outcome == ["worker pool is closed"]
                assert _children() == before
        finally:
            sys.setswitchinterval(interval)

    def test_health_accumulates_across_batches(self):
        health = PoolHealth()
        parallel_map(_boom, [1], jobs=1, retries=1, health=health,
                     on_poison=lambda *args: None)
        parallel_map(_boom, [1], jobs=1, retries=1, health=health,
                     on_poison=lambda *args: None)
        assert health.poisoned == 2
        assert health.retries == 2
        assert health.as_dict()["poisoned"] == 2

    def test_executor_exposes_health(self):
        executor = DSEExecutor(jobs=1)
        points = build_grid(cores=("cv32e40p",), configs=("vanilla",),
                            workloads=("yield_pingpong",), iterations=2)
        executor.run(points)
        assert executor.health.as_dict() == {
            "retries": 0, "crashes": 0, "stalls": 0, "restarts": 0,
            "poisoned": 0}


class TestExecutePoint:
    def test_runs_and_derives_seed(self):
        point = GridPoint("cv32e40p", "SLT", "yield_pingpong",
                          iterations=2, seed=5)
        run = execute_point(point)
        assert run.core == "cv32e40p"
        assert run.config_name == "SLT"
        assert run.seed == derive_point_seed(5, "cv32e40p", "SLT",
                                             "yield_pingpong")
        assert run.latencies


class TestDSEExecutor:
    def test_grid_order_independent_of_jobs(self):
        points = build_grid(cores=("cv32e40p",), configs=("vanilla", "T"),
                            workloads=("yield_pingpong",), iterations=2)
        serial = DSEExecutor(jobs=1).run(points)
        parallel = DSEExecutor(jobs=2).run(points)
        assert list(serial) == points == list(parallel)
        for point in points:
            assert serial[point].latencies == parallel[point].latencies
            assert serial[point].seed == parallel[point].seed

    def test_progress_hook_fires_per_point(self):
        points = build_grid(cores=("cv32e40p",), configs=("vanilla",),
                            workloads=("yield_pingpong",), iterations=2)
        seen = []
        DSEExecutor(progress=lambda p, r, c: seen.append((p, c))).run(points)
        assert seen == [(points[0], False)]

    def test_group_suites_shape(self):
        points = build_grid(cores=("cv32e40p",), configs=("vanilla", "T"),
                            workloads=("yield_pingpong", "sem_signal"),
                            iterations=2)
        runs = DSEExecutor(jobs=1).run(points)
        suites = group_suites(points, runs)
        assert set(suites) == {("cv32e40p", "vanilla"), ("cv32e40p", "T")}
        for suite in suites.values():
            assert [r.workload for r in suite.runs] == \
                ["yield_pingpong", "sem_signal"]
            assert suite.stats.count > 0


class TestContentAddressing:
    """Seed-only duplicates share one execution, stamped per point."""

    def test_execute_point_runs_once_per_content_serial(self, monkeypatch):
        executed = []
        real = executor_module.execute_point

        def counting(point):
            executed.append(point)
            return real(point)

        monkeypatch.setattr(executor_module, "execute_point", counting)
        grid = seeded_grid()
        runs = DSEExecutor(jobs=1).run(grid)
        # One representative per content: its first grid point.
        assert executed == grid[:len(CONTENTS)]
        assert list(runs) == grid

    def test_pool_receives_one_item_per_content(self, monkeypatch):
        dispatched = []
        real = executor_module.parallel_map

        def recording(worker, items, *args, **kwargs):
            items = list(items)
            dispatched.append(items)
            return real(worker, items, *args, **kwargs)

        monkeypatch.setattr(executor_module, "parallel_map", recording)
        grid = seeded_grid()
        DSEExecutor(jobs=2).run(grid)
        assert dispatched == [grid[:len(CONTENTS)]]

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_every_point_carries_its_own_seed(self, jobs):
        grid = seeded_grid()
        seen = []
        runs = DSEExecutor(
            jobs=jobs,
            progress=lambda point, run, cached: seen.append(point)).run(grid)
        assert sorted(seen, key=grid.index) == grid
        for point in grid:
            assert runs[point].seed == point.run_seed
            assert run_dict(runs[point]) == reference_payload(point)

    def test_iterations_split_contents(self, monkeypatch):
        executed = []
        real = executor_module.execute_point

        def counting(point):
            executed.append(point)
            return real(point)

        monkeypatch.setattr(executor_module, "execute_point", counting)
        grid = [GridPoint("cv32e40p", "SLT", "yield_pingpong",
                          iterations=iterations, seed=seed)
                for seed in (1, 2) for iterations in (1, 2)]
        runs = DSEExecutor(jobs=1).run(grid)
        assert executed == grid[:2]
        for point in grid:
            assert run_dict(runs[point]) == reference_payload(point)

    def test_progress_once_per_point_with_its_cache_state(self, tmp_path):
        grid = seeded_grid()
        for from_cache in (False, True):
            seen = []
            DSEExecutor(jobs=1, cache=ResultCache(tmp_path),
                        progress=lambda point, run, cached: seen.append(
                            (point, run.seed, cached))).run(grid)
            assert sorted(seen, key=lambda call: grid.index(call[0])) == [
                (point, point.run_seed, from_cache) for point in grid]

    def test_exports_identical_across_jobs(self):
        grid = seeded_grid()
        exports = [
            json.dumps(sweep_dict(group_suites(
                grid, DSEExecutor(jobs=jobs).run(grid))), sort_keys=True)
            for jobs in (1, 2)]
        assert exports[0] == exports[1]
