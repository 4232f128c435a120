"""Experiment drivers: run results, suites, sweeps."""

import dataclasses
import gc
import weakref

import pytest

from repro.cores import CORE_NAMES
from repro.cores.system import System
from repro.errors import SimulationError
from repro.harness import run_suite, run_workload, sweep
from repro.kernel.builder import KernelBuilder
from repro.rtosunit.config import parse_config
from repro.workloads import delay_periodic, yield_pingpong


def _result_key(result):
    return (result.latencies,
            [(s.trigger_cycle, s.entry_cycle, s.mret_cycle)
             for s in result.switches],
            result.cycles, result.instret, dict(vars(result.core_stats)))


def _record_parts(monkeypatch):
    """Collect weak references to every system ``run_workload`` builds:
    the System, core, Memory, BlockEngine, Clint and RTOSUnit."""
    parts = []
    build = KernelBuilder.build

    def recording(builder, *args, **kwargs):
        system = build(builder, *args, **kwargs)
        objects = [system, system.core, system.memory,
                   system.core.block_engine, system.clint]
        if system.unit is not None:
            objects.append(system.unit)
        parts.extend(weakref.ref(obj) for obj in objects)
        return system

    monkeypatch.setattr(KernelBuilder, "build", recording)
    return parts


def _alive(parts):
    return [type(ref()).__name__ for ref in parts if ref() is not None]


class TestRunWorkload:
    def test_result_fields(self):
        result = run_workload("cv32e40p", parse_config("vanilla"),
                              yield_pingpong(4))
        assert result.core == "cv32e40p"
        assert result.config_name == "vanilla"
        assert result.workload == "yield_pingpong"
        assert result.cycles > 0
        assert result.instret > 0
        assert result.latencies
        assert result.unit_stats is None  # vanilla has no unit

    def test_unit_stats_present_for_accelerated(self):
        result = run_workload("cv32e40p", parse_config("SLT"),
                              yield_pingpong(4))
        assert result.unit_stats is not None
        assert result.unit_stats.words_stored > 0

    def test_warmup_discarded(self):
        workload = yield_pingpong(4)
        result = run_workload("cv32e40p", parse_config("vanilla"), workload)
        full = yield_pingpong(4)
        full.warmup_switches = 0
        result_full = run_workload("cv32e40p", parse_config("vanilla"), full)
        assert result_full.stats.count == \
            result.stats.count + workload.warmup_switches

    def test_guard_leaves_result_unchanged(self):
        class NullGuard:
            def on_step(self, core):
                pass

            def check(self, core):
                pass

        config = parse_config("vanilla")
        plain = run_workload("cv32e40p", config, yield_pingpong(3))
        guarded = run_workload("cv32e40p", config, yield_pingpong(3),
                               guard=NullGuard())
        assert _result_key(guarded) == _result_key(plain)

    def test_seed_recorded_not_simulated(self):
        config = parse_config("vanilla")
        a = run_workload("cv32e40p", config, yield_pingpong(3), seed=1)
        b = run_workload("cv32e40p", config, yield_pingpong(3), seed=2)
        assert a.seed == 1 and b.seed == 2
        assert a.latencies == b.latencies

    def test_every_call_simulates_a_fresh_system(self, monkeypatch):
        simulated = []
        real_run = System.run

        def recording(system, *args, **kwargs):
            simulated.append(system)
            return real_run(system, *args, **kwargs)

        monkeypatch.setattr(System, "run", recording)
        config = parse_config("vanilla")
        first = run_workload("cv32e40p", config, yield_pingpong(3))
        second = run_workload("cv32e40p", config, yield_pingpong(3))
        assert len(simulated) == 2
        assert simulated[0] is not simulated[1]
        assert _result_key(first) == _result_key(second)

    def test_never_captures_or_restores(self, monkeypatch):
        def refuse(system, *args):
            raise AssertionError("run_workload touched a checkpoint")

        monkeypatch.setattr(System, "capture", refuse)
        monkeypatch.setattr(System, "restore", refuse)
        result = run_workload("cv32e40p", parse_config("SLT"),
                              yield_pingpong(3))
        assert result.latencies

    def test_bad_exit_code_raises(self, monkeypatch):
        monkeypatch.setattr(System, "run",
                            lambda system, max_cycles=0: 0xBAD)
        with pytest.raises(SimulationError,
                           match="yield_pingpong on cv32e40p/vanilla "
                                 "exited with 0xbad"):
            run_workload("cv32e40p", parse_config("vanilla"),
                         yield_pingpong(3))

    @pytest.mark.parametrize("config_name", ("vanilla", "SLT"))
    @pytest.mark.parametrize("core", sorted(CORE_NAMES))
    def test_finished_system_is_freed_by_reference_counting(
            self, core, config_name, monkeypatch):
        """No reference cycle outlives the call: with the cyclic
        collector off, the system and its parts are gone once
        ``run_workload`` returns."""
        parts = _record_parts(monkeypatch)
        gc.collect()
        gc.disable()
        try:
            run_workload(core, parse_config(config_name), yield_pingpong(3))
            alive = _alive(parts)
        finally:
            gc.enable()
        assert len(parts) == (5 if config_name == "vanilla" else 6)
        assert alive == []

    def test_failed_system_is_freed_by_reference_counting(self,
                                                          monkeypatch):
        parts = _record_parts(monkeypatch)
        monkeypatch.setattr(System, "run",
                            lambda system, max_cycles=0: 0xBAD)
        gc.collect()
        gc.disable()
        try:
            try:
                run_workload("cv32e40p", parse_config("SLT"),
                             yield_pingpong(3))
            except SimulationError:
                pass
            alive = _alive(parts)
        finally:
            gc.enable()
        assert len(parts) == 6
        assert alive == []

    def test_workload_params_reach_the_build(self):
        # delay_periodic sleeps in ticks, so its run time follows the
        # tick period the kernel is built with.
        workload = delay_periodic(3)
        shifted = dataclasses.replace(
            workload, tick_period=workload.tick_period + 1000)
        config = parse_config("vanilla")
        base = run_workload("cv32e40p", config, workload)
        moved = run_workload("cv32e40p", config, shifted)
        assert moved.cycles > base.cycles


class TestRunSuite:
    def test_suite_aggregates_all_workloads(self):
        suite = run_suite("cv32e40p", parse_config("vanilla"), iterations=3)
        assert len(suite.runs) == 5
        assert suite.stats.count == sum(r.stats.count for r in suite.runs)

    def test_run_named(self):
        suite = run_suite("cv32e40p", parse_config("vanilla"), iterations=3)
        assert suite.run_named("mutex_workload").workload == "mutex_workload"
        with pytest.raises(SimulationError):
            suite.run_named("bogus")

    def test_custom_workload_selection(self):
        suite = run_suite("cv32e40p", parse_config("vanilla"), iterations=3,
                          workloads=(yield_pingpong,))
        assert len(suite.runs) == 1


class TestSweep:
    def test_sweep_covers_grid(self):
        results = sweep(cores=("cv32e40p",), configs=("vanilla", "SLT"),
                        iterations=2, workloads=(yield_pingpong,))
        assert set(results) == {("cv32e40p", "vanilla"),
                                ("cv32e40p", "SLT")}

    def test_sweep_results_are_usable(self):
        results = sweep(cores=("cv32e40p",), configs=("vanilla", "T"),
                        iterations=2, workloads=(yield_pingpong,))
        assert results[("cv32e40p", "T")].stats.mean < \
            results[("cv32e40p", "vanilla")].stats.mean
