"""Per-personality kernel builds: determinism, execution, build reuse."""

import pytest

import repro.kernel.builder as builder_module
from repro.harness.experiment import run_workload
from repro.kernel.builder import KernelBuilder, reset_program_cache
from repro.rtosunit.config import parse_config
from repro.workloads import ladder_irq, ladder_jitter, ladder_switch

ALL_QUALIFIED = ("vanilla", "vanilla@scm", "vanilla@echronos")


@pytest.fixture(autouse=True)
def fresh_state():
    reset_program_cache()
    yield
    reset_program_cache()


def _result_key(result):
    return (result.latencies,
            [(s.trigger_cycle, s.entry_cycle, s.mret_cycle)
             for s in result.switches],
            result.cycles, result.instret)


def _source(config_name: str) -> str:
    workload = ladder_switch(4)
    builder = KernelBuilder(config=parse_config(config_name),
                            objects=workload.objects,
                            tick_period=workload.tick_period)
    return builder.source()


class TestRenderedSource:
    @pytest.mark.parametrize("config_name", ALL_QUALIFIED)
    def test_two_renders_byte_identical(self, config_name):
        assert _source(config_name) == _source(config_name)

    def test_personalities_render_distinct_kernels(self):
        sources = {name: _source(name) for name in ALL_QUALIFIED}
        assert len(set(sources.values())) == 3

    def test_scm_kernel_has_bitmap_not_lists(self):
        source = _source("vanilla@scm")
        assert "ready_map:" in source
        assert "prio_table:" in source
        assert "ready_lists:" not in source

    def test_echronos_kernel_has_run_flags(self):
        source = _source("vanilla@echronos")
        assert "run_flags:" in source
        assert "ec_task_count:" in source
        assert "ready_lists:" not in source


class TestExecution:
    @pytest.mark.parametrize("config_name", ALL_QUALIFIED)
    @pytest.mark.parametrize("factory", (ladder_switch, ladder_irq,
                                         ladder_jitter))
    def test_deterministic_rerun(self, config_name, factory):
        config = parse_config(config_name)
        first = run_workload("cv32e40p", config, factory(4))
        second = run_workload("cv32e40p", config, factory(4))
        assert _result_key(first) == _result_key(second)

    def test_scm_resolver_beats_freertos_scan(self):
        # The constant-time bitmap resolver is the personality's point:
        # same workload, same core, lower switch latency.
        freertos = run_workload("cv32e40p", parse_config("vanilla"),
                                ladder_switch(6))
        scm = run_workload("cv32e40p", parse_config("vanilla@scm"),
                           ladder_switch(6))
        assert scm.stats.mean < freertos.stats.mean

    def test_echronos_pays_for_cooperation(self):
        # The circular table scan plus explicit yields cost cycles.
        freertos = run_workload("cv32e40p", parse_config("vanilla"),
                                ladder_switch(6))
        echronos = run_workload("cv32e40p", parse_config("vanilla@echronos"),
                                ladder_switch(6))
        assert echronos.stats.mean > freertos.stats.mean


class TestBuildCache:
    @pytest.mark.parametrize("config_name", ALL_QUALIFIED)
    def test_repeat_run_reuses_the_build(self, config_name, monkeypatch):
        # The second run of a kernel loads the cached image instead of
        # assembling again, and simulates to the same result.
        assembled = []
        real_assemble = builder_module.assemble

        def counting(source, **kwargs):
            assembled.append(source)
            return real_assemble(source, **kwargs)

        monkeypatch.setattr(builder_module, "assemble", counting)
        config = parse_config(config_name)
        first = run_workload("cv32e40p", config, ladder_switch(4))
        second = run_workload("cv32e40p", config, ladder_switch(4))
        assert len(assembled) == 1
        assert _result_key(first) == _result_key(second)

    def test_personalities_do_not_share_builds(self):
        # Same config letters, same workload: each personality gets its
        # own cache entry, and its result does not depend on the builds
        # already cached for the others.
        alone = {}
        for config_name in ALL_QUALIFIED:
            reset_program_cache()
            alone[config_name] = _result_key(run_workload(
                "cv32e40p", parse_config(config_name), ladder_switch(4)))
        reset_program_cache()
        together = {
            config_name: _result_key(run_workload(
                "cv32e40p", parse_config(config_name), ladder_switch(4)))
            for config_name in ALL_QUALIFIED}
        assert len(builder_module._PROGRAM_CACHE) == len(ALL_QUALIFIED)
        assert together == alone
        assert alone["vanilla"] != alone["vanilla@scm"]
        assert alone["vanilla"] != alone["vanilla@echronos"]
