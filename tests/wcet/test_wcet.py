"""Static WCET analysis (paper §6.2)."""

import pytest

from repro.errors import AnalysisError
from repro.harness import run_suite
from repro.kernel.builder import KernelBuilder
from repro.rtosunit.config import parse_config
from repro.wcet import analyze_config
from repro.wcet.analyzer import analysis_source


@pytest.fixture(scope="module")
def wcet():
    configs = ("vanilla", "CV32RT", "S", "SL", "T", "ST", "SLT", "SDLOT",
               "SPLIT")
    return {name: analyze_config(parse_config(name)) for name in configs}


class TestOrdering:
    def test_paper_ordering(self, wcet):
        """§6.2: vanilla > SL ≫ T > SLT (paper: 1649 > 1442 ≫ 202 > 70)."""
        assert wcet["vanilla"].wcet_cycles > wcet["SL"].wcet_cycles
        assert wcet["SL"].wcet_cycles > 3 * wcet["T"].wcet_cycles
        assert wcet["T"].wcet_cycles > wcet["SLT"].wcet_cycles

    def test_sl_close_to_vanilla(self, wcet):
        """Offloading only context handling barely moves the WCET: the
        worst case is dominated by the software tick/scheduler path."""
        ratio = wcet["SL"].wcet_cycles / wcet["vanilla"].wcet_cycles
        assert 0.75 <= ratio <= 0.98

    def test_t_is_an_order_of_magnitude_better(self, wcet):
        ratio = wcet["T"].wcet_cycles / wcet["vanilla"].wcet_cycles
        assert ratio < 0.3

    def test_slt_within_context_transfer_bound(self, wcet):
        """(SLT)'s WCET is bounded by store+restore over the port plus
        fixed entry/exit costs — well under 120 cycles."""
        assert wcet["SLT"].wcet_cycles < 120

    def test_cv32rt_close_to_vanilla(self, wcet):
        assert wcet["CV32RT"].wcet_cycles < wcet["vanilla"].wcet_cycles
        assert wcet["CV32RT"].wcet_cycles > 0.9 * wcet["vanilla"].wcet_cycles


class TestSoundness:
    @pytest.mark.parametrize("config", ("vanilla", "S", "SL", "T", "ST",
                                        "SLT", "SPLIT"))
    def test_wcet_bounds_measured_isr_latency(self, config, wcet):
        """The static bound covers the ISR path (take → mret), which is
        what §6.2 analyses. The additional trigger-to-take wait (an
        instruction in flight, a masked window) is additive response
        time, not ISR WCET."""
        suite = run_suite("cv32e40p", parse_config(config), iterations=5)
        entry_cost = 4  # CV32E40P trap_entry_cycles, included in the bound
        worst_isr = max(s.mret_cycle - s.entry_cycle + entry_cost
                        for run in suite.runs
                        for s in run.switches)
        assert worst_isr <= wcet[config].wcet_cycles

    def test_slt_wcet_close_to_measurement(self, wcet):
        """§6.2: for (SLT) the WCET matches the measured latency."""
        suite = run_suite("cv32e40p", parse_config("SLT"), iterations=5)
        assert wcet["SLT"].wcet_cycles - suite.stats.maximum <= 10


class TestScaling:
    def test_wcet_grows_with_delayed_tasks(self):
        """More delayed tasks → longer worst-case tick path (software
        scheduling only; hardware ticks are off the critical path)."""
        small = analyze_config(parse_config("vanilla"), delayed_tasks=2)
        large = analyze_config(parse_config("vanilla"), delayed_tasks=8)
        assert large.wcet_cycles > small.wcet_cycles + 100

    @pytest.mark.parametrize("list_length", (4, 8, 16))
    def test_delayed_tasks_bound_any_list_length(self, list_length):
        """The wake bound is replaced whatever the builder rendered."""
        config = parse_config("vanilla", list_length=list_length)
        source, _ = analysis_source(config, delayed_tasks=3)
        assert ".equ DELAY_WAKE_BOUND, 3\n" in source
        assert f".equ DELAY_WAKE_BOUND, {list_length}\n" not in source
        small = analyze_config(config, delayed_tasks=2).wcet_cycles
        large = analyze_config(config, delayed_tasks=8).wcet_cycles
        assert large > small + 100
        default = parse_config("vanilla")
        assert small == analyze_config(default, delayed_tasks=2).wcet_cycles
        assert large == analyze_config(default, delayed_tasks=8).wcet_cycles

    def test_missing_wake_bound_raises(self, monkeypatch):
        monkeypatch.setattr(KernelBuilder, "source", lambda self: "nop\n")
        with pytest.raises(AnalysisError, match="DELAY_WAKE_BOUND"):
            analyze_config(parse_config("vanilla"))

    def test_hw_sched_wcet_independent_of_delayed_tasks(self):
        small = analyze_config(parse_config("SLT"), delayed_tasks=2)
        large = analyze_config(parse_config("SLT"), delayed_tasks=8)
        assert small.wcet_cycles == large.wcet_cycles


class TestAnalyzerMechanics:
    def test_paths_explored_reported(self, wcet):
        assert wcet["vanilla"].paths_explored > 10
        assert wcet["SLT"].paths_explored >= 1

    def test_instructions_on_path(self, wcet):
        assert wcet["vanilla"].instructions_on_path > \
            wcet["SLT"].instructions_on_path
