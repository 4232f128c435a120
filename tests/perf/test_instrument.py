"""Simulator-performance instrumentation: reports, attribution, CLI."""

import dataclasses
import json

import pytest

from repro.cli import main
from repro.cores.system import System
from repro.perf import (OpcodeAttributor, compare_reports, first_difference,
                        format_report, profile_workload)
from repro.rtosunit.config import parse_config
from repro.workloads.suite import workload_by_name


def _profile(**kwargs):
    workload = workload_by_name("yield_pingpong", iterations=2)
    return profile_workload("cv32e40p", parse_config("vanilla"), workload,
                            iterations=2, **kwargs)


class TestProfileWorkload:
    def test_blocks_on_report(self):
        report = _profile(blocks=True)
        assert report.blocks is True
        assert report.instret > 0 and report.cycles > 0
        assert report.wall_s > 0
        assert report.ips > 0 and report.cps > 0
        assert report.counters["fast_instret"] > 0
        assert 0.0 <= report.counters["slow_ratio"] < 1.0

    def test_blocks_off_report(self):
        report = _profile(blocks=False)
        assert report.blocks is False
        assert report.counters["fast_instret"] == 0
        assert report.counters["slow_ratio"] == 1.0

    def test_on_off_cycles_identical(self):
        on = _profile(blocks=True)
        off = _profile(blocks=False)
        assert (on.cycles, on.instret) == (off.cycles, off.instret)
        assert on.switches == off.switches and on.switches
        assert on.core_stats == off.core_stats
        assert first_difference(on, off) is None
        rendered = compare_reports(on, off)
        assert "identical" in rendered
        assert "DIFFER" not in rendered

    def test_first_difference_names_a_core_stat(self):
        on = _profile(blocks=True)
        stats = dict(on.core_stats, stall_cycles=on.core_stats[
            "stall_cycles"] + 1)
        moved = dataclasses.replace(on, core_stats=stats)
        assert first_difference(moved, on) == (
            f"stats.stall_cycles {stats['stall_cycles']} != "
            f"{on.core_stats['stall_cycles']}")
        assert "DIFFER -- BUG: stats.stall_cycles" in compare_reports(moved,
                                                                       on)

    def test_opcode_attribution_forces_exact_path(self):
        report = _profile(blocks=True, opcodes=True)
        # The step hook disables block dispatch; the report says so.
        assert report.blocks is False
        assert report.counters["fast_instret"] == 0
        # A step that takes an interrupt re-fetches the same instruction
        # next step, so counts may exceed retired instructions slightly.
        counted = sum(report.opcode_counts.values())
        assert report.instret <= counted <= report.instret * 1.05
        # The per-class deltas partition the whole simulated timeline.
        assert sum(report.opcode_cycles.values()) == report.cycles
        assert report.opcode_counts.get("alu", 0) > 0

    def test_cprofile_capture(self):
        report = _profile(blocks=True, cprofile=True)
        assert "cumulative" in report.profile_text

    def test_as_dict_serialisable(self):
        json.dumps(_profile(blocks=True).as_dict())

    def test_format_report_mentions_caches(self):
        text = format_report(_profile(blocks=True))
        assert "block cache" in text
        assert "slow-path ratio" in text


class TestOpcodeAttributor:
    def test_trap_cycles_booked_to_trap_bucket(self):
        class FakeStats:
            traps = 0

        class FakeCore:
            cycle = 0
            pc = 0
            stats = FakeStats()

            def _fetch(self, pc):
                raise RuntimeError("no memory")

        attributor = OpcodeAttributor()
        core = FakeCore()
        attributor(core)           # first instruction: class unknown
        core.cycle = 10
        core.stats.traps = 1       # it trapped
        attributor(core)
        assert attributor.cycles.get("trap") == 10
        core.cycle = 14
        attributor.finish(core)
        assert attributor.cycles.get("unknown") == 4
        # finish() is idempotent.
        attributor.finish(core)
        assert attributor.cycles.get("unknown") == 4


class TestProfileCli:
    def test_profile_verb(self, capsys):
        assert main(["profile", "--workload", "yield_pingpong",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "blocks=on" in out
        assert "slow-path ratio" in out

    def test_profile_compare_and_json(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        assert main(["profile", "--workload", "yield_pingpong",
                     "--iterations", "2", "--compare",
                     "--perf-json", str(path)]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        record = json.loads(path.read_text())
        assert record["schema"] == "repro-bench/v1"
        assert record["bench"] == "profile"
        assert record["baseline"]["blocks"] is False
        assert record["speedup"] > 0

    def test_profile_compare_fails_on_a_moved_switch(self, monkeypatch,
                                                     capsys):
        """One switch's mret cycle moves on the blocks-on run while its
        cycles and instret stay the same: --compare must exit 1 and
        name the switch."""
        run = System.run

        def moved(system, *args, **kwargs):
            code = run(system, *args, **kwargs)
            if system.core.block_engine is not None:
                trigger, entry, done = system.core.switch_events[0]
                system.core.switch_events[0] = (trigger, entry, done + 1)
            return code

        monkeypatch.setattr(System, "run", moved)
        assert main(["profile", "--workload", "yield_pingpong",
                     "--iterations", "2", "--compare"]) == 1
        out = capsys.readouterr().out
        assert "DIFFER -- BUG: switch 0 mret cycle" in out

    def test_profile_blocks_reports_spin_loops(self, tmp_path, capsys):
        # interrupt_response's background task is a register-only spin
        # loop that dispatch fast-forwards between interrupts.
        path = tmp_path / "profile.json"
        assert main(["profile", "--blocks", "--compare", "--workload",
                     "interrupt_response", "--iterations", "2",
                     "--perf-json", str(path)]) == 0
        assert "fast-forwarded by dispatch" in capsys.readouterr().out
        record = json.loads(path.read_text())
        skipped = record["counters"]["spin_skipped"]
        assert skipped > 0
        assert record["block_report"]["spin_skipped"] == skipped
        assert record["baseline"]["counters"]["spin_skipped"] == 0

    def test_profile_opcodes(self, capsys):
        assert main(["profile", "--workload", "yield_pingpong",
                     "--iterations", "2", "--opcodes"]) == 0
        out = capsys.readouterr().out
        assert "cycles by opcode class" in out
        # The attributor forces the exact path and the output says so.
        assert "blocks=off" in out

    def test_profile_no_blocks(self, capsys):
        assert main(["profile", "--workload", "yield_pingpong",
                     "--iterations", "2", "--no-blocks"]) == 0
        assert "blocks=off" in capsys.readouterr().out
