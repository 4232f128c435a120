"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_all_subcommands_registered(self):
        parser = build_parser()
        text = parser.format_help()
        for command in ("table1", "fig9", "fig10", "fig11", "fig12",
                        "fig13", "wcet", "run", "asm", "dse", "faults",
                        "fuzz", "workloads", "ladder", "personalities"):
            assert command in text

    def test_missing_command_errors(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_snapshot_verb_is_gone(self, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["snapshot"])
        assert info.value.code == 2
        assert "invalid choice: 'snapshot'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["dse", "--resume"], ["fig12", "--jobs", "2"],
        ["wcet", "--jobs", "2"]], ids=["dse-resume", "fig12-jobs",
                                       "wcet-jobs"])
    def test_removed_switches_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as info:
            main(argv)
        assert info.value.code == 2
        assert f"unrecognized arguments: {argv[1]}" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("verb", [
        "fig9", "fig13", "dse", "run", "profile", "trace", "verify",
        "fuzz", "ladder"])
    def test_iterations_below_one_exit_2(self, verb, capsys):
        for value in ("0", "-3"):
            with pytest.raises(SystemExit) as info:
                build_parser().parse_args([verb, "--iterations", value])
            assert info.value.code == 2
            assert f"--iterations: must be at least 1, got {value}" in \
                capsys.readouterr().err
        args = build_parser().parse_args([verb, "--iterations", "1"])
        assert args.iterations == 1

    def test_version_flag(self, capsys):
        from repro import __version__

        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.strip() == f"repro {__version__}"


class TestCommands:
    def test_table1(self, capsys):
        assert main(["table1"]) == 0
        out = capsys.readouterr().out
        assert "SWITCH_RF" in out

    def test_run(self, capsys):
        assert main(["run", "--workload", "yield_pingpong",
                     "--config", "SLT", "--iterations", "3"]) == 0
        out = capsys.readouterr().out
        assert "switches=" in out

    def test_personalities(self, capsys):
        assert main(["personalities"]) == 0
        out = capsys.readouterr().out
        for name in ("freertos", "scm", "echronos"):
            assert name in out

    def test_run_with_personality_suffix(self, capsys):
        assert main(["run", "--workload", "ladder_switch",
                     "--config", "vanilla@scm", "--iterations", "3"]) == 0
        assert "switches=" in capsys.readouterr().out

    def test_unknown_personality_suggests(self, capsys):
        assert main(["run", "--config", "vanilla@freertoss",
                     "--workload", "yield_pingpong"]) == 1
        assert "did you mean 'freertos'" in capsys.readouterr().err

    def test_ladder_subset(self, capsys, tmp_path):
        import json

        json_path = tmp_path / "ladder.json"
        assert main(["ladder", "--cores", "cv32e40p",
                     "--configs", "vanilla", "--iterations", "3",
                     "--json", str(json_path)]) == 0
        out = capsys.readouterr().out
        assert "| vanilla | scm |" in out
        record = json.loads(json_path.read_text())
        assert record["bench"] == "ladder"
        assert len(record["rows"]) == 3

    def test_wcet_single_config(self, capsys):
        assert main(["wcet", "--config", "SLT"]) == 0
        assert "SLT" in capsys.readouterr().out

    def test_fig10_subset(self, capsys):
        assert main(["fig10", "--cores", "cv32e40p",
                     "--configs", "vanilla,SLT"]) == 0
        out = capsys.readouterr().out
        assert "mm2" in out

    def test_fig11_subset(self, capsys):
        assert main(["fig11", "--cores", "cva6",
                     "--configs", "vanilla,S"]) == 0
        assert "GHz" in capsys.readouterr().out

    def test_fig12(self, capsys):
        assert main(["fig12"]) == 0
        assert "64" in capsys.readouterr().out

    def test_fig9_small_grid(self, capsys):
        assert main(["fig9", "--cores", "cv32e40p",
                     "--configs", "vanilla,SLT",
                     "--iterations", "2"]) == 0
        out = capsys.readouterr().out
        assert "jitter" in out
        assert "WCET" in out

    def test_asm_listing(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text("start:\n    li a0, 1\n    add a1, a0, a0\n")
        assert main(["asm", str(source)]) == 0
        out = capsys.readouterr().out
        assert "add a1, a0, a0" in out

    def test_asm_symbols(self, tmp_path, capsys):
        source = tmp_path / "prog.s"
        source.write_text("start:\n    nop\nend:\n    nop\n")
        assert main(["asm", str(source), "--symbols"]) == 0
        out = capsys.readouterr().out
        assert "start" in out and "end" in out


class TestDseCommand:
    def test_table_lists_every_config_once_per_core(self, capsys):
        from repro.rtosunit.config import EVALUATED_CONFIGS

        assert main(["dse", "--cores", "cv32e40p",
                     "--workloads", "yield_pingpong",
                     "--iterations", "2", "--no-progress"]) == 0
        out = capsys.readouterr().out
        table = [line for line in out.splitlines()
                 if line.strip().startswith("cv32e40p")]
        configs = [line.split()[1] for line in table]
        assert sorted(configs) == sorted(EVALUATED_CONFIGS)
        for line in table:
            assert "non-dominated" in line or "dominated by" in line
        assert "Pareto frontier over objectives" in out
        assert "grid: 12 runs" in out

    def test_json_cache_second_pass_is_all_hits(self, tmp_path, capsys):
        import json

        argv = ["dse", "--cores", "cv32e40p", "--configs", "vanilla,SLT",
                "--workloads", "yield_pingpong,delay_periodic",
                "--iterations", "2", "--no-progress",
                "--cache-dir", str(tmp_path / "cache")]
        cold = tmp_path / "cold.json"
        warm = tmp_path / "warm.json"
        assert main(argv + ["--json", str(cold)]) == 0
        assert main(argv + ["--json", str(warm)]) == 0
        capsys.readouterr()
        cold_data = json.loads(cold.read_text())
        warm_data = json.loads(warm.read_text())
        assert cold_data["cache"]["hit_rate"] == 0.0
        assert warm_data["cache"]["hit_rate"] == 1.0
        assert cold_data["sweep"] == warm_data["sweep"]
        assert cold_data["frontier"] == warm_data["frontier"]

    def test_cache_summary_line_printed(self, tmp_path, capsys):
        assert main(["dse", "--cores", "cv32e40p", "--configs", "vanilla",
                     "--workloads", "yield_pingpong", "--iterations", "2",
                     "--no-progress",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "cache: 0 hits, 1 misses, 0 invalidated (hit rate 0.0%)" in out

    def test_json_cache_block_has_one_shape(self, tmp_path, capsys):
        import json

        argv = ["dse", "--cores", "cv32e40p", "--configs", "vanilla",
                "--workloads", "yield_pingpong", "--iterations", "2",
                "--no-progress"]
        cached, uncached = tmp_path / "cached.json", tmp_path / "none.json"
        assert main(argv + ["--cache-dir", str(tmp_path / "cache"),
                            "--json", str(cached)]) == 0
        assert main(argv + ["--json", str(uncached)]) == 0
        capsys.readouterr()
        stats = [json.loads(path.read_text())["cache"]
                 for path in (cached, uncached)]
        assert list(stats[0]) == list(stats[1])
        assert all(value == 0 for value in stats[1].values())

    def test_cache_written_under_one_seed_serves_another(self, tmp_path,
                                                          capsys):
        import json

        argv = ["dse", "--cores", "cv32e40p", "--configs", "vanilla,SLT",
                "--workloads", "yield_pingpong", "--iterations", "2",
                "--no-progress"]
        cache = ["--cache-dir", str(tmp_path / "cache")]
        exports = {name: tmp_path / f"{name}.json"
                   for name in ("seed42", "warm", "reference")}
        assert main(argv + cache + ["--seed", "42",
                                    "--json", str(exports["seed42"])]) == 0
        assert main(argv + cache + ["--seed", "7",
                                    "--json", str(exports["warm"])]) == 0
        assert main(argv + ["--seed", "7",
                            "--json", str(exports["reference"])]) == 0
        capsys.readouterr()
        data = {name: json.loads(path.read_text())
                for name, path in exports.items()}
        assert data["warm"]["cache"]["hit_rate"] == 1.0
        assert data["warm"]["sweep"] == data["reference"]["sweep"]
        assert data["warm"]["frontier"] == data["reference"]["frontier"]
        # The hits carry seed 7's stamps, not the writer's.
        assert data["warm"]["sweep"] != data["seed42"]["sweep"]

    def test_bad_objectives_fail(self, capsys):
        assert main(["dse", "--objectives", "latency,speed"]) == 1
        assert "unknown objective" in capsys.readouterr().err


class TestFuzzCommand:
    def test_quick_campaign_runs(self, capsys):
        assert main(["fuzz", "--quick", "--seed", "7",
                     "--families", "queue_mesh"]) == 0
        out = capsys.readouterr().out
        assert "Fuzz campaign (seed 7)" in out
        assert "queue_mesh" in out
        assert "baseline cv32e40p/vanilla" in out

    def test_json_export_is_byte_identical_per_seed(self, tmp_path, capsys):
        argv = ["fuzz", "--quick", "--seed", "7",
                "--families", "expiry_burst"]
        first = tmp_path / "first.json"
        second = tmp_path / "second.json"
        assert main(argv + ["--json", str(first)]) == 0
        assert main(argv + ["--json", str(second)]) == 0
        capsys.readouterr()
        assert first.read_bytes() == second.read_bytes()

    def test_unknown_family_fails_with_suggestion(self, capsys):
        assert main(["fuzz", "--quick", "--families", "irq_strom"]) == 1
        assert "did you mean" in capsys.readouterr().err

    def test_run_accepts_fuzz_scenario_names(self, capsys):
        assert main(["run", "--workload", "fuzz:queue_mesh:s3:stages=2",
                     "--config", "SLT", "--iterations", "3"]) == 0
        assert "switches=" in capsys.readouterr().out


class TestWorkloadsCommand:
    def test_lists_fixed_suite_and_fuzz_families(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "yield_pingpong" in out
        assert "fuzz:irq_storm:s<seed>" in out
        assert "fuzz:mixed_crit:s<seed>" in out
