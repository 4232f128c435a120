"""JSON export of results."""

import json

from repro.asic import AreaModel
from repro.harness import run_suite, run_workload
from repro.harness.export import (
    area_dict,
    run_dict,
    suite_dict,
    sweep_dict,
    write_json,
)
from repro.rtosunit.config import parse_config
from repro.workloads import yield_pingpong


class TestRunExport:
    def test_run_dict_fields(self):
        run = run_workload("cv32e40p", parse_config("SLT"),
                           yield_pingpong(3))
        payload = run_dict(run)
        assert payload["core"] == "cv32e40p"
        assert payload["config"] == "SLT"
        assert payload["stats"]["jitter"] == run.stats.jitter
        assert payload["latencies"] == run.latencies
        assert payload["unit"]["words_stored"] > 0

    def test_vanilla_has_no_unit_section(self):
        run = run_workload("cv32e40p", parse_config("vanilla"),
                           yield_pingpong(3))
        assert "unit" not in run_dict(run)

    def test_everything_is_json_serialisable(self):
        suite = run_suite("cv32e40p", parse_config("T"), iterations=2,
                          workloads=(yield_pingpong,))
        json.dumps(suite_dict(suite))
        json.dumps(sweep_dict({("cv32e40p", "T"): suite}))


class TestFigureExports:
    def test_area(self):
        reports = AreaModel().figure10(cores=("cva6",),
                                       configs=("vanilla", "S"))
        payload = area_dict(reports)
        assert len(payload["points"]) == 2
        json.dumps(payload)


class TestWriteJson:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "out.json"
        write_json(str(path), {"a": [1, 2, 3]})
        assert json.loads(path.read_text()) == {"a": [1, 2, 3]}

    def test_cli_json_flag(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "fig10.json"
        assert main(["fig10", "--cores", "cv32e40p",
                     "--configs", "vanilla,SLT",
                     "--json", str(path)]) == 0
        data = json.loads(path.read_text())
        assert {p["config"] for p in data["points"]} == {"vanilla", "SLT"}


class TestLoadInverses:
    """load_run/load_suite/load_sweep are exact inverses of the dumpers."""

    def test_run_round_trip_is_exact(self):
        from repro.harness.export import load_run

        run = run_workload("cv32e40p", parse_config("SLT"),
                           yield_pingpong(3), seed=11)
        payload = run_dict(run)
        rebuilt = load_run(payload)
        assert run_dict(rebuilt) == payload
        assert rebuilt.seed == 11
        assert rebuilt.core_stats is None  # dropped by design
        assert rebuilt.stats.jitter == run.stats.jitter
        assert [s.trigger_cycle for s in rebuilt.switches] == \
            [s.trigger_cycle for s in run.switches]

    def test_vanilla_run_round_trip(self):
        from repro.harness.export import load_run

        run = run_workload("cv32e40p", parse_config("vanilla"),
                           yield_pingpong(3))
        rebuilt = load_run(run_dict(run))
        assert rebuilt.unit_stats is None
        assert run_dict(rebuilt) == run_dict(run)

    def test_sweep_round_trip_through_json(self, tmp_path):
        from repro.harness import load_sweep, sweep

        results = sweep(cores=("cv32e40p",), configs=("vanilla", "T"),
                        iterations=2, workloads=(yield_pingpong,), seed=3)
        path = tmp_path / "sweep.json"
        write_json(str(path), sweep_dict(results))
        loaded = load_sweep(json.loads(path.read_text()))
        assert list(loaded) == list(results)
        again = tmp_path / "again.json"
        write_json(str(again), sweep_dict(loaded))
        assert path.read_bytes() == again.read_bytes()

    def test_schema_tag_present(self):
        suite = run_suite("cv32e40p", parse_config("T"), iterations=2,
                          workloads=(yield_pingpong,))
        payload = sweep_dict({("cv32e40p", "T"): suite})
        assert payload["schema"] == 2
