"""CLI verbs: repro submit / serve / drain, and cross-path identity."""

import json
import multiprocessing

import pytest

from repro.cli import build_parser, main


def _write_requests(path, rows):
    path.write_text("".join(json.dumps(row) + "\n" for row in rows))
    return path


ROW = {"core": "cv32e40p", "config": "SLT", "workload": "yield_pingpong",
       "iterations": 2, "seed": 42}


class TestParser:
    def test_service_subcommands_registered(self):
        text = build_parser().format_help()
        for command in ("serve", "submit", "drain"):
            assert command in text

    def test_serve_requires_spool(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve"])


class TestSubmit:
    def test_submit_streams_and_writes_results(self, tmp_path, capsys):
        requests = _write_requests(tmp_path / "reqs.jsonl",
                                   [ROW, ROW, dict(ROW, seed=7)])
        out = tmp_path / "results.jsonl"
        stats_json = tmp_path / "stats.json"
        code = main(["submit", str(requests), "--out", str(out),
                     "--cache-dir", str(tmp_path / "cache"),
                     "--stats", "--stats-json", str(stats_json)])
        assert code == 0
        printed = capsys.readouterr().out
        # one streamed progress line per job
        assert printed.count("cv32e40p/SLT/yield_pingpong") >= 3
        assert "3/3 jobs completed" in printed
        assert "coalesce+cache hit rate" in printed

        records = [json.loads(line) for line in
                   out.read_text().splitlines()]
        assert len(records) == 3
        assert all(record["status"] == "done" for record in records)
        # duplicate requests share one execution
        assert records[0]["run"] == records[1]["run"]
        served = {record["served_by"] for record in records[:2]}
        assert "coalesced" in served or "cache" in served

        stats = json.loads(stats_json.read_text())
        assert stats["completed"] == 3
        assert stats["executed"] <= 2

    def test_submit_exit_code_on_bad_file(self, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text("{not json}\n")
        code = main(["submit", str(bad)])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_warm_cache_second_submit(self, tmp_path, capsys):
        requests = _write_requests(tmp_path / "reqs.jsonl", [ROW])
        cache = str(tmp_path / "cache")
        assert main(["submit", str(requests), "--cache-dir", cache,
                     "--quiet"]) == 0
        capsys.readouterr()
        assert main(["submit", str(requests), "--cache-dir", cache]) == 0
        assert "(cache)" in capsys.readouterr().out


class TestIdentityAcrossFrontDoors:
    def test_submit_dse_and_sweep_agree(self, tmp_path, capsys):
        """Acceptance: same (core, config, workload, seed) → byte-identical
        run payloads via repro submit, repro dse, and direct sweep()."""
        from repro.dse import DSEExecutor, build_grid
        from repro.harness import run_dict, sweep

        requests = _write_requests(tmp_path / "reqs.jsonl", [ROW])
        out = tmp_path / "results.jsonl"
        assert main(["submit", str(requests), "--out", str(out),
                     "--quiet"]) == 0
        capsys.readouterr()
        service_payload = json.loads(out.read_text())["run"]

        points = build_grid(cores=["cv32e40p"], configs=["SLT"],
                            workloads=["yield_pingpong"], iterations=2,
                            seed=42)
        dse_payload = run_dict(DSEExecutor().run(points)[points[0]])

        from repro.workloads import yield_pingpong
        suites = sweep(cores=["cv32e40p"], configs=["SLT"], iterations=2,
                       workloads=[yield_pingpong], seed=42)
        sweep_payload = run_dict(suites[("cv32e40p", "SLT")].runs[0])

        blobs = {json.dumps(payload, sort_keys=True)
                 for payload in (service_payload, dse_payload,
                                 sweep_payload)}
        assert len(blobs) == 1

    def test_submit_on_long_lived_workers_matches_serial(self, tmp_path,
                                                         capsys):
        """``--jobs 2 --max-batch 1``: every distinct content is its own
        batch on the same two workers. One content comes under three
        seeds; its two later requests coalesce onto the first and are
        stamped with their own seeds. The payloads must equal serial
        per-point execution byte for byte."""
        from repro.dse import DSEExecutor, GridPoint
        from repro.harness import run_dict

        rows = [ROW, dict(ROW, config="vanilla"), dict(ROW, seed=7),
                dict(ROW, workload="sem_signal"), dict(ROW, seed=9)]
        requests = _write_requests(tmp_path / "reqs.jsonl", rows)
        out = tmp_path / "results.jsonl"
        stats_json = tmp_path / "stats.json"
        assert main(["submit", str(requests), "--jobs", "2",
                     "--max-batch", "1", "--out", str(out),
                     "--stats-json", str(stats_json), "--quiet"]) == 0
        capsys.readouterr()
        assert multiprocessing.active_children() == []

        stats = json.loads(stats_json.read_text())
        contents = {(row["config"], row["workload"]) for row in rows}
        assert stats["batches"] == stats["executed"] == len(contents) == 3
        assert stats["pool"]["restarts"] == 0
        points = [GridPoint.from_dict(row) for row in rows]
        serial = DSEExecutor().run(points)
        records = [json.loads(line) for line in out.read_text().splitlines()]
        assert [record["point"] for record in records] == \
            [point.as_dict() for point in points]
        for point, record in zip(points, records):
            assert record["status"] == "done"
            assert json.dumps(record["run"], sort_keys=True) == \
                json.dumps(run_dict(serial[point]), sort_keys=True)
