"""Self-test of the benchmark at its scaled-down input sizes.

Run from the repository root::

    python -m pytest perfbench -q
"""

from __future__ import annotations

import json
import multiprocessing
import pathlib
import shutil
import signal
import subprocess
import sys
import time

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import calib  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd=ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(pathlib.Path(cwd) / "perfbench" / "run.py"),
         "--scale", "small", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_metric_lists_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == \
        list(run.PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--trace", trace)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = run.PER_LAYER if trace == "1" else run.END_TO_END
    assert {name: metric["unit"] for name, metric in
            result["metrics"].items()} == dict(expected)
    table = proc.stdout.splitlines()
    for name, unit in expected:
        assert any(line.split()[:1] == [name] and line.endswith(unit)
                   for line in table), name
    if trace == "1":
        assert "span nesting problems: 0" in proc.stdout
        layers = result["metrics"]
        assert layers["trace.unattributed_s"]["value"] >= 0
        # Counters reach the parent from pool workers too.
        assert layers["cores.instret"]["value"] > 0
        if workload != "long_sim":
            assert layers["dse.result_kb"]["value"] > 0


@pytest.mark.parametrize("workload", ["long_sim", "service_openloop"])
def test_corrupted_payload_raises_error_rate(workload):
    proc = bench("--workload", workload, "--corrupt")
    result = result_of(proc)
    reps = sum(line.startswith("rep ") for line in proc.stdout.splitlines())
    assert not result["correct"]
    assert result["failed"] == reps  # one corrupted run per repetition
    assert "mismatch:" in proc.stdout
    assert f"error_rate {reps / result['attempted']:.6f}" in proc.stdout


def test_reference_covers_every_returned_run():
    import suite

    reference = suite.load_reference()
    for scale_name, scale in suite.SCALES.items():
        for cls in suite.WORKLOADS.values():
            workload = cls(1, scale, ROOT)
            for content in workload.contents():
                assert suite.content_key(*content) in reference["contents"]
        assert scale_name in reference["extras"]


def test_exits_nonzero_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "paper_cold", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def _span(tid, sid, parent, name, start, end, waiting=False, tag=None):
    return (tid, sid, parent, name, start, end, waiting, tag)


def test_spans_nest_and_self_time_excludes_children():
    parent = [_span(1, 0, -1, "harness.run_workload", 0.0, 10.0),
              _span(1, 1, 0, "cores.run", 2.0, 6.0, tag="cva6"),
              _span(1, 2, 1, "snapshot.capture", 3.0, 4.0)]
    assert spans.check_nesting({1: parent}) == []
    share, raw = spans.attribute({1: parent}, 0.0, 10.0)
    assert share == pytest.approx({"harness.run_workload": 6.0,
                                   "cores.run.cva6": 3.0,
                                   "snapshot.capture": 1.0})
    assert raw == share
    leaky = parent + [_span(1, 3, 2, "isa.assemble", 3.5, 4.5)]
    assert spans.check_nesting({1: leaky})


def test_parallel_workers_share_the_wall():
    parent = [_span(1, 0, -1, "dse.dispatch", 0.0, 10.0, waiting=True)]
    worker_a = [_span(1, 0, -1, "cores.run", 1.0, 9.0)]
    worker_b = [_span(1, 0, -1, "cores.run", 1.0, 5.0)]
    share, raw = spans.attribute({1: parent, 2: worker_a, 3: worker_b},
                                 0.0, 10.0)
    assert raw["cores.run"] == pytest.approx(12.0)
    assert share["cores.run"] == pytest.approx(8.0)
    assert share["dse.dispatch"] == pytest.approx(2.0)
    assert sum(share.values()) <= 10.0 + 1e-9


def test_busy_time_is_the_union_of_pending_intervals():
    import suite

    assert suite.union([]) == []
    assert suite.union([(3.0, 4.0), (0.0, 1.0), (0.5, 2.0),
                        (0.2, 0.8)]) == [(0.0, 2.0), (3.0, 4.0)]



def test_sampler_times_chunks_in_forked_workers(tmp_path):
    before = signal.getsignal(signal.SIGALRM)
    sampler = calib.Sampler(tmp_path)
    try:
        with multiprocessing.get_context("fork").Pool(1) as pool:
            pool.apply(time.sleep, (3 * calib.INTERVAL_S,))
        logs = list(tmp_path.glob("calib-*.txt"))
        assert len(logs) == 1 and logs[0].read_text().count("\n") >= 2
        assert sampler.split() > 0
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
