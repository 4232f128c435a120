#!/usr/bin/env python3
"""Outside-in benchmark of the RTOSUnit reproduction.

Run from the repository root::

    python3 perfbench/run.py --workload paper_cold --seed 1 --seconds 20 --trace 0

Each run sets the workload up in a few fresh child processes that stop
before the measured phase (for a steadier ``setup_s``), then repeats the
workload in fresh child processes until ``--seconds`` would be exceeded,
checks every output against ``perfbench/reference.json`` and prints one
line per set-up and repetition, a table of metrics with units and, as the
last line, a JSON object ``{"correct", "attempted", "failed",
"metrics"}``. Timings are scaled to a reference host speed measured in
every timed process (see ``calib.py``). ``--trace 0`` reports the
end-to-end metrics; ``--trace 1`` alternates traced and untraced
repetitions and reports the per-layer metrics (see ``spans.py``).

``--make-reference`` recomputes ``reference.json`` serially (jobs=1) from
the current sources; only do that for a change that is meant to alter
simulated results.
"""

from __future__ import annotations

import argparse
import json
import os
import pathlib
import shutil
import statistics
import subprocess
import sys
import time

import calib

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("paper_cold", "long_sim", "multiseed_sweep", "service_openloop")
DEFAULT_SEED = 1
HELDOUT_SEED = 7
RUN_TIMEOUT_S = 170          # every run must end within 180 s
SETUP_PROBES = 2             # extra set-up-only processes per run
# Three service repetitions pool 360 latencies, 18 beyond p95. Coalesced
# jobs resolve together, so those are only 6 independent batches.
MIN_REPS = {"service_openloop": 3}

END_TO_END = (
    ("wall_s", "s"), ("setup_s", "s"), ("points_per_s", "1/s"),
    ("sim_ips", "1/s"), ("peak_rss_mb", "MB"), ("job_p50_ms", "ms"),
    ("job_p95_ms", "ms"),
)

PER_LAYER = (
    ("kernel.render_s", "s"), ("kernel.renders", "count"),
    ("kernel.build_cache_s", "s"), ("kernel.build_cache_hit_ratio", "ratio"),
    ("isa.assemble_s", "s"), ("isa.assembles", "count"),
    ("isa.assemble_share", "ratio"),
    ("cores.build_s", "s"), ("cores.run_s", "s"),
    ("cores.run_s.cv32e40p", "s"), ("cores.run_s.cva6", "s"),
    ("cores.run_s.naxriscv", "s"), ("cores.run_share", "ratio"),
    ("cores.instret", "count"), ("cores.ns_per_instr", "ns"),
    ("cores.slow_ratio", "ratio"), ("cores.block_hit_rate", "ratio"),
    ("snapshot.capture_s", "s"), ("snapshot.captures", "count"),
    ("snapshot.capture_share", "ratio"), ("snapshot.materialize_s", "s"),
    ("snapshot.final_hits", "count"), ("snapshot.boundary_hits", "count"),
    ("snapshot.misses", "count"), ("snapshot.reuse_ratio", "ratio"),
    ("harness.run_workload_s", "s"), ("harness.export_s", "s"),
    ("dse.execute_point_s", "s"), ("dse.dispatch_s", "s"),
    ("dse.point_key_s", "s"), ("dse.cache_get_s", "s"),
    ("dse.cache_put_s", "s"), ("dse.cache_hit_ratio", "ratio"),
    ("dse.pool_tasks", "count"), ("dse.pool_retries", "count"),
    ("dse.result_kb", "kB"),
    ("service.submit_s", "s"), ("service.run_batch_s", "s"),
    ("service.batches", "count"), ("service.batch_fill", "jobs"),
    ("service.served_cache", "count"), ("service.served_coalesced", "count"),
    ("service.served_executed", "count"), ("service.rejected", "count"),
    ("service.gen_late_ms", "ms"),
    ("analysis.verify_s", "s"), ("asic.power_s", "s"),
    ("wcet.analyze_s", "s"), ("personalities.ladder_s", "s"),
    ("host.calib_ms", "ms"), ("trace.wall_s", "s"),
    ("trace.unattributed_s", "s"), ("trace.overhead_ratio", "ratio"),
)


class BenchError(Exception):
    """A repetition could not run; no result is printed."""


# -- child process: one repetition ---------------------------------------------


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest waited child."""
    import resource

    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def reap_children() -> None:
    import multiprocessing

    for process in multiprocessing.active_children():
        process.join(30)


def layer_metrics(rec, start: float, end: float, outcome) -> dict:
    """Per-layer metrics of one traced repetition (see spans.attribute)."""
    import collections

    import spans

    by_pid, counters = rec.collect()
    share, raw = spans.attribute(by_pid, start, end)
    calls = collections.Counter(span[3] for pid_spans in by_pid.values()
                                for span in pid_spans)
    wall = end - start
    metrics = {f"{layer}_s": share.get(layer, 0.0) for layer in spans.LAYERS
               if layer != "cores.run"}
    runs = {key: value for key, value in share.items()
            if key.startswith("cores.run")}
    metrics["cores.run_s"] = sum(runs.values())
    for core in ("cv32e40p", "cva6", "naxriscv"):
        metrics[f"cores.run_s.{core}"] = runs.get(f"cores.run.{core}", 0.0)

    def ratio(num, den) -> float:
        return num / den if den else 0.0

    instret = counters["cores.instret"]
    run_raw = sum(value for key, value in raw.items()
                  if key.startswith("cores.run"))
    captures = calls["snapshot.capture"]
    hits = counters["snapshot.final_hits"] + counters["snapshot.boundary_hits"]
    metrics.update({
        "kernel.renders": calls["kernel.render"],
        "kernel.build_cache_hit_ratio": ratio(
            counters["kernel.build_cache_calls"] - calls["isa.assemble"],
            counters["kernel.build_cache_calls"]),
        "isa.assembles": calls["isa.assemble"],
        "isa.assemble_share": metrics["isa.assemble_s"] / wall,
        "cores.run_share": metrics["cores.run_s"] / wall,
        "cores.instret": instret,
        "cores.ns_per_instr": ratio(run_raw * 1e9, instret),
        "cores.slow_ratio": ratio(counters["cores.slow_instret"], instret),
        "cores.block_hit_rate": ratio(
            counters["cores.block_hits"],
            counters["cores.block_hits"] + counters["cores.block_misses"]),
        "snapshot.captures": captures,
        "snapshot.capture_share": metrics["snapshot.capture_s"] / wall,
        "snapshot.final_hits": counters["snapshot.final_hits"],
        "snapshot.boundary_hits": counters["snapshot.boundary_hits"],
        "snapshot.misses": counters["snapshot.misses"],
        "snapshot.reuse_ratio": ratio(hits, captures),
        "dse.cache_hit_ratio": ratio(counters["dse.cache_get_hits"],
                                     counters["dse.cache_gets"]),
        "dse.pool_tasks": counters["dse.pool_tasks"],
        "dse.pool_retries": counters["dse.pool_retries"],
        "dse.result_kb": ratio(counters["dse.result_bytes"] / 1024.0,
                               counters["dse.results"]),
        "trace.wall_s": wall,
        "trace.unattributed_s": wall - sum(share.values()),
    })
    for name, _unit in PER_LAYER:
        if name.startswith("service."):
            metrics.setdefault(name, outcome.counters.get(name, 0))
    metrics["nesting_problems"] = len(spans.check_nesting(by_pid))
    return metrics


def child_main(args) -> int:
    repdir = pathlib.Path(args.dir)
    sampler = calib.Sampler(repdir)
    sys.path.insert(0, str(HERE))
    import suite

    spool = repdir / "spool"
    spool.mkdir(parents=True, exist_ok=True)
    rec = None
    if args.trace:
        import spans

        rec = spans.install(str(spool))
    workload = suite.WORKLOADS[args.workload](
        args.seed, suite.SCALES[args.scale], repdir)
    workload.setup()
    setup_calib = sampler.split()
    workload.time_scale = setup_calib / calib.REFERENCE_MS
    if rec is not None:
        rec.begin()
    setup_s = time.time() - args.t0
    if args.setup_only:
        sampler.stop()
        reap_children()
        write_result(repdir, {"setup_s": setup_s,
                              "setup_calib_ms": setup_calib})
        return 0
    start = time.monotonic()
    outcome = workload.measure()
    end = time.monotonic()
    if rec is not None:
        rec.end()
    calib_ms = sampler.split()
    samples = sampler.samples()
    sampler.stop()

    def reference_s(lo: float, hi: float) -> float:
        """Seconds from ``lo`` to ``hi``, scaled by the chunks timed then
        (by the whole phase's, when none was)."""
        return scaled(hi - lo, calib.mean_ms(samples, lo, hi, calib_ms))

    busy = (suite.union(outcome.jobs) if outcome.open_loop
            else [(start, end)])
    reap_children()
    rss = peak_rss_mb()
    reference = suite.load_reference()
    check = workload.check(outcome, reference, args.scale, args.corrupt)
    pinned = reference.get("run_digests", {}).get(args.workload)
    if (pinned and args.seed == reference["default_seed"]
            and args.scale == "full"):
        check.expect(check.digest == pinned,
                     "run_dict digest differs from the pinned default-seed "
                     "digest")
    result = {
        "traced": bool(args.trace),
        "wall_s": sum(hi - lo for lo, hi in busy),
        "wall_ref_s": sum(reference_s(lo, hi) for lo, hi in busy),
        "setup_s": setup_s,
        "setup_calib_ms": setup_calib,
        "calib_ms": calib_ms,
        "peak_rss_mb": rss,
        "points": len(outcome.runs),
        "instret": sum(_instret(run) for _k, _s, run in outcome.runs),
        "done_ref_s": [reference_s(due, done) for due, done in outcome.jobs],
        "attempted": check.attempted,
        "failed": check.failed,
        "problems": check.problems,
        "digest": check.digest,
    }
    if rec is not None:
        result["layers"] = layer_metrics(rec, start, end, outcome)
    write_result(repdir, result)
    return 0


def write_result(repdir: pathlib.Path, result: dict) -> None:
    with open(repdir / "result.json", "w") as handle:
        json.dump(result, handle)


def _instret(run) -> int:
    if run is None:
        return 0
    return run["instructions"] if isinstance(run, dict) else run.instret


# -- parent process: repetitions and the summary --------------------------------


def run_child(args, workdir: pathlib.Path, name: str, traced: bool,
              timeout: float = RUN_TIMEOUT_S, setup_only: bool = False) -> dict:
    repdir = workdir / name
    repdir.mkdir(parents=True)
    # Default simulator settings and a fixed string-hash seed in every
    # repetition, whatever the caller's environment holds.
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, str(HERE / "run.py"), "--child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--scale", args.scale, "--dir", str(repdir),
               "--trace", str(int(traced))]
    if args.corrupt:
        command.append("--corrupt")
    if setup_only:
        command.append("--setup-only")
    command += ["--t0", repr(time.time())]
    try:
        proc = subprocess.run(command, env=env, cwd=ROOT, stdout=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{name} timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{name} exited with {proc.returncode}")
    with open(repdir / "result.json") as handle:
        return json.load(handle)


def run_reps(args, workdir: pathlib.Path) -> tuple[list[dict], list[dict]]:
    """Set up ``SETUP_PROBES`` times without measuring (untraced runs
    only), then repeat the workload until one more repetition would overrun
    ``--seconds``."""
    start = time.monotonic()
    probes = []
    for index in range(0 if args.trace else SETUP_PROBES):
        probe = run_child(args, workdir, f"setup{index}", False,
                          RUN_TIMEOUT_S - (time.monotonic() - start),
                          setup_only=True)
        probes.append(probe)
        print(f"set-up {index}: setup {probe['setup_s']:.3f} s, "
              f"calibration {probe['setup_calib_ms']:.2f} ms")
    probed = time.monotonic()
    minimum = 2 if args.trace else MIN_REPS.get(args.workload, 1)
    reps = []
    while True:
        traced = bool(args.trace) and len(reps) % 2 == 0
        rep = run_child(args, workdir, f"rep{len(reps)}", traced,
                        RUN_TIMEOUT_S - (time.monotonic() - start))
        reps.append(rep)
        print(f"rep {len(reps) - 1}{' traced' if traced else ''}: "
              f"wall {rep['wall_s']:.3f} s at calibration "
              f"{rep['calib_ms']:.2f} ms "
              f"({rep['wall_ref_s']:.3f} s scaled), "
              f"setup {rep['setup_s']:.3f} s, "
              f"{rep['attempted']} checked, {rep['failed']} failed, "
              f"run_dict digest {rep['digest'][:16]}")
        for problem in rep["problems"]:
            print(f"  mismatch: {problem}")
        now = time.monotonic()
        if len(reps) >= minimum and \
                now - start + (now - probed) / len(reps) > args.seconds:
            return probes, reps


def scaled(seconds: float, calib_ms: float) -> float:
    """Host seconds measured at calibration time ``calib_ms``, as seconds
    on the reference host (see calib.py)."""
    return seconds * calib.REFERENCE_MS / calib_ms


def end_to_end(reps: list[dict], probes: list[dict]) -> dict:
    from repro.dse.telemetry import percentile

    walls = [r["wall_ref_s"] for r in reps]
    done = [value for rep in reps for value in rep["done_ref_s"]]
    return {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(scaled(r["setup_s"], r["setup_calib_ms"])
                                     for r in reps + probes),
        "points_per_s": statistics.median(r["points"] / wall
                                          for r, wall in zip(reps, walls)),
        "sim_ips": statistics.median(r["instret"] / wall
                                     for r, wall in zip(reps, walls)),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in reps),
        "job_p50_ms": percentile(done, 50) * 1e3,
        "job_p95_ms": percentile(done, 95) * 1e3,
    }


def per_layer(traced: list[dict], plain: list[dict], reps) -> dict:
    metrics = {}
    for name, _unit in PER_LAYER:
        values = [rep["layers"][name] for rep in traced
                  if name in rep["layers"]]
        if values:
            metrics[name] = statistics.median(values)
    metrics["host.calib_ms"] = statistics.median(r["calib_ms"] for r in reps)
    metrics["trace.overhead_ratio"] = (
        statistics.median(r["wall_ref_s"] for r in traced)
        / statistics.median(r["wall_ref_s"] for r in plain))
    return metrics


def summarize(args, probes: list[dict], reps: list[dict]) -> dict:
    plain = [rep for rep in reps if not rep["traced"]]
    traced = [rep for rep in reps if rep["traced"]]
    attempted = sum(rep["attempted"] for rep in reps)
    failed = sum(rep["failed"] for rep in reps)
    units = dict(PER_LAYER if args.trace else END_TO_END)
    values = (per_layer(traced, plain, reps) if args.trace
              else end_to_end(plain, probes))
    metrics = {name: {"value": values[name], "unit": units[name]}
               for name in units}
    from repro.perf import host_info

    print(f"host: {json.dumps(host_info(), sort_keys=True)}, calibration "
          f"{statistics.median(r['calib_ms'] for r in reps):.2f} ms")
    if traced:
        nesting = sum(rep["layers"]["nesting_problems"] for rep in traced)
        print(f"span nesting problems: {nesting}")
    print(f"{args.workload}: {len(reps)} repetitions, seed {args.seed}, "
          f"error_rate {failed / max(attempted, 1):.6f} "
          f"({failed} of {attempted})")
    for name, metric in metrics.items():
        print(f"  {name:32s} {metric['value']:>16.6g} {metric['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


# -- reference ----------------------------------------------------------------------


def make_reference(args) -> int:
    """Recompute reference.json: serial digests of every run a workload
    can return, the non-run outputs, and the default-seed digests."""
    sys.path.insert(0, str(HERE))
    import suite
    from repro.dse.cache import source_fingerprint

    contents = {}
    extras = {}
    for scale_name, scale in suite.SCALES.items():
        for cls in suite.WORKLOADS.values():
            workload = cls(DEFAULT_SEED, scale, pathlib.Path("."))
            for core, config, name, iterations in workload.contents():
                key = suite.content_key(core, config, name, iterations)
                if key not in contents:
                    run = suite.experiment.run_workload(
                        core, suite.parse_config(config),
                        suite.workload_by_name(name, iterations))
                    contents[key] = suite.content_digest(
                        suite.export.run_dict(run))
        extras[scale_name] = suite.PaperCold(
            DEFAULT_SEED, scale, pathlib.Path(".")).extras()
    reference = {
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "source_fingerprint": source_fingerprint(),
        "contents": dict(sorted(contents.items())),
        "extras": extras,
        "run_digests": {},
    }
    suite.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    args.seed, args.scale, args.corrupt = DEFAULT_SEED, "full", False
    with workspace() as workdir:
        for index, name in enumerate(WORKLOADS):
            args.workload = name
            rep = run_child(args, workdir, f"rep{index}", traced=False)
            if rep["failed"]:
                raise BenchError(f"{name}: {rep['problems']}")
            reference["run_digests"][name] = rep["digest"]
    suite.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {suite.REFERENCE} ({len(contents)} runs)")
    return 0


class workspace:
    """A scratch directory inside the checkout, removed on exit."""

    def __enter__(self) -> pathlib.Path:
        self.path = ROOT / ".perfbench_work" / str(os.getpid())
        self.path.mkdir(parents=True)
        return self.path

    def __exit__(self, *exc_info) -> None:
        shutil.rmtree(self.path, ignore_errors=True)
        try:
            self.path.parent.rmdir()
        except OSError:
            pass


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "small"), default="full",
                        help="small: the self-test's scaled-down inputs")
    parser.add_argument("--corrupt", action="store_true",
                        help="self-test: alter one returned run before the "
                             "output check, which must then fail")
    parser.add_argument("--make-reference", action="store_true")
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    parser.add_argument("--t0", type=float, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (args.workload or args.make_reference):
        parser.error("--workload is required")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    try:
        if args.child:
            return child_main(args)
        if args.make_reference:
            return make_reference(args)
        with workspace() as workdir:
            probes, reps = run_reps(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    result = summarize(args, probes, reps)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
