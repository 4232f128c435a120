"""Command-line interface: regenerate any figure, run workloads, assemble.

Examples::

    python -m repro table1
    python -m repro fig9 --cores cv32e40p --iterations 10 --jobs 4
    python -m repro fig10
    python -m repro wcet --config SLT
    python -m repro dse --jobs 4 --cache-dir .dse-cache \
        --objectives latency,area
    python -m repro run --core naxriscv --config SPLIT \
        --workload mutex_workload
    python -m repro profile --core cv32e40p --config vanilla --compare \
        --perf-json profile.json
    python -m repro fuzz --quick --seed 7
    python -m repro workloads
    python -m repro ladder --quick
    python -m repro ladder --emit-requests ladder.jsonl
    python -m repro personalities
    python -m repro serve --spool .spool --jobs 4 --cache-dir .svc-cache
    python -m repro submit requests.jsonl --spool .spool --out results.jsonl
    python -m repro drain --spool .spool --stats
    python -m repro asm program.s --symbols
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import (
    format_fig9,
    format_fig10,
    format_fig11,
    format_fig12,
    format_fig13,
    format_table,
    format_table1,
)
from repro.cores import CORE_NAMES
from repro.errors import ReproError
from repro.rtosunit.config import EVALUATED_CONFIGS, parse_config


def _iterations(text: str) -> int:
    """argparse type of every ``--iterations``: an int of at least 1.

    Workload task loops count down from a multiple of the iteration
    count, so 0 or less would run on to the simulator's cycle limit.
    """
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _add_grid_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--cores", default=",".join(CORE_NAMES),
                        help="comma-separated core list")
    parser.add_argument("--configs", default=",".join(EVALUATED_CONFIGS),
                        help="comma-separated configuration list")


def _cmd_table1(_args) -> int:
    print(format_table1())
    return 0


def _cmd_fig9(args) -> int:
    from repro.harness import sweep
    from repro.wcet import analyze_config

    cores = args.cores.split(",")
    configs = args.configs.split(",")
    cache = None
    if args.cache_dir:
        from repro.dse import ResultCache

        cache = ResultCache(args.cache_dir)
    results = sweep(cores=cores, configs=configs,
                    iterations=args.iterations, seed=args.seed,
                    jobs=args.jobs, cache=cache)
    if args.json:
        from repro.harness.export import sweep_dict, write_json

        write_json(args.json, sweep_dict(results))
        print(f"wrote {args.json}")
        return 0
    if args.chart:
        from repro.analysis.charts import latency_chart

        for core in cores:
            print(latency_chart(results, core))
            print()
        return 0
    wcet = None
    if "cv32e40p" in cores:
        wcet = {name: analyze_config(parse_config(name)).wcet_cycles
                for name in configs}
    print(format_fig9(results, wcet=wcet))
    return 0


def _cmd_fig10(args) -> int:
    from repro.asic import AreaModel

    reports = AreaModel().figure10(
        cores=args.cores.split(","), configs=args.configs.split(","))
    if args.json:
        from repro.harness.export import area_dict, write_json

        write_json(args.json, area_dict(reports))
        print(f"wrote {args.json}")
        return 0
    if args.chart:
        from repro.analysis.charts import area_chart

        for core in args.cores.split(","):
            print(area_chart(reports, core))
            print()
        return 0
    print(format_fig10(reports))
    return 0


def _cmd_fig11(args) -> int:
    from repro.asic import FrequencyModel

    print(format_fig11(FrequencyModel().figure11(
        cores=args.cores.split(","), configs=args.configs.split(","))))
    return 0


def _cmd_fig12(args) -> int:
    from repro.asic import AreaModel

    model = AreaModel()
    points = model.list_scaling(args.core)
    print(format_fig12(points, model.baselines[args.core].area_kge))
    return 0


def _cmd_fig13(args) -> int:
    from repro.asic import PowerModel
    from repro.harness import run_workload
    from repro.workloads import mutex_workload

    model = PowerModel()
    reports = {}
    for core in args.cores.split(","):
        for name in args.configs.split(","):
            config = parse_config(name)
            run = run_workload(core, config,
                               mutex_workload(args.iterations))
            reports[(core, name)] = model.report(core, config, run=run)
    print(format_fig13(reports))
    return 0


def _cmd_wcet(args) -> int:
    from repro.wcet import analyze_config

    configs = (args.config.split(",") if args.config
               else list(EVALUATED_CONFIGS))
    rows = []
    for name in configs:
        result = analyze_config(parse_config(name),
                                delayed_tasks=args.delayed_tasks)
        rows.append((name, result.wcet_cycles, result.paths_explored))
    print(format_table(("config", "WCET [cycles]", "paths"), rows))
    return 0


def _cmd_run(args) -> int:
    from repro.harness import run_workload
    from repro.workloads import workload_by_name

    workload = workload_by_name(args.workload, iterations=args.iterations)
    result = run_workload(args.core, parse_config(args.config), workload)
    stats = result.stats
    print(f"{args.workload} on {args.core}/{args.config}:")
    print(f"  switches={stats.count} mean={stats.mean:.1f} "
          f"min={stats.minimum} max={stats.maximum} jitter={stats.jitter}")
    print(f"  cycles={result.cycles} instructions={result.instret}")
    if result.unit_stats is not None:
        print(f"  unit: {result.unit_stats}")
    return 0


def _cmd_profile(args) -> int:
    from repro.perf import bench_record, compare_reports, format_report
    from repro.perf import first_difference, profile_workload
    from repro.workloads import workload_by_name

    workload = workload_by_name(args.workload, iterations=args.iterations)
    config = parse_config(args.config)
    blocks = not args.no_blocks
    report = profile_workload(args.core, config, workload, blocks=blocks,
                              opcodes=args.opcodes, cprofile=args.cprofile,
                              block_stats=args.blocks,
                              iterations=args.iterations)
    baseline = None
    if args.compare:
        baseline = profile_workload(args.core, config, workload,
                                    blocks=False,
                                    iterations=args.iterations)
        print(compare_reports(report, baseline))
    else:
        print(format_report(report))
    if args.perf_json:
        from repro.harness.export import write_json

        payload = report.as_dict()
        if baseline is not None:
            payload["baseline"] = baseline.as_dict()
            payload["speedup"] = (report.ips / baseline.ips
                                  if baseline.ips else 0.0)
        write_json(args.perf_json, bench_record("profile", payload))
        print(f"wrote {args.perf_json}")
    if baseline is not None and first_difference(report, baseline):
        return 1
    return 0


def _cmd_trace(args) -> int:
    from repro.cores import attach_tracer, format_switch_timeline
    from repro.kernel.builder import KernelBuilder
    from repro.workloads import workload_by_name

    workload = workload_by_name(args.workload, iterations=args.iterations)
    builder = KernelBuilder(config=parse_config(args.config),
                            objects=workload.objects,
                            tick_period=workload.tick_period)
    system = builder.build(args.core,
                           external_events=workload.external_events)
    tracer = attach_tracer(system.core, capacity=args.limit * 4,
                           only_isr=args.isr_only)
    system.run(max_cycles=workload.max_cycles)
    print(tracer.format(limit=args.limit))
    print()
    print(format_switch_timeline(system.switches, limit=args.switches))
    return 0


def _cmd_verify(args) -> int:
    from repro.analysis.claims import (format_verdicts, gather_evidence,
                                       verify_all)

    results = verify_all(gather_evidence(iterations=args.iterations))
    print(format_verdicts(results))
    return 0 if all(r.passed for r in results) else 1


def _cmd_faults(args) -> int:
    from repro.faults import (CampaignSpec, campaign_dict, format_campaign,
                              run_campaign)

    if args.quick:
        spec = CampaignSpec.quick(seed=args.seed)
    else:
        spec = CampaignSpec(seed=args.seed)
    if args.cores:
        spec.cores = tuple(args.cores.split(","))
    if args.configs:
        spec.configs = tuple(args.configs.split(","))
    if args.workloads:
        spec.workloads = tuple(args.workloads.split(","))
    if args.faults is not None:
        spec.faults_per_combo = args.faults
    progress = None
    if args.verbose:
        def progress(result):
            print(f"  {result.core}/{result.config}/{result.workload}: "
                  f"{result.fault.describe()} -> {result.outcome} "
                  f"({result.detail})")
    campaign = run_campaign(spec, progress=progress, jobs=args.jobs)
    if args.json:
        from repro.harness.export import write_json

        write_json(args.json, campaign_dict(campaign))
        print(f"wrote {args.json}")
        return 0
    print(format_campaign(campaign))
    return 0


def _cmd_fuzz(args) -> int:
    from repro.fuzz import FuzzSpec, format_fuzz, fuzz_dict, run_fuzz

    if args.quick:
        spec = FuzzSpec.quick(seed=args.seed)
    else:
        spec = FuzzSpec(seed=args.seed)
    if args.cores:
        spec.cores = tuple(args.cores.split(","))
    if args.configs:
        spec.configs = tuple(args.configs.split(","))
    if args.families:
        spec.families = tuple(args.families.split(","))
    if args.count is not None:
        spec.count = args.count
    if args.iterations is not None:
        spec.iterations = args.iterations
    if args.threshold is not None:
        spec.threshold = args.threshold
    if args.no_shrink:
        spec.shrink = False
    progress = print if args.verbose else None
    result = run_fuzz(spec, progress=progress)
    if args.json:
        from repro.harness.export import write_json

        write_json(args.json, fuzz_dict(result))
        print(f"wrote {args.json}")
        return 0
    print(format_fuzz(result))
    return 0


def _cmd_personalities(_args) -> int:
    from repro.personalities import PERSONALITIES, personality_names

    rows = [(name, PERSONALITIES[name].fingerprint(),
             PERSONALITIES[name].summary)
            for name in personality_names()]
    print(format_table(("personality", "fingerprint", "description"), rows))
    return 0


def _cmd_ladder(args) -> int:
    import dataclasses

    from repro.personalities.ladder import (
        LadderSpec,
        ladder_from_records,
        ladder_markdown,
        ladder_report,
        ladder_requests,
        write_ladder,
    )

    spec = LadderSpec.quick() if args.quick else LadderSpec()
    updates: dict = {}
    if args.cores:
        updates["cores"] = tuple(args.cores.split(","))
    if args.configs:
        updates["configs"] = tuple(args.configs.split(","))
    if args.personalities:
        updates["personalities"] = tuple(args.personalities.split(","))
    if args.iterations is not None:
        updates["iterations"] = args.iterations
    if args.seed:
        updates["seed"] = args.seed
    if updates:
        spec = dataclasses.replace(spec, **updates)
    if args.emit_requests:
        requests = ladder_requests(spec)
        with open(args.emit_requests, "w") as handle:
            for request in requests:
                handle.write(json.dumps(request.as_dict(), sort_keys=True)
                             + "\n")
        print(f"wrote {len(requests)} job requests to {args.emit_requests} "
              f"(run them with `repro submit`, assemble with "
              f"`repro ladder --from-results`)")
        return 0
    if args.from_results:
        records = []
        with open(args.from_results) as handle:
            for line in handle:
                if line.strip():
                    records.append(json.loads(line))
        runs = [record["run"] for record in records
                if record.get("status") == "done" and record.get("run")]
        report = ladder_from_records(spec, runs)
    else:
        cache = None
        if args.cache_dir:
            from repro.dse import ResultCache

            cache = ResultCache(args.cache_dir)
        report = ladder_report(spec, jobs=args.jobs, cache=cache)
    write_ladder(report, json_path=args.json, md_path=args.md)
    print(f"wrote {args.json}" + (f" and {args.md}" if args.md else ""))
    if not args.quiet:
        print()
        print(ladder_markdown(report), end="")
    return 0


def _cmd_workloads(_args) -> int:
    from repro.workloads import workload_descriptions

    print(format_table(("workload", "description"),
                       workload_descriptions()))
    return 0


def _cmd_chaos(args) -> int:
    from repro.chaos.campaign import (CampaignSpec, campaign_dict,
                                      format_campaign, run_campaign)

    if args.quick:
        spec = CampaignSpec.quick(seed=args.seed)
    else:
        spec = CampaignSpec(seed=args.seed)
    if args.core:
        spec.core = args.core
    if args.config:
        spec.config = args.config
    if args.workload:
        spec.workload = args.workload
    if args.episodes:
        spec.episodes = tuple(args.episodes.split(","))
    progress = None
    if args.verbose:
        def progress(result):
            print(f"  {result.name} [{result.site}/{result.kind}] -> "
                  f"{result.outcome} ({result.detail})")
    campaign = run_campaign(spec, progress=progress)
    failed = campaign.counts()["failed"]
    if args.json:
        from repro.harness.export import write_json

        write_json(args.json, campaign_dict(campaign))
        print(f"wrote {args.json}")
        return 0 if failed == 0 else 1
    print(format_campaign(campaign))
    return 0 if failed == 0 else 1


def _cmd_dse(args) -> int:
    from repro.analysis import format_frontier
    from repro.dse import (
        CacheStats,
        DSEExecutor,
        ProgressMeter,
        ResultCache,
        annotate_pareto,
        build_grid,
        evaluate_grid,
        frontier_dict,
        group_suites,
        parse_objectives,
    )
    from repro.workloads import workload_names

    objectives = parse_objectives(args.objectives)
    cores = args.cores.split(",")
    configs = args.configs.split(",")
    workloads = (args.workloads.split(",") if args.workloads
                 else list(workload_names(suite_only=True)))
    points = build_grid(cores=cores, configs=configs, workloads=workloads,
                        iterations=args.iterations, seed=args.seed)
    cache = ResultCache(args.cache_dir) if args.cache_dir else None
    meter = ProgressMeter(len(points), enabled=not args.no_progress)
    runs = DSEExecutor(jobs=args.jobs, retries=args.retries,
                       timeout=args.timeout, cache=cache,
                       progress=meter.update).run(points)
    meter.finish()
    suites = group_suites(points, runs)
    design_points = annotate_pareto(evaluate_grid(suites),
                                    objectives=objectives)
    cache_stats = (cache.stats if cache is not None
                   else CacheStats()).as_dict()
    if args.json:
        from repro.harness.export import sweep_dict, write_json

        payload = {
            "meta": {
                "cores": cores, "configs": configs, "workloads": workloads,
                "iterations": args.iterations, "seed": args.seed,
                "objectives": list(objectives),
            },
            "sweep": sweep_dict(suites),
            "frontier": frontier_dict(design_points, objectives),
            "cache": cache_stats,
        }
        write_json(args.json, payload)
        print(f"wrote {args.json}")
    else:
        print(format_frontier(design_points, objectives))
    print(f"\ngrid: {len(points)} runs "
          f"({len(cores)} cores x {len(configs)} configs x "
          f"{len(workloads)} workloads)")
    if cache is not None:
        print(f"cache: {cache_stats['hits']} hits, "
              f"{cache_stats['misses']} misses, "
              f"{cache_stats['invalidated']} invalidated "
              f"(hit rate {cache_stats['hit_rate'] * 100.0:.1f}%)")
    return 0


def _service_from_args(args):
    from repro.service import BatchPolicy, SimulationService

    cache = None
    if args.cache_dir:
        from repro.dse import ResultCache

        cache = ResultCache(args.cache_dir)
    return SimulationService(
        jobs=args.jobs, retries=args.retries, timeout=args.timeout,
        cache=cache, queue_depth=args.queue_depth,
        policy=BatchPolicy(max_batch=args.max_batch,
                           max_linger=args.max_linger))


def _add_service_args(parser) -> None:
    parser.add_argument("--jobs", type=int, default=1,
                        help="process-pool workers, kept for the service's "
                             "lifetime (1: run batches in-process)")
    parser.add_argument("--cache-dir", default=None, metavar="DIR",
                        help="content-addressed result cache directory")
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="queue capacity before backpressure rejections")
    parser.add_argument("--max-batch", type=int, default=8,
                        help="grid points per executor submission")
    parser.add_argument("--max-linger", type=float, default=0.02,
                        help="seconds to wait for a fuller batch")
    parser.add_argument("--retries", type=int, default=1,
                        help="extra attempts per crashed/stalled task")
    parser.add_argument("--timeout", type=float, default=None,
                        help="per-batch stall watchdog in seconds")


def _cmd_serve(args) -> int:
    import asyncio

    from repro.service import format_stats, serve_spool

    service = _service_from_args(args)

    def on_event(event, job_id, info):
        if args.verbose:
            print(f"serve: {event} {job_id}: {info}")

    print(f"serving spool {args.spool} (queue depth {args.queue_depth}, "
          f"max batch {args.max_batch}, jobs {args.jobs}); "
          f"stop with `repro drain --spool {args.spool}`")

    async def _run():
        async with service:
            return await serve_spool(service, args.spool, poll=args.poll,
                                     idle_exit=args.idle_exit,
                                     on_event=on_event)

    stats = asyncio.run(_run())
    if args.stats_json:
        from repro.harness.export import write_json

        write_json(args.stats_json, stats)
    if args.stats:
        print(format_stats(stats))
    else:
        print(f"served {stats['completed'] + stats['failed']} jobs "
              f"({stats['hit_rate'] * 100.0:.0f}% coalesce+cache)")
    return 0


def _progress_printer(total: int, quiet: bool):
    def progress(event, index, request, info):
        if quiet:
            return
        prefix = f"[{index + 1:>{len(str(total))}}/{total}] {request.label}"
        if event == "rejected":
            print(f"{prefix}  rejected (queue full), retry in {info:.2f}s",
                  flush=True)
            return
        status = info["status"] if isinstance(info, dict) else info.status
        served = (info.get("served_by", "?") if isinstance(info, dict)
                  else info.served_by)
        latency = (info.get("latency_s") if isinstance(info, dict)
                   else info.latency_s)
        timing = f"  {latency * 1000.0:.1f}ms" if latency is not None else ""
        print(f"{prefix}  {status} ({served}){timing}", flush=True)
    return progress


def _cmd_submit(args) -> int:
    from repro.service import load_requests

    requests = load_requests(args.file)
    progress = _progress_printer(len(requests), args.quiet)
    if args.spool:
        from repro.service import SpoolClient

        client = SpoolClient(args.spool, max_retries=args.max_retries,
                             timeout=args.wait_timeout, progress=progress)
        records = client.submit_many(requests)
        stats = None
    else:
        import asyncio

        from repro.service import InProcessClient

        service = _service_from_args(args)

        async def _run():
            async with service:
                client = InProcessClient(service,
                                         max_retries=args.max_retries,
                                         progress=progress)
                return await client.submit_many(requests)

        results = asyncio.run(_run())
        records = [result.record() for result in results]
        stats = service.stats.as_dict()
    if args.out:
        with open(args.out, "w") as handle:
            for record in records:
                handle.write(json.dumps(record, sort_keys=True) + "\n")
        print(f"wrote {len(records)} result records to {args.out}")
    if stats is not None:
        if args.stats_json:
            from repro.harness.export import write_json

            write_json(args.stats_json, stats)
        if args.stats:
            from repro.service import format_stats

            print(format_stats(stats))
    failed = sum(1 for record in records
                 if record.get("status") != "done")
    done = len(records) - failed
    print(f"{done}/{len(records)} jobs completed" +
          (f", {failed} failed/rejected" if failed else ""))
    return 1 if failed else 0


def _cmd_drain(args) -> int:
    from repro.service import format_stats, request_drain

    stats = request_drain(args.spool, timeout=args.wait_timeout)
    if args.stats:
        print(format_stats(stats))
    else:
        print(f"drained: {stats['completed'] + stats['failed']} jobs served "
              f"({stats['hit_rate'] * 100.0:.0f}% coalesce+cache, "
              f"{stats['rejected']} rejections)")
    return 0


def _cmd_asm(args) -> int:
    from repro.isa.assembler import assemble
    from repro.isa.disassembler import disassemble

    with open(args.file) as handle:
        source = handle.read()
    program = assemble(source, origin=args.origin)
    if args.symbols:
        for name, addr in sorted(program.symbols.items(),
                                 key=lambda kv: kv[1]):
            print(f"{addr:#010x}  {name}")
        return 0
    for addr in sorted(program.words):
        word = program.words[addr]
        try:
            text = disassemble(word, addr)
        except Exception:
            text = f".word {word:#010x}"
        print(f"{addr:#010x}: {word:08x}  {text}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    from repro import __version__

    parser = argparse.ArgumentParser(
        prog="repro", description="RTOSUnit reproduction toolkit")
    parser.add_argument("--version", action="version",
                        version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("table1", help="Table 1: custom instructions")

    p = sub.add_parser("fig9", help="Figure 9: latency/jitter sweep")
    _add_grid_args(p)
    p.add_argument("--iterations", type=_iterations, default=10)
    p.add_argument("--seed", type=int, default=0,
                   help="base seed recorded on every run")
    p.add_argument("--jobs", type=int, default=1,
                   help="process-pool workers for the grid")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="reuse/populate a DSE result cache")
    p.add_argument("--chart", action="store_true",
                   help="draw ASCII bars instead of the table")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the sweep as JSON instead of printing")
    p = sub.add_parser("fig10", help="Figure 10: ASIC area")
    _add_grid_args(p)
    p.add_argument("--chart", action="store_true")
    p.add_argument("--json", default=None, metavar="FILE")
    p = sub.add_parser("fig11", help="Figure 11: fmax")
    _add_grid_args(p)
    p = sub.add_parser("fig12", help="Figure 12: list-length area scaling")
    p.add_argument("--core", default="cv32e40p")
    p = sub.add_parser("fig13", help="Figure 13: power on mutex_workload")
    _add_grid_args(p)
    p.add_argument("--iterations", type=_iterations, default=6)

    p = sub.add_parser("wcet", help="worst-case ISR timing (CV32E40P)")
    p.add_argument("--config", default=None,
                   help="comma-separated configs (default: all)")
    p.add_argument("--delayed-tasks", type=int, default=8)

    p = sub.add_parser(
        "dse", help="design-space co-exploration + Pareto frontier")
    _add_grid_args(p)
    p.add_argument("--workloads", default=None,
                   help="comma-separated workload list (default: the "
                        "RTOSBench suite)")
    p.add_argument("--iterations", type=_iterations, default=10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--jobs", type=int, default=1,
                   help="process-pool workers for the grid")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="content-addressed result cache directory")
    p.add_argument("--objectives", default="latency,jitter",
                   help="comma-separated Pareto objectives "
                        "(latency, jitter, area, fmax, power)")
    p.add_argument("--retries", type=int, default=1,
                   help="extra attempts per failed grid task")
    p.add_argument("--timeout", type=float, default=None,
                   help="stall watchdog in seconds (parallel runs)")
    p.add_argument("--no-progress", action="store_true",
                   help="suppress the runs/s + ETA telemetry line")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write sweep + frontier + cache stats as JSON")

    p = sub.add_parser("run", help="run one workload")
    p.add_argument("--core", default="cv32e40p", choices=CORE_NAMES)
    p.add_argument("--config", default="SLT")
    p.add_argument("--workload", default="yield_pingpong")
    p.add_argument("--iterations", type=_iterations, default=20)

    p = sub.add_parser(
        "profile", help="simulator throughput + block-cache telemetry")
    p.add_argument("--core", default="cv32e40p", choices=CORE_NAMES)
    p.add_argument("--config", default="vanilla")
    p.add_argument("--workload", default="yield_pingpong")
    p.add_argument("--iterations", type=_iterations, default=40)
    p.add_argument("--no-blocks", action="store_true",
                   help="time the exact per-instruction path instead")
    p.add_argument("--blocks", action="store_true",
                   help="dump block telemetry: cache hit rate, block "
                        "transitions chained inside the executors, "
                        "spin-loop iterations fast-forwarded by dispatch "
                        "and the top slow-path PCs classified by opcode")
    p.add_argument("--opcodes", action="store_true",
                   help="per-opcode cycle attribution (forces exact path)")
    p.add_argument("--cprofile", action="store_true",
                   help="append a host-level cProfile of the run")
    p.add_argument("--compare", action="store_true",
                   help="run blocks on AND off; print speedup, check that "
                        "cycles, instret, every switch and the core stats "
                        "are identical (exit 1 otherwise)")
    p.add_argument("--perf-json", default=None, metavar="FILE",
                   help="write the report (and baseline) as JSON")

    p = sub.add_parser("trace", help="instruction trace + switch timeline")
    p.add_argument("--core", default="cv32e40p", choices=CORE_NAMES)
    p.add_argument("--config", default="SLT")
    p.add_argument("--workload", default="yield_pingpong")
    p.add_argument("--iterations", type=_iterations, default=3)
    p.add_argument("--limit", type=int, default=60)
    p.add_argument("--switches", type=int, default=10)
    p.add_argument("--isr-only", action="store_true")

    p = sub.add_parser("verify",
                       help="evaluate every encoded paper claim")
    p.add_argument("--iterations", type=_iterations, default=8)

    p = sub.add_parser(
        "faults", help="seeded fault-injection campaign + resilience table")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--quick", action="store_true",
                   help="small fast sweep (cv32e40p, vanilla vs SLT)")
    p.add_argument("--cores", default=None, help="comma-separated core list")
    p.add_argument("--configs", default=None,
                   help="comma-separated configuration list")
    p.add_argument("--workloads", default=None,
                   help="comma-separated workload list")
    p.add_argument("--faults", type=int, default=None,
                   help="random faults per (core, config, workload)")
    p.add_argument("--jobs", type=int, default=1,
                   help="process-pool workers for the per-fault runs "
                        "(golden runs stay serial)")
    p.add_argument("--verbose", action="store_true",
                   help="print each fault outcome as it is classified")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write every outcome as JSON instead of the table")

    p = sub.add_parser(
        "fuzz", help="seeded scenario fuzzing vs the fixed-suite baseline")
    p.add_argument("--seed", type=int, default=7)
    p.add_argument("--quick", action="store_true",
                   help="small fast campaign (cv32e40p, vanilla, 1 "
                        "scenario per family)")
    p.add_argument("--cores", default=None, help="comma-separated core list")
    p.add_argument("--configs", default=None,
                   help="comma-separated configuration list")
    p.add_argument("--families", default=None,
                   help="comma-separated scenario families (default: all)")
    p.add_argument("--count", type=int, default=None,
                   help="scenarios per family per (core, config) cell")
    p.add_argument("--iterations", type=_iterations, default=None,
                   help="workload iterations per scenario run")
    p.add_argument("--threshold", type=float, default=None,
                   help="anomaly factor over the fixed-suite baseline")
    p.add_argument("--no-shrink", action="store_true",
                   help="report anomalies without minimising them")
    p.add_argument("--verbose", action="store_true",
                   help="print each scenario outcome as it completes")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the campaign report as JSON instead")

    sub.add_parser(
        "workloads",
        help="list workload names incl. fuzz scenario families")

    sub.add_parser(
        "personalities",
        help="list kernel personalities and their fingerprints")

    p = sub.add_parser(
        "ladder",
        help="latency ladder: core x config x personality report")
    p.add_argument("--quick", action="store_true",
                   help="CI smoke spec (vanilla only, fewer iterations)")
    p.add_argument("--cores", default=None, help="comma-separated core list")
    p.add_argument("--configs", default=None,
                   help="comma-separated base configuration list")
    p.add_argument("--personalities", default=None,
                   help="comma-separated personality list (default: all)")
    p.add_argument("--iterations", type=_iterations, default=None)
    p.add_argument("--seed", type=int, default=0,
                   help="base seed recorded on every run")
    p.add_argument("--jobs", type=int, default=1,
                   help="process-pool workers for the grid")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="reuse/populate a DSE result cache")
    p.add_argument("--json", default="BENCH_ladder.json", metavar="FILE",
                   help="enveloped JSON artifact path")
    p.add_argument("--md", default=None, metavar="FILE",
                   help="also write the markdown table to FILE")
    p.add_argument("--emit-requests", default=None, metavar="FILE",
                   help="write the grid as JSONL job requests for "
                        "`repro submit` instead of running it")
    p.add_argument("--from-results", default=None, metavar="FILE",
                   help="assemble the report from `repro submit --out` "
                        "JSONL records instead of running the grid")
    p.add_argument("--quiet", action="store_true",
                   help="suppress the markdown table on stdout")

    p = sub.add_parser(
        "chaos", help="seeded host-fault campaign against the serving stack")
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--quick", action="store_true",
                   help="fast subset (cache, worker and spool faults)")
    p.add_argument("--core", default=None, choices=CORE_NAMES)
    p.add_argument("--config", default=None)
    p.add_argument("--workload", default=None)
    p.add_argument("--episodes", default=None,
                   help="comma-separated episode names (default: all)")
    p.add_argument("--verbose", action="store_true",
                   help="print each episode outcome as it is classified")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="write the outcome table as JSON instead")

    p = sub.add_parser(
        "serve", help="simulation job server over a spool directory")
    p.add_argument("--spool", required=True, metavar="DIR",
                   help="request/response spool directory")
    _add_service_args(p)
    p.add_argument("--poll", type=float, default=0.05,
                   help="inbox poll interval in seconds")
    p.add_argument("--idle-exit", type=float, default=None, metavar="S",
                   help="exit after S seconds without requests")
    p.add_argument("--stats", action="store_true",
                   help="render the full telemetry table on exit")
    p.add_argument("--stats-json", default=None, metavar="FILE",
                   help="also write the final stats JSON to FILE")
    p.add_argument("--verbose", action="store_true",
                   help="log every request lifecycle event")

    p = sub.add_parser(
        "submit", help="submit a JSONL job file to the simulation service")
    p.add_argument("file", help="JSONL request file (one job per line)")
    p.add_argument("--spool", default=None, metavar="DIR",
                   help="spool of a running `repro serve` (default: run an "
                        "in-process service)")
    _add_service_args(p)
    p.add_argument("--max-retries", type=int, default=8,
                   help="resubmissions after backpressure rejections")
    p.add_argument("--wait-timeout", type=float, default=None, metavar="S",
                   help="give up after S seconds (spool mode)")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write per-job result records as JSONL")
    p.add_argument("--stats", action="store_true",
                   help="render the service telemetry table (in-process)")
    p.add_argument("--stats-json", default=None, metavar="FILE",
                   help="write the stats JSON to FILE (in-process)")
    p.add_argument("--quiet", action="store_true",
                   help="suppress per-job progress lines")

    p = sub.add_parser(
        "drain", help="drain and stop a running spool server")
    p.add_argument("--spool", required=True, metavar="DIR")
    p.add_argument("--wait-timeout", type=float, default=120.0, metavar="S",
                   help="seconds to wait for the server to drain")
    p.add_argument("--stats", action="store_true",
                   help="render the server's final telemetry table")

    p = sub.add_parser("asm", help="assemble a file and dump it")
    p.add_argument("file")
    p.add_argument("--origin", type=lambda t: int(t, 0), default=0)
    p.add_argument("--symbols", action="store_true")
    return parser


_COMMANDS = {
    "table1": _cmd_table1,
    "fig9": _cmd_fig9,
    "fig10": _cmd_fig10,
    "fig11": _cmd_fig11,
    "fig12": _cmd_fig12,
    "fig13": _cmd_fig13,
    "wcet": _cmd_wcet,
    "dse": _cmd_dse,
    "profile": _cmd_profile,
    "trace": _cmd_trace,
    "verify": _cmd_verify,
    "run": _cmd_run,
    "faults": _cmd_faults,
    "fuzz": _cmd_fuzz,
    "workloads": _cmd_workloads,
    "personalities": _cmd_personalities,
    "ladder": _cmd_ladder,
    "chaos": _cmd_chaos,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "drain": _cmd_drain,
    "asm": _cmd_asm,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:  # output piped into head/less and closed
        return 0
    except ReproError as exc:
        # Library failures (bad config name, simulation errors, ...) are
        # user-facing: report them without a traceback.
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
