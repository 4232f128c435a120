"""Meta-benchmark: block-interpreter speedup + perf-regression gate.

Not a paper figure — this is the CI gate for the basic-block predecoded
interpreter (``repro.cores.blocks``). It times the full RTOSBench suite
with block dispatch on and off, asserts that

* the simulated results are byte-identical either way (cycles and
  retired instructions per workload),
* the interpreter-bound headline combination (cv32e40p / vanilla, where
  every context switch is software instructions) speeds up by at least
  ``HEADLINE_SPEEDUP``,
* no core regresses below ``REGRESSION_FLOOR`` with blocks on,
* the headline slow-path ratio stays under ``SLOW_RATIO_CEILING`` — a
  rising ratio means predecode coverage eroded, the usual first symptom
  of an interpreter perf regression,

and writes the numbers to ``BENCH_core.json`` at the repo root so a
regression can be bisected against CI artifacts (see docs/PERF.md).

Since the tiered-compilation upgrade (custom-op-resident blocks, the
cached cores' timing inside the block executor, block chaining —
docs/PERF.md) two more rows carry their own gates: naxriscv/vanilla must
hold 1.5x (its OoO window timed inline by the executor's ``window``
arms) and cv32e40p/SLT must hold 2.0x (RTOSUnit custom ops riding
inside blocks), each with a slow-ratio ceiling so predecode coverage
can't silently erode back to the exact path. Remaining combinations
are reported only.
"""

import gc
import json
import pathlib
import time

from repro.kernel.builder import KernelBuilder
from repro.perf import bench_record
from repro.rtosunit.config import parse_config
from repro.workloads.suite import RTOSBENCH_WORKLOADS

from benchmarks.conftest import publish

BENCH_PATH = (pathlib.Path(__file__).resolve().parent.parent
              / "BENCH_core.json")
ITERATIONS = 40
#: Gated: blocks-on vs blocks-off on the headline combination.
HEADLINE = ("cv32e40p", "vanilla")
HEADLINE_SPEEDUP = 2.0
HEADLINE_REPEATS = 3
#: Gated: share of instructions still retiring on the exact path.
SLOW_RATIO_CEILING = 0.10
#: Gated: no measured combination may get slower than this with blocks.
REGRESSION_FLOOR = 0.8
#: Gated: absolute floor, generous enough for slow CI machines.
MIN_HEADLINE_IPS = 100_000.0
#: Best-of-N pairs for the tier-gated rows: one more repeat than the
#: headline, since their gates sit closer to the measured values.
TIER_REPEATS = 4
#: Gated rows beyond the headline: (core, config) -> (speedup floor,
#: slow-ratio ceiling). naxriscv exercises the inline OoO window of the
#: executor's ``window`` arms; SLT exercises custom-op-resident blocks
#: (docs/PERF.md).
TIER_GATES = {
    ("naxriscv", "vanilla"): (1.5, 0.05),
    ("cv32e40p", "SLT"): (2.0, 0.05),
}
#: Reported (regression floor only): cores/configs beyond the gates.
ALSO_MEASURED = [
    ("cva6", "vanilla"),
    ("naxriscv", "vanilla"),
    ("cv32e40p", "SLT"),
]


def _suite_pass(core: str, config_name: str, blocks: bool,
                iterations: int = ITERATIONS):
    """One timed pass over the RTOSBench suite.

    Only ``System.run`` is timed (assembly/build cost is identical in
    both modes and irrelevant to interpreter speed). Returns total
    instructions, wall seconds, a per-workload (cycles, instret)
    signature for the identity assert, and summed perf counters.

    The cyclic GC is drained before and switched off across the pass:
    collection pauses scale with the garbage left by *earlier* rows, so
    without this the later rows time the allocator's history instead of
    the interpreter. Applied identically to both modes, so the ratio
    stays fair.
    """
    gc.collect()
    gc.disable()
    try:
        return _suite_pass_inner(core, config_name, blocks, iterations)
    finally:
        gc.enable()


def _suite_pass_inner(core: str, config_name: str, blocks: bool,
                      iterations: int = ITERATIONS):
    config = parse_config(config_name)
    total_instret = 0
    wall = 0.0
    signature = []
    fast_instret = 0
    hits = misses = 0
    for factory in RTOSBENCH_WORKLOADS:
        workload = factory(iterations=iterations)
        builder = KernelBuilder(config=config, objects=workload.objects,
                                tick_period=workload.tick_period)
        system = builder.build(core,
                               external_events=workload.external_events)
        cpu = system.core
        if not blocks:
            cpu.block_engine = None
        start = time.perf_counter()
        system.run(workload.max_cycles)
        wall += time.perf_counter() - start
        total_instret += cpu.stats.instret
        signature.append((workload.name, cpu.cycle, cpu.stats.instret))
        counters = cpu.perf_counters()
        fast_instret += counters["fast_instret"]
        hits += counters["block_hits"]
        misses += counters["block_misses"]
    slow_ratio = ((total_instret - fast_instret) / total_instret
                  if total_instret else 1.0)
    probes = hits + misses
    return {
        "instret": total_instret,
        "wall_s": wall,
        "ips": total_instret / wall if wall else 0.0,
        "signature": signature,
        "slow_ratio": slow_ratio,
        "block_hit_rate": hits / probes if probes else 0.0,
    }


def _measure(core: str, config_name: str, repeats: int = 1,
             iterations: int = ITERATIONS) -> dict:
    """Best-of-``repeats`` on/off pair with the identity assert.

    Passes are interleaved (off, on, off, on, ...) so slow drift in
    machine load biases both sides of the ratio equally.
    """
    pairs = [(_suite_pass(core, config_name, blocks=False,
                          iterations=iterations),
              _suite_pass(core, config_name, blocks=True,
                          iterations=iterations))
             for _ in range(repeats)]
    off = min((p[0] for p in pairs), key=lambda p: p["wall_s"])
    on = min((p[1] for p in pairs), key=lambda p: p["wall_s"])
    assert on["signature"] == off["signature"], (
        f"{core}/{config_name}: block dispatch changed simulated results:\n"
        f"  on:  {on['signature']}\n  off: {off['signature']}")
    return {
        "core": core,
        "config": config_name,
        "off_ips": round(off["ips"], 1),
        "on_ips": round(on["ips"], 1),
        "speedup": round(on["ips"] / off["ips"], 3) if off["ips"] else 0.0,
        "slow_ratio": round(on["slow_ratio"], 4),
        "block_hit_rate": round(on["block_hit_rate"], 4),
        "instret": on["instret"],
    }


def test_block_interpreter_speedup():
    headline = _measure(*HEADLINE, repeats=HEADLINE_REPEATS)
    rows = [headline]
    for core, config_name in ALSO_MEASURED:
        # Gated rows get the headline's best-of-N treatment plus doubled
        # workload iterations so machine noise can't flip a pass/fail on
        # a single unlucky pass: the SLT row retires ~4x fewer
        # instructions than vanilla (the hardware does the scheduling),
        # so at the default length its passes are short enough for timer
        # jitter to move the ratio by several percent.
        gated = (core, config_name) in TIER_GATES
        rows.append(_measure(
            core, config_name,
            repeats=TIER_REPEATS if gated else 1,
            iterations=ITERATIONS * 2 if gated else ITERATIONS))

    record = bench_record("core_speed", {
        "iterations": ITERATIONS,
        "workloads": len(RTOSBENCH_WORKLOADS),
        "headline": {"core": HEADLINE[0], "config": HEADLINE[1],
                     "speedup_gate": HEADLINE_SPEEDUP,
                     "slow_ratio_ceiling": SLOW_RATIO_CEILING,
                     "regression_floor": REGRESSION_FLOOR},
        "tier_gates": {f"{core}/{config_name}":
                       {"speedup_gate": floor,
                        "slow_ratio_ceiling": ceiling}
                       for (core, config_name), (floor, ceiling)
                       in TIER_GATES.items()},
        "results": rows,
    })
    BENCH_PATH.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    table = "\n".join(
        f"{row['core']:9s} {row['config']:8s}: "
        f"off {row['off_ips'] / 1000.0:6.0f}k ips  "
        f"on {row['on_ips'] / 1000.0:6.0f}k ips  "
        f"speedup {row['speedup']:.2f}x  "
        f"slow-path {row['slow_ratio'] * 100.0:.1f}%  "
        f"hit rate {row['block_hit_rate'] * 100.0:.1f}%"
        for row in rows)
    publish("bench_core_speed", table)

    assert headline["speedup"] >= HEADLINE_SPEEDUP, (
        f"headline {HEADLINE[0]}/{HEADLINE[1]} speedup "
        f"{headline['speedup']:.2f}x below the {HEADLINE_SPEEDUP}x gate")
    assert headline["slow_ratio"] <= SLOW_RATIO_CEILING, (
        f"headline slow-path ratio {headline['slow_ratio']:.1%} above "
        f"the {SLOW_RATIO_CEILING:.0%} ceiling: predecode coverage eroded")
    assert headline["on_ips"] >= MIN_HEADLINE_IPS, (
        f"headline throughput {headline['on_ips']:.0f} instr/s below the "
        f"absolute floor")
    for row in rows:
        assert row["speedup"] >= REGRESSION_FLOOR, (
            f"{row['core']}/{row['config']} regressed with blocks on: "
            f"{row['speedup']:.2f}x")
        gate = TIER_GATES.get((row["core"], row["config"]))
        if gate is None:
            continue
        floor, ceiling = gate
        assert row["speedup"] >= floor, (
            f"{row['core']}/{row['config']} speedup {row['speedup']:.2f}x "
            f"below its {floor}x tier gate")
        assert row["slow_ratio"] <= ceiling, (
            f"{row['core']}/{row['config']} slow-path ratio "
            f"{row['slow_ratio']:.1%} above the {ceiling:.0%} ceiling: "
            f"predecode coverage eroded")
