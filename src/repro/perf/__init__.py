"""Simulator performance: profiling, host metadata, benchmark records.

``repro.perf`` measures the *simulator's* speed (host-side), not the
simulated system's. See ``docs/PERF.md`` for how the block interpreter
achieves its speedup and how to read these reports.
"""

from repro.perf.host import BENCH_SCHEMA, bench_record, host_info
from repro.perf.instrument import (
    OpcodeAttributor,
    PerfReport,
    compare_reports,
    first_difference,
    format_report,
    profile_workload,
)

__all__ = [
    "BENCH_SCHEMA",
    "OpcodeAttributor",
    "PerfReport",
    "bench_record",
    "compare_reports",
    "first_difference",
    "format_report",
    "host_info",
    "profile_workload",
]
