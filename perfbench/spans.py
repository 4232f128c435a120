"""Host-time spans around the public functions of each ``repro`` layer.

The benchmark records spans from its own files: :func:`install` replaces
selected module functions and class methods with thin wrappers that open
a span, call the original and close the span. Nothing under ``src/``
changes, and untraced runs never call :func:`install`, so they run the
unwrapped code.

Spans nest per thread. Pool workers are forked after :func:`install`,
so they inherit the wrappers; each worker writes its spans to a spool
file after every ``execute_point`` call and the parent merges the files
when the measured phase ends.

:func:`attribute` turns the merged spans into per-layer times that sum
to no more than the wall time of the traced phase (see its docstring).
"""

from __future__ import annotations

import collections
import functools
import inspect
import itertools
import json
import os
import pickle
import sys
import threading
import time

#: Span names; the per-layer time metric of span ``x`` is ``x_s``.
LAYERS = (
    "kernel.render", "kernel.build_cache", "isa.assemble", "cores.build",
    "cores.run", "snapshot.capture", "snapshot.materialize",
    "harness.run_workload", "harness.export", "dse.execute_point",
    "dse.dispatch", "dse.point_key", "dse.cache_get", "dse.cache_put",
    "service.submit", "service.run_batch", "analysis.verify", "asic.power",
    "wcet.analyze", "personalities.ladder",
)

#: Snapshot-store counters read from ``SnapshotStats`` in every process.
SNAPSHOT_COUNTERS = ("final_hits", "boundary_hits", "misses")

#: Per-core interpreter counters from ``System.perf_counters()``.
CORE_COUNTERS = ("instret", "slow_instret", "block_hits", "block_misses")


class Recorder:
    """In-memory span and counter store for one process.

    A span is ``(tid, sid, parent_sid, name, start, end, waiting, tag)``
    with ``time.monotonic()`` stamps, which are comparable across the
    processes of one host. ``waiting`` marks spans whose own time is
    spent blocked on a process pool (see :func:`attribute`).
    """

    def __init__(self, spool: str):
        self.spool = spool
        self.active = False
        self.main_pid = os.getpid()
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: list = []
        self.counters: collections.Counter = collections.Counter()
        self._local = threading.local()
        self._ids = itertools.count()
        self._flushed = 0
        self._snapshot_base = _snapshot_counts()

    def after_fork(self) -> None:
        """Forked pool worker: start empty, keep the ``active`` flag."""
        self._reset()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str, waiting: bool = False, tag=None) -> tuple:
        stack = self._stack()
        sid = next(self._ids)
        parent = stack[-1] if stack else -1
        stack.append(sid)
        return (sid, parent, name, waiting, tag, time.monotonic())

    def close(self, token: tuple) -> None:
        end = time.monotonic()
        sid, parent, name, waiting, tag, start = token
        self._stack().pop()
        self.spans.append((threading.get_ident(), sid, parent, name, start,
                           end, waiting, tag))

    def begin(self) -> None:
        self._snapshot_base = _snapshot_counts()
        self.active = True

    def end(self) -> None:
        self.active = False

    def snapshot_delta(self) -> dict:
        now = _snapshot_counts()
        return {key: now[key] - self._snapshot_base[key] for key in now}

    def flush(self) -> None:
        """Worker side: append new spans, rewrite the counter file."""
        base = os.path.join(self.spool, str(self.pid))
        new = self.spans[self._flushed:]
        self._flushed = len(self.spans)
        with open(base + ".spans", "a") as handle:
            for span in new:
                handle.write(json.dumps(span) + "\n")
        counters = dict(self.counters)
        counters.update({f"snapshot.{key}": value
                         for key, value in self.snapshot_delta().items()})
        tmp = base + ".tmp"
        with open(tmp, "w") as handle:
            json.dump(counters, handle)
        os.replace(tmp, base + ".counters")

    def collect(self) -> tuple[dict, collections.Counter]:
        """Parent side: spans by process, and counters of all processes."""
        spans = {self.pid: self.spans}
        counters = collections.Counter(self.counters)
        for key, value in self.snapshot_delta().items():
            counters[f"snapshot.{key}"] += value
        for name in sorted(os.listdir(self.spool)):
            path = os.path.join(self.spool, name)
            pid, _, kind = name.partition(".")
            if kind == "spans":
                with open(path) as handle:
                    spans[int(pid)] = [tuple(json.loads(line))
                                       for line in handle]
            elif kind == "counters":
                with open(path) as handle:
                    counters.update(json.load(handle))
        return spans, counters


def _snapshot_counts() -> dict:
    module = sys.modules.get("repro.snapshot.cache")
    if module is None:
        return dict.fromkeys(SNAPSHOT_COUNTERS, 0)
    stats = module.store().stats
    return {key: getattr(stats, key) for key in SNAPSHOT_COUNTERS}


# -- wrappers ------------------------------------------------------------------


def _span(rec: Recorder, fn, name: str, *, when=None, tag=None,
          before=None, after=None, waiting: bool = False):
    """Wrap *fn* in a span named *name* while *rec* is active.

    The optional hooks take the call's bound arguments by parameter name:
    a false ``when(call)`` skips the span, ``tag(call)`` labels it, and
    ``before(call)`` returns a state that ``after(call, state, result)``
    receives once the call has returned.
    """
    hooked = any(hook is not None for hook in (when, tag, before, after))
    signature = inspect.signature(fn) if hooked else None

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        call = None
        if hooked:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            call = bound.arguments
        if when is not None and not when(call):
            return fn(*args, **kwargs)
        state = before(call) if before is not None else None
        token = rec.open(name, waiting, tag(call) if tag is not None else None)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(token)
        if after is not None:
            after(call, state, result)
        return result
    return wrapper


def _async_span(rec: Recorder, fn, name: str):
    """A coroutine method; valid while it has no ``await`` of its own that
    could interleave other spans on the loop thread (true of ``submit``)."""
    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        if not rec.active:
            return await fn(*args, **kwargs)
        token = rec.open(name)
        try:
            return await fn(*args, **kwargs)
        finally:
            rec.close(token)
    return wrapper


def _replace_everywhere(original, wrapper) -> None:
    """Rebind *original* to *wrapper* in every loaded ``repro`` module.

    Covers ``from x import f`` re-exports made before installation;
    modules importing later read the (already rebound) source attribute.
    """
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(spool: str) -> Recorder:
    """Wrap every traced layer; returns the (inactive) recorder.

    Call after the workload modules are imported and before any pool
    starts, so forked workers inherit the wrappers.
    """
    import repro.analysis.claims as claims
    import repro.asic.power as power
    import repro.cores as cores
    import repro.cores.system as system
    import repro.dse.cache as cache
    import repro.dse.executor as executor
    import repro.harness.experiment as experiment
    import repro.harness.export as export
    import repro.kernel.builder as builder
    import repro.personalities.ladder as ladder
    import repro.service.server as server
    import repro.service.worker as worker
    import repro.snapshot.state as state
    import repro.wcet.analyzer as analyzer

    rec = Recorder(spool)
    os.register_at_fork(after_in_child=rec.after_fork)
    core_names = {cls: name for name, cls in cores.CORE_CLASSES.items()}

    def core_delta(call, before, _result) -> None:
        after = call["self"].perf_counters()
        for key in CORE_COUNTERS:
            rec.counters[f"cores.{key}"] += after[key] - before[key]

    def point_done(_call, _state, result) -> None:
        """Result size; a pool worker then flushes to the spool."""
        rec.counters["dse.results"] += 1
        rec.counters["dse.result_bytes"] += len(pickle.dumps(result))
        if os.getpid() != rec.main_pid:
            rec.flush()

    def retries(call) -> int:
        return call["health"].retries if call["health"] is not None else 0

    def pool_done(call, retries_before, _result) -> None:
        if call["jobs"] > 1:
            rec.counters["dse.pool_tasks"] += len(call["items"])
        rec.counters["dse.pool_retries"] += retries(call) - retries_before

    def cache_got(_call, _state, payload) -> None:
        rec.counters["dse.cache_gets"] += 1
        rec.counters["dse.cache_get_hits"] += payload is not None

    def build_cache_call(_call) -> None:
        rec.counters["kernel.build_cache_calls"] += 1

    # The builder's own binding only: the WCET analyser assembles too, and
    # that time stays with wcet.analyze.
    builder.assemble = _span(rec, builder.assemble, "isa.assemble")
    builder.KernelBuilder.source = _span(
        rec, builder.KernelBuilder.source, "kernel.render",
        when=lambda call: call["self"]._source is None)

    functions = (
        (builder.assemble_cached, "kernel.build_cache",
         {"before": build_cache_call}),
        (builder.build_system, "cores.build", {}),
        (experiment.run_workload, "harness.run_workload", {}),
        (export.run_dict, "harness.export", {}),
        (export.load_run, "harness.export", {}),
        (executor.execute_point, "dse.execute_point", {"after": point_done}),
        (executor.parallel_map, "dse.dispatch",
         {"waiting": True, "before": retries, "after": pool_done}),
        (cache.point_key, "dse.point_key", {}),
        (worker.run_batch, "service.run_batch", {}),
        (claims.gather_evidence, "analysis.verify", {}),
        (claims.verify_all, "analysis.verify", {}),
        (analyzer.analyze_config, "wcet.analyze", {}),
        (ladder.ladder_report, "personalities.ladder", {}),
    )
    for original, name, hooks in functions:
        _replace_everywhere(original, _span(rec, original, name, **hooks))

    methods = (
        (system.System, "load_image", "cores.build", {}),
        (system.System, "capture", "snapshot.capture", {}),
        (system.System, "run", "cores.run",
         {"tag": lambda call: core_names.get(type(call["self"].core)),
          "before": lambda call: call["self"].perf_counters(),
          "after": core_delta}),
        (state.SystemSnapshot, "materialize", "snapshot.materialize", {}),
        (cache.ResultCache, "put", "dse.cache_put", {}),
        (cache.ResultCache, "get", "dse.cache_get", {"after": cache_got}),
        (power.PowerModel, "report", "asic.power", {}),
    )
    for cls, attr, name, hooks in methods:
        setattr(cls, attr, _span(rec, getattr(cls, attr), name, **hooks))
    server.SimulationService.submit = _async_span(
        rec, server.SimulationService.submit, "service.submit")
    return rec


# -- analysis ------------------------------------------------------------------


def check_nesting(spans_by_pid: dict) -> list[str]:
    """Problems with span nesting: every child inside its parent."""
    problems = []
    for pid, spans in spans_by_pid.items():
        by_id = {(span[0], span[1]): span for span in spans}
        for tid, sid, parent, name, start, end, _w, _t in spans:
            if end < start:
                problems.append(f"{pid}: {name} ends before it starts")
            if parent < 0:
                continue
            outer = by_id.get((tid, parent))
            if outer is None:
                problems.append(f"{pid}: {name} has no closed parent")
            elif start < outer[4] or end > outer[5]:
                problems.append(f"{pid}: {name} leaks out of {outer[3]}")
    return problems


def _exclusive_segments(spans: list, lo: float, hi: float):
    """Yield ``(start, end, layer, waiting)`` own-time pieces.

    A span's own time is its interval minus its direct children's, clipped
    to ``[lo, hi]``; ``layer`` carries the core tag of ``cores.run``.
    """
    children = collections.defaultdict(list)
    for span in spans:
        children[(span[0], span[2])].append(span)
    for tid, sid, _parent, name, start, end, waiting, tag in spans:
        layer = f"{name}.{tag}" if tag else name
        cursor = max(start, lo)
        stop = min(end, hi)
        for child in sorted(children.get((tid, sid), ()),
                            key=lambda span: span[4]):
            if child[4] > cursor:
                yield (cursor, min(child[4], stop), layer, waiting)
            cursor = max(cursor, child[5])
        if stop > cursor:
            yield (cursor, stop, layer, waiting)


def attribute(spans_by_pid: dict, lo: float, hi: float) -> tuple[dict, dict]:
    """Per-layer wall-share and raw own times over ``[lo, hi]``.

    Raw own time is each span minus the child spans it covers, summed per
    layer. Spans of parallel workers overlap in time, so raw times can
    add up to more than the wall. The wall share splits every instant
    equally between the own-time pieces running at that instant; pieces of
    *waiting* spans (a parent blocked on its pool) share only instants in
    which no other piece runs. Wall shares therefore sum to the traced
    time covered by any span, which is at most ``hi - lo``.
    """
    events = []
    raw: collections.Counter = collections.Counter()
    for spans in spans_by_pid.values():
        for start, end, layer, waiting in _exclusive_segments(spans, lo, hi):
            if end <= start:
                continue
            raw[layer] += end - start
            index = len(events) // 2
            events.append((start, 1, index, layer, waiting))
            events.append((end, 0, index, layer, waiting))
    events.sort()
    share: collections.Counter = collections.Counter()
    active: dict = {}
    previous = None
    for when, opening, index, layer, waiting in events:
        if active and previous is not None and when > previous:
            busy = [name for name, wait in active.values() if not wait]
            owners = busy or [name for name, _wait in active.values()]
            piece = (when - previous) / len(owners)
            for name in owners:
                share[name] += piece
        previous = when
        if opening:
            active[index] = (layer, waiting)
        else:
            active.pop(index, None)
    return dict(share), dict(raw)
