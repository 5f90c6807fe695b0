"""Span recording from outside the program.

Nothing under ``src/`` knows about tracing.  :func:`install` replaces
public class methods and the module-level names callers import with thin
wrappers that record one span per call: name, start, end, parent span
and request id.  Spans stay in memory; :meth:`Tracer.summary` folds them
into per-name totals (count, wall ms, self ms) that the parent process
merges across every process of a run.

Process-pool workers inherit the wrappers through ``fork``; each one
rewrites its own summary file after every shard it runs, because pool
workers exit without running ``atexit`` hooks.  Server subprocesses are
started through :mod:`launch`, which installs the same wrappers and
writes the summary when the server shuts down.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import json
import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional

_CURRENT: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_span", default=-1)
_REQUEST: contextvars.ContextVar = contextvars.ContextVar(
    "perfbench_request", default=None)

#: Span names whose per-call durations are kept in call order.
SERIES = ("engine.store.put_many",)
#: Span names whose durations are kept per request id.
BY_REQUEST = ("serve.request", "cluster.router.request")


def layer_of(name: str) -> str:
    """The layer a span name belongs to: its first two dotted parts."""
    return ".".join(name.split(".")[:2])


def _thread_wchar() -> int:
    """Bytes this thread has passed to write-like syscalls so far."""
    with open("/proc/thread-self/io", "rb") as handle:
        for line in handle:
            if line.startswith(b"wchar:"):
                return int(line.split()[1])
    return 0


class Tracer:
    """In-memory span and counter store of one process."""

    def __init__(self, out_dir: str):
        self.out_dir = out_dir
        #: Wrappers record only while this is set (see :meth:`stop`).
        self.enabled = True
        self._reset()

    def _reset(self) -> None:
        self.pid = os.getpid()
        self.spans: List[list] = []
        self.counts: Dict[str, int] = {}
        self.values: Dict[str, List[float]] = {}
        self._lock = threading.Lock()
        _CURRENT.set(-1)

    # -- recording -----------------------------------------------------
    def begin(self, name: str, request: Any = None):
        if request is not None:
            _REQUEST.set(request)
        record = [name, time.perf_counter(), None, _CURRENT.get(),
                  _REQUEST.get()]
        with self._lock:
            self.spans.append(record)
            index = len(self.spans) - 1
        return record, _CURRENT.set(index)

    def end(self, record: list, token) -> None:
        record[2] = time.perf_counter()
        _CURRENT.reset(token)

    def count(self, name: str, amount: int = 1) -> None:
        with self._lock:
            self.counts[name] = self.counts.get(name, 0) + amount

    def value(self, name: str, amount: float) -> None:
        with self._lock:
            self.values.setdefault(name, []).append(amount)

    # -- output --------------------------------------------------------
    def summary(self) -> Dict[str, Any]:
        """Per-name totals; self time excludes direct child spans."""
        with self._lock:
            spans = [list(s) for s in self.spans]
            counts = dict(self.counts)
            values = {k: list(v) for k, v in self.values.items()}
        child_ms = [0.0] * len(spans)
        for span in spans:
            if span[2] is not None and span[3] >= 0:
                child_ms[span[3]] += (span[2] - span[1]) * 1000.0
        names: Dict[str, Dict[str, float]] = {}
        series: Dict[str, List[float]] = {}
        by_request: Dict[str, Dict[str, float]] = {}
        for position, span in enumerate(spans):
            name, start, end = span[0], span[1], span[2]
            if end is None:
                continue
            ms = (end - start) * 1000.0
            entry = names.setdefault(name, {"n": 0, "ms": 0.0, "self_ms": 0.0,
                                            "outer_n": 0, "outer_ms": 0.0})
            entry["n"] += 1
            entry["ms"] += ms
            entry["self_ms"] += ms - child_ms[position]
            parent = spans[span[3]][0] if span[3] >= 0 else ""
            if layer_of(parent) != layer_of(name):
                entry["outer_n"] += 1
                entry["outer_ms"] += ms
            if name in SERIES:
                series.setdefault(name, []).append(ms)
            if name in BY_REQUEST and span[4] is not None:
                by_request.setdefault(name, {})[str(span[4])] = ms
        return {"pid": self.pid, "names": names, "counts": counts,
                "values": values, "series": series,
                "by_request": by_request}

    def stop(self) -> None:
        """Write the summary and stop recording (timing is over)."""
        self.write()
        self.enabled = False

    def write(self) -> None:
        os.makedirs(self.out_dir, exist_ok=True)
        path = os.path.join(self.out_dir, f"trace-{os.getpid()}.json")
        temp = path + ".tmp"
        with open(temp, "w") as handle:
            json.dump(self.summary(), handle)
        os.replace(temp, path)


# ---------------------------------------------------------------------------
# wrappers
# ---------------------------------------------------------------------------

def _wrap(tracer: Tracer, original: Callable, name: str, *,
          request_arg: Optional[int] = None,
          after: Optional[Callable] = None,
          before: Optional[Callable] = None) -> Callable:
    """A span-recording wrapper of the same calling kind as ``original``.

    ``request_arg`` is the positional index of an argument carrying the
    request id; ``before(args)`` returns state handed to
    ``after(args, result, state)`` once the call returns.
    """
    def request_of(args):
        return args[request_arg] if request_arg is not None else None

    if inspect.iscoroutinefunction(original):
        @functools.wraps(original)
        async def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return await original(*args, **kwargs)
            state = before(args) if before else None
            record, token = tracer.begin(name, request_of(args))
            try:
                result = await original(*args, **kwargs)
            finally:
                tracer.end(record, token)
            if after:
                after(args, result, state)
            return result
    elif inspect.isgeneratorfunction(original):
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                yield from original(*args, **kwargs)
                return
            tracer.count(name + ".calls")
            inner = original(*args, **kwargs)
            try:
                while True:
                    record, token = tracer.begin(name)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer.end(record, token)
                    yield item
            finally:
                inner.close()
    else:
        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return original(*args, **kwargs)
            state = before(args) if before else None
            record, token = tracer.begin(name, request_of(args))
            try:
                result = original(*args, **kwargs)
            finally:
                tracer.end(record, token)
            if after:
                after(args, result, state)
            return result
    return wrapper


def _patch(owner: Any, attr: str, tracer: Tracer, name: str, **hooks) -> None:
    original = getattr(owner, attr)
    setattr(owner, attr, _wrap(tracer, original, name, **hooks))


def _count_calls(owner: Any, attr: str, tracer: Tracer, name: str) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        if tracer.enabled:
            tracer.count(name)
        return original(*args, **kwargs)
    setattr(owner, attr, wrapper)


def install(tracer: Tracer) -> None:
    """Wrap every traced entry point of the ``repro`` package."""
    import repro.cluster.router as router
    import repro.core.bicriteria as bicriteria
    import repro.core.binary_approx as binary_approx
    import repro.core.exact as exact
    import repro.core.kway_approx as kway_approx
    import repro.core.maxflow as maxflow
    import repro.core.minflow as minflow
    import repro.engine.async_service as async_service
    import repro.engine.cache as cache
    import repro.engine.core as core
    import repro.engine.portfolio as portfolio
    import repro.engine.registry as registry
    import repro.engine.service as service
    import repro.engine.store as store
    import repro.hardness.verify as verify
    import repro.serve as serve
    from repro.scenarios import spec as scenario_spec

    os.register_at_fork(after_in_child=tracer._reset)

    # scenarios
    _patch(scenario_spec.ScenarioSpec, "materialize", tracer,
           "scenarios.materialize")
    _patch(scenario_spec.ScenarioGrid, "expand", tracer, "scenarios.expand")

    # engine.plan: the planner is imported by name into each caller
    def plan_done(args, plan, _state):
        tracer.count("engine.plan.cells", len(plan.cells))
        tracer.count("engine.plan.done", len(plan.done))
    for owner in (service, async_service, router):
        _patch(owner, "build_sweep_plan", tracer, "engine.plan",
               after=plan_done)

    # engine.store
    cls = store.SolutionStore
    for attr in ("get", "get_many", "get_reports_many", "get_report"):
        _patch(cls, attr, tracer, "engine.store." + attr)

    def put_before(_args):
        return _thread_wchar()

    def put_after(args, _result, wchar_before):
        tracer.value("engine.store.wchar", _thread_wchar() - wchar_before)
        tracer.count("engine.store.put_items", len(args[1]))
    _patch(cls, "put_many", tracer, "engine.store.put_many",
           before=put_before, after=put_after)

    # engine.portfolio: the shard callable is looked up by module name
    # when a shard is built, and pickled by that name for process pools
    _count_calls(portfolio.Portfolio, "spec_shard_task", tracer,
                 "engine.portfolio.shards")
    _count_calls(portfolio.Portfolio, "shard_task", tracer,
                 "engine.portfolio.shards")
    shard_fn = portfolio._solve_spec_shard_task

    @functools.wraps(shard_fn)
    def traced_shard(*args, **kwargs):
        if not tracer.enabled:
            return shard_fn(*args, **kwargs)
        record, token = tracer.begin("engine.portfolio.shard")
        try:
            return shard_fn(*args, **kwargs)
        finally:
            tracer.end(record, token)
            if os.getpid() != tracer.owner_pid:
                tracer.write()
    portfolio._solve_spec_shard_task = traced_shard
    _patch(service, "as_completed", tracer, "engine.portfolio.wait")

    # engine.core, engine.certify and the solver kernels
    _patch(core, "solve", tracer, "engine.core.solve")
    _patch(core, "certify_solution", tracer, "engine.certify")
    lru = core._SOLUTION_CACHE
    lru_get = cache.LRUCache.get

    @functools.wraps(lru_get)
    def traced_lru_get(self, key, *args, **kwargs):
        result = lru_get(self, key, *args, **kwargs)
        if self is lru and tracer.enabled:
            tracer.count("engine.core.lru_lookups")
            if result is not None:
                tracer.count("engine.core.lru_hits")
        return result
    cache.LRUCache.get = traced_lru_get
    for solver in registry._REGISTRY.values():
        object.__setattr__(solver, "run", _wrap(
            tracer, solver.run, "core.kernel." + solver.solver_id))

    # engine.service
    _patch(service.SweepService, "sweep", tracer, "engine.service.sweep")
    _patch(service.SweepService, "_write_manifest", tracer,
           "engine.service.manifest")

    # engine.async_service: queue wait is creation -> shard start
    inflight_init = async_service._Inflight.__init__

    @functools.wraps(inflight_init)
    def stamped_init(self, *args, **kwargs):
        inflight_init(self, *args, **kwargs)
        self.perfbench_created = time.perf_counter()
    async_service._Inflight.__init__ = stamped_init

    def shard_started(args):
        now = time.perf_counter()
        for entry in args[1]:
            created = getattr(entry, "perfbench_created", None)
            if created is not None:
                tracer.value("engine.async_service.wait", (now - created) * 1000.0)
    _patch(async_service.AsyncSweepService, "_run_shard", tracer,
           "engine.async_service.shard", before=shard_started)
    _patch(async_service.AsyncSweepService, "submit_specs", tracer,
           "engine.async_service.submit")
    _patch(async_service, "write_manifest", tracer,
           "engine.async_service.manifest")

    # serve and cluster fronts (request id = the wire id)
    _patch(serve.SweepServer, "_serve_sweep_spec", tracer, "serve.request",
           request_arg=1)
    _patch(router.RouterServer, "_serve_sweep", tracer,
           "cluster.router.request", request_arg=1)

    # core kernels, wrapped at every name their callers import
    _patch(verify, "exact_min_makespan_arcs", tracer, "core.exact.arcs")
    for owner in (exact, minflow, bicriteria, binary_approx, kway_approx):
        _patch(owner, "min_flow_with_lower_bounds", tracer, "core.minflow")
    _count_calls(maxflow.DinicMaxFlow, "add_edge", tracer,
                 "core.maxflow.add_edge")
    _count_calls(maxflow.DinicMaxFlow, "max_flow", tracer,
                 "core.maxflow.max_flow")
    tracer.owner_pid = os.getpid()


def load_summaries(out_dir: str) -> List[Dict[str, Any]]:
    """Every per-process summary written under ``out_dir``."""
    summaries = []
    if not os.path.isdir(out_dir):
        return summaries
    for name in sorted(os.listdir(out_dir)):
        if name.startswith("trace-") and name.endswith(".json"):
            with open(os.path.join(out_dir, name)) as handle:
                summaries.append(json.load(handle))
    return summaries
