"""Per-layer metrics of a traced run.

Folds the span summaries of every process of the run (the benchmark
itself, pool workers, server subprocesses) and the load generator's own
measurements into the per-layer metrics that ``BENCHMARK.json`` lists.
A layer the workload never enters reports 0.
"""

from __future__ import annotations

from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from repro.loadgen.report import percentile

#: Solvers whose kernel time is reported (the ones ``method="auto"`` and
#: the oracle's ``exact-enumeration`` pick on these workloads).
KERNELS = ("series-parallel-dp", "exact-enumeration")

#: Span name prefixes whose self time belongs to each synchronous layer.
#: Coroutine spans (``serve``, ``cluster``, ``engine.async_service``)
#: include the time their task is suspended, so their layers are
#: measured by the load generator instead (``serve.self_ms``, ``cluster.hop_ms``).
SELF_LAYERS = (
    ("scenarios", ("scenarios.",)),
    ("engine.plan", ("engine.plan",)),
    ("engine.store", ("engine.store.",)),
    ("engine.portfolio", ("engine.portfolio.shard",)),
    ("engine.core", ("engine.core.",)),
    ("engine.certify", ("engine.certify",)),
    ("engine.service", ("engine.service.",)),
    ("core", ("core.",)),
)


class _Merged:
    """Span totals summed over processes."""

    def __init__(self, summaries: List[Dict[str, Any]]):
        self.names: Dict[str, Dict[str, float]] = {}
        self.counts: Dict[str, int] = {}
        self.values: Dict[str, List[float]] = {}
        self.series: List[List[float]] = []
        self.by_request: Dict[str, Dict[str, float]] = {}
        for summary in summaries:
            for name, entry in summary["names"].items():
                total = self.names.setdefault(name, dict.fromkeys(entry, 0))
                for key in total:
                    total[key] += entry[key]
            for name, amount in summary["counts"].items():
                self.counts[name] = self.counts.get(name, 0) + amount
            for name, items in summary["values"].items():
                self.values.setdefault(name, []).extend(items)
            series = summary["series"].get("engine.store.put_many")
            if series:
                self.series.append(series)
            for name, items in summary["by_request"].items():
                self.by_request.setdefault(name, {}).update(items)

    def total(self, field: str, *names: str) -> float:
        return sum(self.names.get(name, {}).get(field, 0) for name in names)

    def n(self, *names: str) -> int:
        return int(self.total("n", *names))

    def ms(self, *names: str) -> float:
        return self.total("ms", *names)

    def mean_ms(self, *names: str) -> float:
        count = self.n(*names)
        return self.ms(*names) / count if count else 0.0

    def self_ms(self, prefixes: Tuple[str, ...]) -> float:
        return sum(entry["self_ms"] for name, entry in self.names.items()
                   if name.startswith(prefixes))


def _growth(series: List[List[float]]) -> float:
    """Last-decile mean put time over first-decile, per process; median."""
    ratios = []
    for items in series:
        tenth = len(items) // 10
        if tenth >= 1:
            first = sum(items[:tenth]) / tenth
            last = sum(items[-tenth:]) / tenth
            if first > 0:
                ratios.append(last / first)
    return median(ratios) if ratios else 0.0


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def compute(summaries: List[Dict[str, Any]], inputs: Dict[str, Any],
            untraced: Dict[str, float], traced: Dict[str, float]
            ) -> Dict[str, float]:
    m = _Merged(summaries)
    cells = inputs.get("cells", 0) or 1
    deltas = inputs.get("deltas") or {}
    out: Dict[str, float] = {}
    out["scenarios.materialize_ms"] = m.mean_ms("scenarios.materialize")
    expand_calls = m.counts.get("scenarios.expand.calls", 0)
    out["scenarios.expand_ms"] = _share(m.ms("scenarios.expand"), expand_calls)
    planned = m.counts.get("engine.plan.cells", 0)
    out["engine.plan.ms_per_cell"] = _share(m.ms("engine.plan"), planned)
    out["engine.plan.done_share"] = _share(m.counts.get("engine.plan.done", 0),
                                           planned)
    puts = m.n("engine.store.put_many")
    out["engine.store.put_ms"] = _share(
        m.total("outer_ms", "engine.store.put_many"),
        m.total("outer_n", "engine.store.put_many"))
    out["engine.store.put_growth"] = _growth(m.series)
    out["engine.store.wchar_per_put"] = _share(
        sum(m.values.get("engine.store.wchar", [])), puts)
    reads = ("engine.store.get", "engine.store.get_many",
             "engine.store.get_reports_many", "engine.store.get_report")
    out["engine.store.get_ms"] = _share(m.total("outer_ms", *reads),
                                        m.total("outer_n", *reads))
    out["engine.store.lock_waits"] = float(
        inputs.get("lock_waits", deltas.get("lock_waits", 0)))
    out["engine.portfolio.shards"] = float(
        m.counts.get("engine.portfolio.shards", 0))
    out["engine.portfolio.shard_ms"] = m.mean_ms("engine.portfolio.shard")
    busy_wall = inputs.get("shard_wall_ms") or inputs.get("wall_s", 0) * 1000.0
    workers = inputs.get("workers", 1)
    shard_ms = m.ms("engine.portfolio.shard")
    out["engine.portfolio.idle_share"] = (
        max(0.0, 1.0 - shard_ms / (workers * busy_wall))
        if shard_ms and busy_wall else 0.0)
    out["engine.core.solve_ms"] = m.mean_ms("engine.core.solve")
    out["engine.core.lru_hit_share"] = _share(
        m.counts.get("engine.core.lru_hits", 0),
        m.counts.get("engine.core.lru_lookups", 0))
    out["engine.certify.ms"] = m.mean_ms("engine.certify")
    out["engine.service.self_ms_per_cell"] = _share(
        m.self_ms(("engine.service.sweep",)), cells)
    out["engine.service.manifest_ms"] = m.mean_ms("engine.service.manifest")
    submits = m.n("engine.async_service.submit")
    out["engine.async_service.self_ms"] = _share(
        m.self_ms(("engine.async_service.submit",)), submits)
    waits = m.values.get("engine.async_service.wait", [])
    out["engine.async_service.dedup_share"] = _share(
        deltas.get("deduped", 0), deltas.get("requests", 0))
    out["engine.async_service.wait_ms"] = (sum(waits) / len(waits)
                                           if waits else 0.0)
    rtts = inputs.get("rtts") or []
    out["serve.ping_rtt_ms"] = median(rtts) if rtts else 0.0
    out["serve.self_ms"] = _front_self_ms(m, inputs.get("client_ms") or {})
    hop = inputs.get("hop")
    out["cluster.hop_ms"] = hop[0] - hop[1] if hop else 0.0
    out["cluster.planned_local_share"] = _share(
        deltas.get("planned_local", 0),
        deltas.get("planned_local", 0) + deltas.get("router_cells", 0))
    out["cluster.reroutes"] = float(deltas.get("reroutes", 0))
    out["core.exact.arcs_ms"] = m.mean_ms("core.exact.arcs")
    out["core.minflow.calls"] = float(m.n("core.minflow"))
    out["core.minflow.ms_per_call"] = m.mean_ms("core.minflow")
    out["core.maxflow.add_edge_calls"] = float(
        m.counts.get("core.maxflow.add_edge", 0))
    out["core.maxflow.max_flow_calls"] = float(
        m.counts.get("core.maxflow.max_flow", 0))
    for kernel in KERNELS:
        out[f"core.kernel_ms.{kernel}"] = m.mean_ms("core.kernel." + kernel)
    lags = inputs.get("lags") or []
    out["loadgen.gen_lag_p99_ms"] = percentile(lags, 99.0) if lags else 0.0
    out["loadgen.backlog_end"] = float(inputs.get("backlog_end", 0))
    for layer, prefixes in SELF_LAYERS:
        out[f"self_ms.{layer}"] = m.self_ms(prefixes) / cells
    # Both runs make the same passes (closed loops) or the same seeded
    # saturating phase (online), so their reference CPU ms per answer
    # compare like for like.
    base = 1000.0 / untraced["answers_per_cpu_s"]
    with_trace = 1000.0 / traced["answers_per_cpu_s"]
    out["trace.overhead_ms"] = with_trace - base
    out["trace.overhead_share"] = _share(with_trace - base, base)
    return out


def _front_self_ms(m: _Merged, client_ms: Dict[str, float]) -> float:
    """Median of client latency minus the front's own request span."""
    spans: Optional[Dict[str, float]] = (m.by_request.get("cluster.router.request")
                                         or m.by_request.get("serve.request"))
    if not spans:
        return 0.0
    gaps = [client_ms[rid] - spans[rid] for rid in client_ms if rid in spans]
    return median(gaps) if gaps else 0.0
