"""``serve-open-loop`` and ``cluster-open-loop``: seeded open-loop traffic.

Set-up prewarms half of the universe's Zipf tail into an empty store and
starts the target: one ``repro.serve --executor thread --workers 1``, or
two such runners behind ``repro.cluster --store``.  After an untimed
warm-up at the middle rate, the load generator fires single-cell
``sweep_spec`` lines at three fixed Poisson rates back to back.  Each
request is timed from the moment it was *due*, so a stall in the server
or in the generator shows up in every later request; the generator's own
lateness and the backlog left at the end of each rate are reported
beside the latencies.  Below the knee every answer is on time, so those
rates fix the goodput; the bounded figure comes from the saturating
phase that follows, a closed loop over already-stored cells that keeps
the servers busy: its answers per CPU-second of the server processes,
the serving path's own cost, untouched by how the client and the
servers share the host's CPUs.

After timing stops, the client's counts are reconciled against the
``metrics`` op deltas (including the router's ``planned_local`` answers),
and every answer is checked against an in-process ``solve()``.
"""

from __future__ import annotations

import asyncio
import json
import os
import shutil
import signal
import time
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from common import BenchError, ReferenceClock, Server
from inputs import (SATURATE_CHUNKS, SATURATE_WINDOW, prewarm_ranks,
                    saturation, schedules, universe, warmup)
from repro.cluster.ring import HashRing
from repro.engine.core import SolveLimits, clear_caches, request_key, solve
from repro.engine.fingerprint import spec_alias_key
from repro.engine.store import SolutionStore, report_from_payload
from repro.loadgen.report import percentile
from repro.serve import request_metrics

#: Latency limit (ms) of an on-time answer, and the p99 limit a fixed
#: rate must meet to count as sustained.
SLO_P99_MS = 250.0
#: A rate "keeps up" while at most this many requests are outstanding
#: when its last request is sent.
BACKLOG_LIMIT = 10
CONNECTIONS = 2
SETUPS = 3
REQUEST_TIMEOUT_S = 30.0
PING_INTERVAL_S = 0.05
HOP_PROBES = 100


# ---------------------------------------------------------------------------
# the open-loop load generator
# ---------------------------------------------------------------------------

class _Request:
    __slots__ = ("id", "index", "level", "cell", "due", "sent", "done_at",
                 "lines", "event")

    def __init__(self, prefix: str, index: int, level: int, cell: int,
                 due: float):
        #: Wire id; each drive gets its own prefix, so ids never repeat
        #: within one server's lifetime.
        self.id = f"{prefix}{index}"
        self.index = index
        self.level = level
        self.cell = cell
        self.due = due
        self.sent = 0.0
        self.done_at: Optional[float] = None
        self.lines: List[Dict[str, Any]] = []
        self.event = asyncio.Event()


class _Connection:
    """A JSON-lines connection whose reader routes replies by id."""

    def __init__(self, reader, writer):
        self.reader = reader
        self.writer = writer
        self.pending: Dict[str, _Request] = {}
        self.lost: Optional[str] = None
        self.task = asyncio.create_task(self._read())

    async def _read(self) -> None:
        try:
            while True:
                line = await self.reader.readline()
                now = time.perf_counter()
                if not line:
                    self.lost = "connection closed"
                    break
                reply = json.loads(line)
                request = self.pending.get(reply.get("id"))
                if request is None:
                    continue
                request.lines.append(reply)
                if reply.get("done") or reply.get("rejected") or reply.get(
                        "pong") or (reply.get("error") and "index" not in reply):
                    request.done_at = now
                    self.pending.pop(reply.get("id"), None)
                    request.event.set()
        except (ConnectionError, OSError) as exc:
            self.lost = f"connection lost: {exc}"
        finally:
            for request in self.pending.values():
                request.event.set()

    def send(self, payload: Dict[str, Any]) -> None:
        self.writer.write(json.dumps(payload).encode() + b"\n")

    async def close(self) -> None:
        self.task.cancel()
        try:
            await self.task
        except (asyncio.CancelledError, ConnectionError, OSError):
            pass
        self.writer.close()
        try:
            await self.writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _open(path: str) -> _Connection:
    reader, writer = await asyncio.open_unix_connection(path, limit=1 << 22)
    return _Connection(reader, writer)


async def _call(conn: _Connection, payload: Dict[str, Any]) -> float:
    """Send one request and wait for its terminal line; returns ms."""
    request = _Request("probe-", id(payload), -1, -1, time.perf_counter())
    payload = dict(payload, id=request.id)
    conn.pending[payload["id"]] = request
    request.sent = time.perf_counter()
    conn.send(payload)
    await asyncio.wait_for(request.event.wait(), REQUEST_TIMEOUT_S)
    if request.done_at is None:
        raise BenchError(f"no reply to {payload['op']}: {conn.lost}")
    return (request.done_at - request.sent) * 1000.0


async def _pinger(path: str, stop: asyncio.Event, rtts: List[float]) -> None:
    conn = await _open(path)
    try:
        while not stop.is_set():
            rtts.append(await _call(conn, {"op": "ping"}))
            try:
                await asyncio.wait_for(stop.wait(), PING_INTERVAL_S)
            except asyncio.TimeoutError:
                pass
    finally:
        await conn.close()


def _send(conn: _Connection, request: _Request, payload) -> None:
    conn.pending[request.id] = request
    request.sent = time.perf_counter()
    conn.send({"op": "sweep_spec", "id": request.id, "specs": [payload],
               "method": "auto"})


async def _settle(requests: List[_Request]) -> None:
    """Wait (up to the request timeout) for every outstanding answer."""
    deadline = time.perf_counter() + REQUEST_TIMEOUT_S
    for request in requests:
        remaining = deadline - time.perf_counter()
        if remaining > 0 and not request.event.is_set():
            try:
                await asyncio.wait_for(request.event.wait(), remaining)
            except asyncio.TimeoutError:
                pass


async def drive(path: str, specs, levels, *, prefix: str, ping: bool,
                saturate: Optional[List[int]] = None, cpu_s=None
                ) -> Tuple[List[_Request], Dict[str, Any]]:
    """Replay the levels back to back against the socket at ``path``,
    then, with ``saturate``, run the saturating phase."""
    conns = [await _open(path) for _ in range(CONNECTIONS)]
    payloads = [spec.to_payload() for spec in specs]
    stop = asyncio.Event()
    rtts: List[float] = []
    pinger = asyncio.create_task(_pinger(path, stop, rtts)) if ping else None
    requests: List[_Request] = []
    lags: List[float] = []
    backlog: List[int] = []
    start = time.perf_counter() + 0.05
    offset = 0.0
    try:
        for level_index, level in enumerate(levels):
            for arrival in level.schedule.arrivals:
                request = _Request(prefix, len(requests), level_index,
                                   arrival.cell, start + offset + arrival.time)
                delay = request.due - time.perf_counter()
                if delay > 0:
                    await asyncio.sleep(delay)
                _send(conns[request.index % CONNECTIONS], request,
                      payloads[arrival.cell])
                lags.append((request.sent - request.due) * 1000.0)
                requests.append(request)
            offset += level.schedule.duration()
            backlog.append(sum(len(c.pending) for c in conns))
        await _settle(requests)
        saturated: Dict[str, Any] = {}
        if saturate is not None:
            more, saturated = await _saturate(conns, payloads, saturate,
                                              prefix, len(requests),
                                              len(levels), cpu_s)
            requests += more
        wall_s = time.perf_counter() - start
    finally:
        stop.set()
        if pinger is not None:
            await pinger
        for conn in conns:
            await conn.close()
    return requests, {"lags": lags, "backlog": backlog, "rtts": rtts,
                      "wall_s": wall_s, "saturated": saturated}


async def _saturate(conns: List[_Connection], payloads, cells: List[int],
                    prefix: str, first: int, level_index: int, cpu_s
                    ) -> Tuple[List[_Request], Dict[str, Any]]:
    """Closed loop: ``SATURATE_WINDOW`` requests outstanding until every
    entry of ``cells`` has been asked for once.

    The cells go in ``SATURATE_CHUNKS`` chunks; between two chunks the
    servers are idle while the host's speed is probed, and each chunk's
    wall and server CPU seconds are scaled with its own probes."""
    requests: List[_Request] = []
    clock = ReferenceClock()
    times: Dict[str, Any] = {"rates": [], "cpu_rates": [], "wall_s": 0.0,
                             "cpu_s": 0.0}

    async def client(slot: int, end: int) -> None:
        conn = conns[slot % CONNECTIONS]
        while len(requests) < end:
            cell = cells[len(requests)]
            request = _Request(prefix, first + len(requests), level_index,
                               cell, time.perf_counter())
            requests.append(request)
            _send(conn, request, payloads[cell])
            try:
                await asyncio.wait_for(request.event.wait(),
                                       REQUEST_TIMEOUT_S)
            except asyncio.TimeoutError:
                return

    for chunk in range(1, SATURATE_CHUNKS + 1):
        start = time.perf_counter()
        cpu = cpu_s()
        begin = len(requests)
        end = len(cells) * chunk // SATURATE_CHUNKS
        await asyncio.gather(*(client(slot, end)
                               for slot in range(SATURATE_WINDOW)))
        wall = time.perf_counter() - start
        cpu = cpu_s() - cpu
        factor = clock.scale()
        answered = sum(1 for r in requests[begin:] if _ok(r))
        times["rates"].append(answered / (wall * factor))
        times["cpu_rates"].append(answered / (cpu * factor))
        times["wall_s"] += wall
        times["cpu_s"] += cpu
    times["host_speed"] = clock.speed()
    await _settle(requests)
    return requests, times


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

class Target:
    """The running server(s) of one set-up."""

    def __init__(self, workdir: str, cluster: bool, index: int,
                 trace_dir: Optional[str], tag: str):
        self.store_dir = os.path.join(workdir, f"store-{index}")
        self.runners: List[Tuple[str, Server]] = []
        self.router: Optional[Server] = None
        self.address: Optional[str] = None
        self.cluster = cluster
        self.workdir = workdir
        self.index = index
        self.trace_dir = trace_dir
        #: Socket names are relative to the shared working directory, so
        #: the traced run's sockets get their own prefix.
        self.tag = tag

    def start(self) -> None:
        serve_args = ["--store", self.store_dir, "--executor", "thread",
                      "--workers", "1"]
        count = 2 if self.cluster else 1
        for runner in range(count):
            sock = f"{self.tag}s{self.index}-{runner}.sock"
            args = serve_args + ["--unix", sock]
            if self.cluster:
                args += ["--runner-id", f"runner-{runner}"]
            self.runners.append((sock, Server(
                self.workdir, "serve", args, trace_dir=self.trace_dir,
                log_name=f"runner-{self.index}-{runner}")))
        for sock, server in self.runners:
            server.wait_for_socket(sock)
        if self.cluster:
            sock = f"{self.tag}r{self.index}.sock"
            args = ["--store", self.store_dir, "--unix", sock]
            for runner_sock, _server in self.runners:
                args += ["--runner", f"unix:{runner_sock}"]
            self.router = Server(self.workdir, "cluster", args,
                                 trace_dir=self.trace_dir,
                                 log_name=f"router-{self.index}")
            self.router.wait_for_socket(sock)
            self.address = sock
        else:
            self.address = self.runners[0][0]

    def record(self, on: bool) -> None:
        """Start or stop span recording in every traced server (see
        :mod:`launch`), then ping each so the switch has taken effect
        before the next request."""
        for server in self.servers():
            server.process.send_signal(signal.SIGUSR1 if on
                                       else signal.SIGUSR2)
        for sock in [sock for sock, _server in self.runners] + (
                [self.address] if self.router else []):
            asyncio.run(_first_ping(sock))

    def servers(self) -> List[Server]:
        return [s for _sock, s in self.runners] + (
            [self.router] if self.router else [])

    def peak_rss_mb(self) -> float:
        return max(s.peak_rss_mb() for s in self.servers())

    def cpu_s(self) -> float:
        return sum(s.cpu_s() for s in self.servers())

    def stop(self) -> None:
        # Router first: it must not fail over while the runners go away.
        for server in reversed(self.servers()):
            server.stop()
        for sock in [sock for sock, _server in self.runners] + [self.address]:
            if sock and os.path.exists(sock):
                os.remove(sock)


def _prewarm(store_dir: str, entries) -> None:
    """Write results and spec aliases the way the sweep services do."""
    store = SolutionStore(store_dir)
    store.put_reports([(key, report) for _alias, key, report in entries])
    store.put_many([(alias, {"alias_of": key})
                    for alias, key, _report in entries])


def _setup(workdir: str, cluster: bool, index: int, entries,
           trace_dir: Optional[str], tag: str) -> Tuple[Target, float]:
    start = time.perf_counter()
    target = Target(workdir, cluster, index, trace_dir, tag)
    try:
        _prewarm(target.store_dir, entries)
        target.start()
        asyncio.run(_first_ping(target.address))
    except BaseException:
        target.stop()
        raise
    return target, time.perf_counter() - start


async def _first_ping(path: str) -> None:
    conn = await _open(path)
    try:
        await _call(conn, {"op": "ping"})
    finally:
        await conn.close()


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def _delta(before: Dict[str, Any], after: Dict[str, Any], section: str,
           name: str) -> int:
    return int((after.get(section) or {}).get(name, 0)) - int(
        (before.get(section) or {}).get(name, 0))


def _reconcile(requests: List[_Request], before, after,
               cluster: bool) -> Tuple[List[str], Dict[str, int]]:
    problems: List[str] = []
    accepted = sum(1 for r in requests
                   if any("index" in line for line in r.lines))
    rejected = sum(1 for r in requests
                   if any(line.get("rejected") for line in r.lines))
    local = sum(1 for r in requests for line in r.lines
                if "index" in line and cluster and line.get("runner") is None)
    d = {name: _delta(before, after, "service", name)
         for name in ("requests", "deduped", "store_hits", "computed",
                      "failed", "cancelled")}
    d["planned_local"] = _delta(before, after, "router", "planned_local")
    d["router_requests"] = _delta(before, after, "router", "requests")
    d["router_cells"] = _delta(before, after, "router", "cells")
    d["reroutes"] = _delta(before, after, "router", "reroutes")
    d["rejections"] = _delta(before, after, "server", "rejections")
    d["lock_waits"] = _delta(before, after, "store", "lock_waits")
    tiers = sum(d[n] for n in ("deduped", "store_hits", "computed", "failed",
                               "cancelled"))
    if tiers != d["requests"]:
        problems.append(f"service tiers sum to {tiers}, requests delta is "
                        f"{d['requests']}")
    if cluster:
        if d["planned_local"] != local:
            problems.append(f"router answered {d['planned_local']} cells "
                            f"locally, the client saw {local}")
        if d["router_requests"] != accepted:
            problems.append(f"router served {d['router_requests']} sweeps, "
                            f"the client accounts for {accepted}")
    if d["requests"] != accepted - local:
        problems.append(f"runners accepted {d['requests']} cells, the client "
                        f"accounts for {accepted - local} routed cells")
    if d["rejections"] != rejected:
        problems.append(f"server counted {d['rejections']} rejections, the "
                        f"client saw {rejected}")
    return problems, d


def _check_answers(requests: List[_Request], specs) -> List[str]:
    """Each answer against an in-process ``solve()`` of its cell."""
    clear_caches()
    failures: List[str] = []
    references: Dict[int, Tuple[str, float, float]] = {}
    for request in requests:
        slots = [line for line in request.lines if "index" in line]
        done = [line for line in request.lines if line.get("done")]
        if len(slots) != 1 or len(done) != 1 or done[0].get("count") != 1:
            failures.append(f"request {request.index}: "
                            f"{request.lines[-1:] or 'no reply'}")
            continue
        slot = slots[0]
        if slot.get("report") is None:
            failures.append(f"request {request.index}: {slot.get('error')}")
            continue
        if request.cell not in references:
            problem = specs[request.cell].materialize()
            report = solve(problem)
            references[request.cell] = (request_key(problem), report.makespan,
                                        report.budget_used)
        got = report_from_payload(slot["report"])
        answer = (slot.get("key"), got.makespan, got.budget_used)
        if answer != references[request.cell]:
            failures.append(f"request {request.index} (cell {request.cell}): "
                            f"got {answer}, solve() gives "
                            f"{references[request.cell]}")
    return failures


# ---------------------------------------------------------------------------
# the workload
# ---------------------------------------------------------------------------

def _prewarm_entries(specs) -> List[Tuple[str, str, Any]]:
    entries = []
    limits = SolveLimits()
    for rank in prewarm_ranks():
        problem = specs[rank].materialize()
        entries.append((spec_alias_key(specs[rank], "auto", limits=limits),
                        request_key(problem), solve(problem, use_cache=False)))
    clear_caches()
    return entries


async def _hop_probes(target: Target, specs, cells: List[int]
                      ) -> Tuple[float, float]:
    """Median ms of the same warm cells via the router and direct."""
    names = [f"unix:{sock}" for sock, _server in target.runners]
    ring = HashRing(names)
    router = await _open(target.address)
    direct = {name: await _open(sock)
              for name, (sock, _server) in zip(names, target.runners)}
    via_router: List[float] = []
    via_runner: List[float] = []
    try:
        for cell in cells:
            payload = {"op": "sweep_spec", "specs": [specs[cell].to_payload()],
                       "method": "auto"}
            via_router.append(await _call(router, payload))
            owner = ring.route(specs[cell].cell_digest())
            via_runner.append(await _call(direct[owner], payload))
    finally:
        await router.close()
        for conn in direct.values():
            await conn.close()
    return median(via_router), median(via_runner)


def run(seed: int, seconds: float, workdir: str, *, cluster: bool,
        trace_dir: Optional[str] = None) -> Dict[str, Any]:
    specs = universe(seed)
    levels = schedules(seed, seconds)
    entries = _prewarm_entries(specs)
    setups: List[float] = []
    raw_setups: List[float] = []
    target: Optional[Target] = None
    peak_rss = 0.0
    hop = None
    clock = ReferenceClock()
    try:
        for index in range(SETUPS):
            last = index == SETUPS - 1
            target, setup_s = _setup(workdir, cluster, index, entries,
                                     trace_dir if last else None,
                                     "t" if trace_dir else "")
            raw_setups.append(setup_s)
            setups.append(setup_s * clock.scale())
            if not last:
                peak_rss = max(peak_rss, target.peak_rss_mb())
                target.stop()
                shutil.rmtree(target.store_dir, ignore_errors=True)
        warm, _extra = asyncio.run(drive(target.address, specs,
                                         [warmup(seed)], prefix="w",
                                         ping=False))
        if trace_dir is not None:
            target.record(True)
        before = asyncio.run(request_metrics(unix_socket=target.address))
        requests, extra = asyncio.run(drive(
            target.address, specs, levels, prefix="r",
            ping=trace_dir is not None, saturate=saturation(seed, seconds),
            cpu_s=target.cpu_s))
        after = asyncio.run(request_metrics(unix_socket=target.address))
        if trace_dir is not None:
            target.record(False)
            if cluster:
                hot = sorted({r.cell for r in requests})[:HOP_PROBES]
                hop = asyncio.run(_hop_probes(target, specs, hot))
        peak_rss = max(peak_rss, target.peak_rss_mb())
    finally:
        if target is not None:
            target.stop()
    problems, deltas = _reconcile(requests, before, after, cluster)
    failures = problems + _check_answers(warm + requests, specs)
    # Memory of the program under test: the server processes, not this
    # client, which also holds every answer for the checks.
    summary = _summarize(requests, levels, extra, setups, failures, deltas,
                         peak_rss, hop)
    summary["details"]["wall_setup_s"] = (median(raw_setups), "s",
                                          len(raw_setups))
    summary["attempted"] += len(warm)
    return summary


def _ok(request: _Request) -> bool:
    return request.done_at is not None and any(
        line.get("report") is not None for line in request.lines)


def _summarize(requests, levels, extra, setups, failures, deltas, peak_rss,
               hop) -> Dict[str, Any]:
    rated = [r for r in requests if r.level < len(levels)]
    saturated = [r for r in requests if r.level == len(levels)]
    latencies = [(r.done_at - r.due) * 1000.0 for r in rated if _ok(r)]
    details: Dict[str, Any] = {}
    met = []
    for index, level in enumerate(levels):
        mine = [r for r in rated if r.level == index]
        level_ms = [(r.done_at - r.due) * 1000.0 if _ok(r) else float("inf")
                    for r in mine]
        p50 = percentile(level_ms, 50.0)
        p99 = percentile(level_ms, 99.0)
        details[f"latency_p50_ms.{level.name}"] = (p50, "ms", len(mine))
        details[f"latency_p99_ms.{level.name}"] = (p99, "ms", len(mine))
        details[f"backlog_end.{level.name}"] = (extra["backlog"][index],
                                                "count", 1)
        if p99 <= SLO_P99_MS and extra["backlog"][index] <= BACKLOG_LIMIT:
            met.append(level.name)
    # Goodput: answers within the SLO per second of the fixed-rate window;
    # a failed or late request counts as a miss.  Below the knee every
    # answer is on time, so on a correct run this is the offered load.
    on_time = [r for r in rated
               if _ok(r) and (r.done_at - r.due) * 1000.0 <= SLO_P99_MS]
    span = max(r.done_at for r in on_time) - min(r.due for r in rated)
    details["goodput_rps"] = (len(on_time) / span, "1/s", len(rated))
    details["rates_meeting_slo"] = (",".join(met) or "none", "names", 1)
    answered = sum(1 for r in saturated if _ok(r))
    times = extra["saturated"]
    # Wall rate, median chunk: it also waits on the client and on thread
    # wakeups, so it is printed, not bounded.
    details["answers_per_s"] = (median(times["rates"]), "1/s",
                                len(saturated))
    details["wall_answers_per_s"] = (answered / times["wall_s"], "1/s",
                                     len(saturated))
    details["wall_answers_per_cpu_s"] = (answered / times["cpu_s"],
                                         "1/cpu_s", len(saturated))
    details["host_speed"] = (times["host_speed"], "ratio",
                             SATURATE_CHUNKS + 1)
    details["sources"] = (json.dumps(_sources(requests)), "count", 1)
    details["reconciled_counts"] = (json.dumps(deltas), "count", 1)
    return {
        "attempted": len(requests),
        "failures": failures,
        "metrics": {
            "setup_s": median(setups),
            # The median chunk: a chunk that a stall of the host slowed
            # down (by up to 2x on a shared VM) counts once.
            "answers_per_cpu_s": median(times["cpu_rates"]),
            "answer_p50_ms": median(latencies),
            "answer_p99_ms": percentile(latencies, 99.0),
            "peak_rss_mb": peak_rss,
        },
        "details": details,
        "layer_inputs": {
            "cells": len(requests),
            "lags": extra["lags"],
            "backlog_end": extra["backlog"][-1],
            "rtts": extra["rtts"],
            "wall_s": extra["wall_s"],
            "client_ms": {r.id: (r.done_at - r.sent) * 1000.0
                          for r in requests if _ok(r)},
            "deltas": deltas,
            "hop": hop,
        },
    }


def _sources(requests: List[_Request]) -> Dict[str, int]:
    counts: Dict[str, int] = {}
    for request in requests:
        for line in request.lines:
            if "index" in line:
                source = str(line.get("source"))
                counts[source] = counts.get(source, 0) + 1
    return counts
