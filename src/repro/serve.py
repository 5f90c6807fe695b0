"""``python -m repro.serve`` -- a JSON-lines network front for the engine.

A deliberately small, stdlib-only server exposing
:class:`~repro.engine.async_service.AsyncSweepService` over TCP or a unix
socket.  The protocol is newline-delimited JSON, one object per line:

Requests (client -> server)::

    {"op": "sweep", "id": "r1", "scenarios": [<problem payload>, ...],
     "method": "auto", "options": {"alpha": 0.5}}
    {"op": "sweep_spec", "id": "r4", "grid": {<grid payload>},
     "method": "auto"}                          # or "specs": [<spec>, ...]
    {"op": "stats", "id": "r2"}
    {"op": "metrics", "id": "r5"}
    {"op": "ping", "id": "r3"}

Responses (server -> client) -- a ``sweep`` streams one line per scenario
*as each result resolves* (store hits first, computed ones as their shards
finish), then a terminating ``done`` line::

    {"id": "r1", "index": 0, "key": "...", "source": "computed",
     "error": null, "report": {...}}                       # per scenario
    {"id": "r1", "done": true, "count": 3}                 # terminator
    {"id": "r2", "stats": {...}}                           # stats reply
    {"id": "r5", "metrics": {...}}                         # counter snapshot
    {"id": "r3", "pong": true}                             # ping reply
    {"id": "r1", "error": "..."}                           # request error
    {"id": "r1", "rejected": true, "error": "..."}         # admission reject

Protocol faults never tear a connection down: a malformed JSON line, a
non-object line, an unknown ``op`` or a line longer than the server's
``max_line_bytes`` each get a structured ``{"error": ...}`` response (with
``"id": null`` when no id could be parsed) and the connection keeps
serving -- the fault is counted in the server's ``protocol_errors``.  The
``metrics`` op returns the full counter snapshot
(:meth:`~repro.engine.async_service.AsyncSweepService.snapshot` plus the
server's own wire-level counters under ``"server"``); the load harness in
:mod:`repro.loadgen` polls it before and after a run and reconciles the
deltas against its client-side accounting.  With ``admission_limit`` set,
a sweep arriving while that many unique requests are already queued or in
flight is answered immediately with a ``rejected`` line instead of
blocking at the backpressure point -- the overload story for open-loop
traffic (see ``docs/serving.md``).  The cluster router
(:class:`~repro.cluster.router.RouterServer`, ``python -m repro.cluster``)
subclasses this module's wire layer, so the protocol-fault handling
above holds on its socket too; every client in the package connects
through :func:`connect`.

A *problem payload* mirrors the engine's content model (see
:func:`problem_to_payload`)::

    {"objective": "min_makespan", "parameter": 2.0,
     "jobs": [["s", [[0, 4], [2, 1]]], ["t", [[0, 0]]]],
     "edges": [["s", "t"]]}

``jobs`` pairs a (string) job name with its canonical resource-time
breakpoints; every duration family serialises through its ``tuples()``
view, and decoding rebuilds an equivalent
:class:`~repro.core.duration.GeneralStepDuration` -- equal breakpoints hash
to the same :func:`~repro.engine.fingerprint.dag_fingerprint`, so wire
clients share cache entries with in-process callers.  Reports on the wire
use the same stable encoding as the persistent store
(:func:`~repro.engine.store.report_to_payload`).

``sweep_spec`` is the **spec-native** request: instead of materialized
problem payloads the client ships a declarative
:class:`~repro.scenarios.spec.ScenarioGrid` (or a list of
:class:`~repro.scenarios.spec.ScenarioSpec` payloads) -- a few hundred
bytes however many cells it expands to.  The server expands the grid,
deduplicates and answers store-hit cells *before any DAG exists*, and
materializes the rest lazily inside worker shards
(:meth:`~repro.engine.async_service.AsyncSweepService.submit_specs`).
Each per-cell response line carries the cell's true request fingerprint --
the same key a ``sweep`` over the materialized problems would report, so
the two paths are interchangeable and share every cache tier.

Run it::

    python -m repro.serve --port 7341 --store var/solutions
    python -m repro.serve --unix /tmp/repro.sock --executor thread

and talk to it from anything that can write a line of JSON to a socket
(``examples/async_service_tour.py`` shows the asyncio client helper
:func:`request_sweep`; ``benchmarks/bench_async_service.py`` measures the
stack under concurrent clients).
"""

from __future__ import annotations

import argparse
import asyncio
import json
import socket
import sys
from dataclasses import dataclass
from typing import (Any, Awaitable, Callable, Dict, List, Optional, Sequence,
                    Tuple, TypeVar, Union)

from repro.core.dag import TradeoffDAG
from repro.core.duration import ConstantDuration, GeneralStepDuration
from repro.core.problem import MinMakespanProblem, MinResourceProblem
from repro.engine.async_service import AsyncSweepService
from repro.engine.core import Problem, SolveLimits
from repro.engine.portfolio import Portfolio
from repro.engine.store import report_to_payload
from repro.scenarios import ScenarioGrid, ScenarioSpec
from repro.utils.validation import ValidationError, require

__all__ = [
    "PROTOCOL_VERSION",
    "problem_to_payload",
    "problem_from_payload",
    "ServerStats",
    "SweepServer",
    "request_sweep",
    "request_sweep_spec",
    "request_metrics",
    "request_warm_cache",
    "CLIENT_LINE_LIMIT",
    "connect",
    "send_line",
    "request_reply",
    "stream_request",
    "close_writer",
    "main",
]

#: Version of the wire protocol; echoed in every ``done`` line.
PROTOCOL_VERSION = 1

#: Read granularity of the bounded line reader (bytes per ``read`` call).
_READ_CHUNK = 65536

MIN_MAKESPAN_WIRE = "min_makespan"
MIN_RESOURCE_WIRE = "min_resource"


def _wire_number(value: Any) -> Union[int, float]:
    """Validate a wire number, preserving its exact type (int stays int)."""
    require(isinstance(value, (int, float)) and not isinstance(value, bool),
            f"expected a number, got {value!r}")
    return value


# ---------------------------------------------------------------------------
# problem wire codec
# ---------------------------------------------------------------------------

def problem_to_payload(problem: Problem) -> Dict[str, Any]:
    """Encode a problem as the wire's JSON-safe dict.

    Wire problems are restricted to string job names (the network client
    chooses its own names; anything hashable-but-exotic stays in-process).
    Duration functions serialise as their canonical breakpoints.  Numeric
    types are preserved exactly (JSON keeps ``2`` and ``2.0`` distinct),
    because the engine's content fingerprints hash breakpoint ``repr``s --
    coercing to float would silently split the cache key space between
    wire clients and in-process callers.
    """
    problem = _normalize(problem)
    dag = problem.dag
    jobs = []
    for job in dag.jobs:
        require(isinstance(job, str),
                f"wire problems need string job names, got {job!r}")
        jobs.append([job, [[_wire_number(r), _wire_number(t)]
                           for r, t in dag.duration_function(job).tuples()]])
    if isinstance(problem, MinMakespanProblem):
        objective, parameter = MIN_MAKESPAN_WIRE, problem.budget
    else:
        objective, parameter = MIN_RESOURCE_WIRE, problem.target_makespan
    return {
        "objective": objective,
        "parameter": _wire_number(parameter),
        "jobs": jobs,
        "edges": [[u, v] for u, v in dag.edges],
    }


def problem_from_payload(payload: Dict[str, Any]) -> Problem:
    """Inverse of :func:`problem_to_payload` (raises ``ValidationError``)."""
    require(isinstance(payload, dict), "problem payload must be an object")
    objective = payload.get("objective")
    require(objective in (MIN_MAKESPAN_WIRE, MIN_RESOURCE_WIRE),
            f"unknown objective {objective!r}")
    parameter = payload.get("parameter")
    require(isinstance(parameter, (int, float)),
            "problem payload needs a numeric 'parameter'")
    jobs = payload.get("jobs")
    require(isinstance(jobs, list) and jobs,
            "problem payload needs a non-empty 'jobs' list")
    dag = TradeoffDAG()
    for item in jobs:
        require(isinstance(item, (list, tuple)) and len(item) == 2,
                "each job must be a [name, tuples] pair")
        name, tuples = item
        require(isinstance(name, str), f"job names must be strings, got {name!r}")
        require(isinstance(tuples, list) and tuples,
                f"job {name!r} needs a non-empty breakpoint list")
        points = [(_wire_number(r), _wire_number(t)) for r, t in tuples]
        if len(points) == 1 and points[0][0] == 0:
            dag.add_job(name, ConstantDuration(points[0][1]))
        else:
            dag.add_job(name, GeneralStepDuration(points))
    for edge in payload.get("edges", []):
        require(isinstance(edge, (list, tuple)) and len(edge) == 2,
                "each edge must be a [u, v] pair")
        dag.add_edge(edge[0], edge[1])
    dag.validate()
    if objective == MIN_MAKESPAN_WIRE:
        return MinMakespanProblem(dag, _wire_number(parameter))
    return MinResourceProblem(dag, _wire_number(parameter))


def _normalize(problem: Problem) -> Problem:
    require(isinstance(problem, (MinMakespanProblem, MinResourceProblem)),
            f"unsupported problem type {type(problem).__name__}")
    return problem


# ---------------------------------------------------------------------------
# the wire layer both server fronts share
# ---------------------------------------------------------------------------

@dataclass
class ServerStats:
    """Wire-level counters of one server front's lifetime.

    These sit *in front* of whatever the front serves (a runner's
    :class:`~repro.engine.async_service.AsyncSweepStats`, a router's
    :class:`~repro.cluster.router.ClusterStats`): everything that never
    gets past the wire (protocol faults, admission rejections, dropped
    slow readers) is only visible here.  Exported by the ``stats`` op
    under ``"server"`` on both fronts, and by a runner's ``metrics`` op.
    """

    #: Client connections accepted.
    connections: int = 0
    #: Request lines parsed well enough to dispatch an op.
    requests: int = 0
    #: Wire-protocol faults answered with a structured error line
    #: (malformed JSON, non-object line, unknown op, oversized line).
    protocol_errors: int = 0
    #: The subset of ``protocol_errors`` caused by lines longer than
    #: ``max_line_bytes`` (their bytes are discarded, never parsed).
    oversized_lines: int = 0
    #: Sweeps refused at the admission limit (``rejected`` lines sent).
    rejections: int = 0
    #: Connections aborted because the client stalled reading past
    #: ``drain_timeout`` while the server had responses to flush.
    slow_reader_drops: int = 0


_ServerT = TypeVar("_ServerT", bound="_LineServer")

#: ``send(obj)``: write one response line on a connection.
Send = Callable[[Dict[str, Any]], Awaitable[None]]


class _LineServer:
    """The hardened JSON-lines front every server in the package reuses.

    Owns everything about the wire and nothing about any op: the
    listener lifecycle, the bounded line reader, the per-connection
    ``send`` (write lock, ``drain_timeout``, slow-reader drop), the line
    loop with its structured protocol-fault answers, :class:`ServerStats`
    and the unknown-op reply.  A front implements :meth:`_dispatch` --
    its op handlers -- and nothing else.  The parameters are documented
    on :class:`SweepServer`.
    """

    def __init__(self, *, host: str = "127.0.0.1", port: int = 0,
                 unix_socket: Optional[str] = None,
                 max_line_bytes: int = 1 << 20,
                 drain_timeout: Optional[float] = None,
                 write_buffer_limit: Optional[int] = None,
                 socket_sndbuf: Optional[int] = None):
        require(max_line_bytes > 0, "max_line_bytes must be positive")
        require(drain_timeout is None or drain_timeout > 0,
                "drain_timeout must be positive (or None)")
        self.host = host
        self.port = port
        self.unix_socket = unix_socket
        self.max_line_bytes = max_line_bytes
        self.drain_timeout = drain_timeout
        self.write_buffer_limit = write_buffer_limit
        self.socket_sndbuf = socket_sndbuf
        self.stats = ServerStats()
        self._server: Optional[asyncio.AbstractServer] = None
        self._request_tasks: set = set()
        self._connections: set = set()

    # -- lifecycle -----------------------------------------------------
    async def start(self: _ServerT) -> _ServerT:
        """Bind the listening socket."""
        if self.unix_socket:
            self._server = await asyncio.start_unix_server(
                self._handle_client, path=self.unix_socket)
        else:
            self._server = await asyncio.start_server(
                self._handle_client, host=self.host, port=self.port)
            # With port=0 the OS picked one; expose it for clients.
            self.port = self._server.sockets[0].getsockname()[1]
        return self

    @property
    def address(self) -> str:
        """Human-readable bound address (``host:port`` or the socket path)."""
        if self.unix_socket:
            return self.unix_socket
        return f"{self.host}:{self.port}"

    async def serve_forever(self) -> None:
        require(self._server is not None, "call start() before serve_forever()")
        async with self._server:
            await self._server.serve_forever()

    def abort(self) -> None:
        """Hard-stop, as if the process died: no drain, no goodbyes.

        Closes the listener and severs every live connection at the
        transport (clients see a reset, not EOF).  Work already handed
        to a runner's pool still finishes and persists -- exactly the
        store-backed recovery a cluster router relies on when it
        re-routes the cells this runner never answered.  The failover
        tests in ``tests/test_cluster.py`` are the contract.
        """
        if self._server is not None:
            self._server.close()
        for writer in list(self._connections):
            transport = writer.transport
            if transport is not None:
                transport.abort()

    async def aclose(self) -> None:
        """Stop accepting connections, finish pending requests, close."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        if self._request_tasks:
            await asyncio.gather(*list(self._request_tasks),
                                 return_exceptions=True)

    async def __aenter__(self: _ServerT) -> _ServerT:
        return await self.start()

    async def __aexit__(self, exc_type, exc, tb) -> None:
        await self.aclose()

    # -- the wire ------------------------------------------------------
    async def _next_line(self, reader: asyncio.StreamReader,
                         buffer: bytearray) -> Tuple[Optional[bytes], bool]:
        """The next newline-terminated line, bounded by ``max_line_bytes``.

        Returns ``(line, oversized)``; ``(None, _)`` on EOF (or a dead
        transport).  An oversized line is *discarded as it streams in* --
        its bytes are never accumulated past the bound nor parsed -- and
        reported as ``(b"", True)`` once its terminating newline arrives,
        so the caller can answer with a structured error and keep the
        connection alive.
        """
        oversized = False
        while True:
            newline = buffer.find(b"\n")
            if newline >= 0:
                line = bytes(buffer[:newline])
                del buffer[:newline + 1]
                if oversized or len(line) > self.max_line_bytes:
                    return b"", True
                return line, False
            if len(buffer) > self.max_line_bytes:
                oversized = True
                del buffer[:]
            try:
                chunk = await reader.read(_READ_CHUNK)
            except (ConnectionError, OSError):
                return None, oversized
            if not chunk:
                return None, oversized
            buffer.extend(chunk)

    async def _handle_client(self, reader: asyncio.StreamReader,
                             writer: asyncio.StreamWriter) -> None:
        self.stats.connections += 1
        self._connections.add(writer)
        if self.socket_sndbuf is not None:
            sock = writer.get_extra_info("socket")
            if sock is not None:
                sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF,
                                self.socket_sndbuf)
        if self.write_buffer_limit is not None:
            writer.transport.set_write_buffer_limits(
                high=self.write_buffer_limit)
        write_lock = asyncio.Lock()
        alive = True

        async def send(obj: Dict[str, Any]) -> None:
            nonlocal alive
            if not alive:
                return  # dropped/dead connection; results stay persisted
            async with write_lock:
                if not alive:
                    return
                try:
                    writer.write(json.dumps(obj, sort_keys=True).encode() + b"\n")
                    if self.drain_timeout is not None:
                        await asyncio.wait_for(writer.drain(),
                                               self.drain_timeout)
                    else:
                        await writer.drain()
                except asyncio.TimeoutError:
                    # The client stalled reading while we had output to
                    # flush: drop it rather than pin buffers forever.
                    alive = False
                    self.stats.slow_reader_drops += 1
                    writer.transport.abort()
                except (OSError, RuntimeError):
                    alive = False  # client went away; results stay persisted

        buffer = bytearray()
        try:
            while True:
                raw, oversized = await self._next_line(reader, buffer)
                if raw is None:
                    break
                if oversized:
                    self.stats.protocol_errors += 1
                    self.stats.oversized_lines += 1
                    await send({"id": None,
                                "error": "oversized request line "
                                         f"(> {self.max_line_bytes} bytes)"})
                    continue
                line = raw.strip()
                if not line:
                    continue
                try:
                    request = json.loads(line)
                    require(isinstance(request, dict),
                            "request lines must be JSON objects")
                except (json.JSONDecodeError, ValidationError) as exc:
                    self.stats.protocol_errors += 1
                    await send({"id": None, "error": f"bad request line: {exc}"})
                    continue
                task = asyncio.create_task(self._serve_request(request, send))
                self._request_tasks.add(task)
                task.add_done_callback(self._request_tasks.discard)
        finally:
            self._connections.discard(writer)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

    async def _serve_request(self, request: Dict[str, Any], send: Send) -> None:
        request_id = request.get("id")
        op = request.get("op", "sweep")
        self.stats.requests += 1
        try:
            if not await self._dispatch(request_id, op, request, send):
                self.stats.protocol_errors += 1
                await send({"id": request_id, "error": f"unknown op {op!r}"})
        except (ValidationError, ValueError, TypeError, KeyError,
                RuntimeError) as exc:
            await send({"id": request_id,
                        "error": f"{type(exc).__name__}: {exc}"})

    async def _dispatch(self, request_id: Any, op: Any,
                        request: Dict[str, Any], send: Send) -> bool:
        """Serve one op; ``False`` when this front has no such op."""
        raise NotImplementedError


def _request_specs(request: Dict[str, Any]) -> List[ScenarioSpec]:
    """A ``sweep_spec`` request's cells: exactly one of ``grid``/``specs``."""
    grid_payload = request.get("grid")
    spec_payloads = request.get("specs")
    require((grid_payload is None) != (spec_payloads is None),
            "sweep_spec requests need exactly one of 'grid' or 'specs'")
    if grid_payload is not None:
        specs = list(ScenarioGrid.from_payload(grid_payload).expand())
    else:
        require(isinstance(spec_payloads, list) and spec_payloads,
                "'specs' must be a non-empty list of spec payloads")
        specs = [ScenarioSpec.from_payload(p) for p in spec_payloads]
    require(len(specs) > 0, "the grid expands to zero cells")
    return specs


# ---------------------------------------------------------------------------
# the runner front
# ---------------------------------------------------------------------------

class SweepServer(_LineServer):
    """Newline-delimited-JSON front end over an :class:`AsyncSweepService`.

    One server wraps one service; connections are handled concurrently and
    every request line inside a connection is served concurrently too
    (responses are tagged with the request's ``id`` and may interleave --
    per-scenario results stream back the moment their futures resolve).

    Parameters
    ----------
    max_line_bytes:
        Longest request line accepted; longer lines are discarded without
        parsing and answered with a structured error (the connection
        survives).  Bounds per-connection buffer memory against oversized
        or hostile payloads.
    drain_timeout:
        With a value, a response write whose ``drain()`` stalls longer
        than this many seconds aborts the connection (counted in
        ``stats.slow_reader_drops``) -- a reader that stopped reading
        must not pin server memory.  ``None`` (default) waits forever.
    write_buffer_limit:
        Optional transport high-water mark in bytes (per connection);
        smaller values make ``drain()`` engage earlier.  Mostly for the
        slow-reader chaos tests and the load harness.
    socket_sndbuf:
        Optional ``SO_SNDBUF`` for accepted connections; shrinking it
        makes slow-reader behaviour reproducible (the kernel otherwise
        absorbs hundreds of KB before ``drain()`` ever blocks).
    admission_limit:
        With a value, a sweep arriving while ``queue_depth() +
        inflight_count()`` is at or above it is *rejected* immediately
        (``{"rejected": true}`` line, ``stats.rejections``) instead of
        blocking at the bounded queue.  ``None`` (default) keeps the pure
        backpressure behaviour.
    runner_id:
        Optional stable name of this runner inside a cluster (see
        :mod:`repro.cluster`); echoed in every ``ping`` reply and stamped
        on the service's ``metrics`` snapshot so an aggregating router
        can attribute counters per runner.
    """

    def __init__(self, service: AsyncSweepService, *,
                 host: str = "127.0.0.1", port: int = 0,
                 unix_socket: Optional[str] = None,
                 max_line_bytes: int = 1 << 20,
                 drain_timeout: Optional[float] = None,
                 write_buffer_limit: Optional[int] = None,
                 socket_sndbuf: Optional[int] = None,
                 admission_limit: Optional[int] = None,
                 runner_id: Optional[str] = None):
        super().__init__(host=host, port=port, unix_socket=unix_socket,
                         max_line_bytes=max_line_bytes,
                         drain_timeout=drain_timeout,
                         write_buffer_limit=write_buffer_limit,
                         socket_sndbuf=socket_sndbuf)
        require(admission_limit is None or admission_limit >= 0,
                "admission_limit must be >= 0 (or None)")
        self.service = service
        self.admission_limit = admission_limit
        self.runner_id = runner_id
        if runner_id is not None and service.runner_id is None:
            service.runner_id = runner_id

    async def start(self) -> "SweepServer":
        """Warm the service and bind the listening socket."""
        await self.service.start()
        return await super().start()

    async def aclose(self) -> None:
        """Stop accepting connections, finish pending requests, close."""
        await super().aclose()
        await self.service.aclose()

    # -- request handling ----------------------------------------------
    def _overloaded(self) -> bool:
        """Is the service at (or past) the admission limit right now?"""
        return (self.admission_limit is not None
                and (self.service.queue_depth()
                     + self.service.inflight_count()) >= self.admission_limit)

    async def _reject(self, request_id: Any, send: Send) -> None:
        self.stats.rejections += 1
        await send({"id": request_id, "rejected": True,
                    "error": "overloaded: admission limit reached "
                             f"({self.admission_limit} requests pending)"})

    async def _dispatch(self, request_id: Any, op: Any,
                        request: Dict[str, Any], send: Send) -> bool:
        if op == "ping":
            reply = {"id": request_id, "pong": True}
            if self.runner_id is not None:
                reply["runner"] = self.runner_id
            await send(reply)
        elif op == "stats":
            stats = vars(self.service.stats).copy()
            stats["queue_depth"] = self.service.queue_depth()
            stats["inflight"] = self.service.inflight_count()
            stats["server"] = vars(self.stats).copy()
            await send({"id": request_id, "stats": stats})
        elif op == "metrics":
            metrics = self.service.snapshot()
            metrics["server"] = vars(self.stats).copy()
            await send({"id": request_id, "metrics": metrics})
        elif op == "sweep":
            await self._serve_sweep(request_id, request, send)
        elif op == "sweep_spec":
            await self._serve_sweep_spec(request_id, request, send)
        elif op == "warm_cache":
            await self._serve_warm_cache(request_id, request, send)
        else:
            return False
        return True

    async def _relay_ticket(self, request_id: Any, ticket, send: Send,
                            extra_fields=None) -> None:
        """Stream one line per slot future as it resolves, then ``done``.

        The single owner of the per-slot response shape for every sweep
        flavour; ``extra_fields(index) -> dict`` contributes
        flavour-specific fields (the spec path's ``"cell"`` digest).
        """
        async def relay(index: int, future: "asyncio.Future") -> None:
            result = await future
            report = None
            if result.report is not None:
                report = report_to_payload(result.report, result.key)
            line = {"id": request_id, "index": index, "key": result.key,
                    "source": result.source, "error": result.error,
                    "report": report}
            if extra_fields is not None:
                line.update(extra_fields(index))
            await send(line)

        await asyncio.gather(*[relay(i, f)
                               for i, f in enumerate(ticket.futures)])
        await send({"id": request_id, "done": True,
                    "count": len(ticket.futures),
                    "protocol": PROTOCOL_VERSION})

    async def _serve_sweep(self, request_id: Any, request: Dict[str, Any],
                           send: Send) -> None:
        if self._overloaded():
            await self._reject(request_id, send)
            return
        scenarios = request.get("scenarios")
        require(isinstance(scenarios, list) and scenarios,
                "sweep requests need a non-empty 'scenarios' list")
        options = request.get("options") or {}
        require(isinstance(options, dict), "'options' must be an object")
        problems = [problem_from_payload(p) for p in scenarios]
        ticket = await self.service.submit(problems,
                                           request.get("method", "auto"),
                                           **options)
        await self._relay_ticket(request_id, ticket, send)

    async def _serve_sweep_spec(self, request_id: Any, request: Dict[str, Any],
                                send: Send) -> None:
        """Serve one spec-native sweep: expand, submit, stream per cell."""
        if self._overloaded():
            await self._reject(request_id, send)
            return
        options = request.get("options") or {}
        require(isinstance(options, dict), "'options' must be an object")
        specs = _request_specs(request)
        ticket = await self.service.submit_specs(
            specs, request.get("method", "auto"), **options)
        await self._relay_ticket(
            request_id, ticket, send,
            extra_fields=lambda index: {"cell": specs[index].cell_digest()})

    async def _serve_warm_cache(self, request_id: Any,
                                request: Dict[str, Any], send: Send) -> None:
        """Serve one ``warm_cache`` op: prewarm this runner's key range.

        The wire entry point of an elastic-resize warm handoff: the router
        sends its ring payload plus this runner's name before routing any
        traffic here, and the runner bulk-loads exactly that ring share
        from the store into its tier-1 LRU
        (:meth:`~repro.engine.async_service.AsyncSweepService.warm_cache`).
        Without a ring the whole store is warmed.  Replies one line:
        ``{"id", "warmed", "aliases"}``.
        """
        ring_payload = request.get("ring")
        owner = request.get("owner")
        ring = None
        if ring_payload is not None:
            # Imported here, not at module level: the cluster package's
            # router already imports this module for the wire layer.
            from repro.cluster.ring import HashRing

            ring = HashRing.from_payload(ring_payload)
            require(isinstance(owner, str) and bool(owner),
                    "warm_cache with a ring needs the 'owner' runner name")
        limit = request.get("limit")
        require(limit is None or (isinstance(limit, int) and limit >= 0),
                "'limit' must be a non-negative integer")
        outcome = self.service.warm_cache(ring, owner, limit=limit)
        reply = {"id": request_id, "warmed": outcome["warmed"],
                 "aliases": outcome["aliases"]}
        if self.runner_id is not None:
            reply["runner"] = self.runner_id
        await send(reply)


# ---------------------------------------------------------------------------
# client helpers: the one connect path
# ---------------------------------------------------------------------------

#: Longest response line a client connection reads (bytes).  The server
#: writes lines of any length -- one wide cell's report runs to ~80 KB,
#: past asyncio's 64 KiB ``StreamReader`` default -- so every client
#: helper (and :mod:`repro.cluster`, :mod:`repro.loadgen`) reads through
#: :func:`connect`, which sets this bound once.
CLIENT_LINE_LIMIT = 1 << 26


async def connect(host: str = "127.0.0.1", port: Optional[int] = None,
                  unix_socket: Optional[str] = None,
                  ) -> Tuple[asyncio.StreamReader, asyncio.StreamWriter]:
    """Open one client connection to a server front (unix socket or TCP)."""
    if unix_socket:
        return await asyncio.open_unix_connection(unix_socket,
                                                  limit=CLIENT_LINE_LIMIT)
    require(port is not None, "the client helpers need port= or unix_socket=")
    return await asyncio.open_connection(host, port, limit=CLIENT_LINE_LIMIT)


async def close_writer(writer: asyncio.StreamWriter) -> None:
    """Close a client connection, ignoring a peer that already left."""
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover - teardown race
        pass


async def send_line(writer: asyncio.StreamWriter,
                    payload: Dict[str, Any]) -> None:
    """Write one request line and flush it."""
    writer.write(json.dumps(payload).encode() + b"\n")
    await writer.drain()


async def request_reply(payload: Dict[str, Any], *, host: str = "127.0.0.1",
                        port: Optional[int] = None,
                        unix_socket: Optional[str] = None) -> Dict[str, Any]:
    """Send one request line on a fresh connection; return its one reply.

    Raises :class:`ValidationError` when the server closes the connection
    first or answers with an ``error``.
    """
    reader, writer = await connect(host, port, unix_socket)
    try:
        await send_line(writer, payload)
        line = await reader.readline()
    finally:
        await close_writer(writer)
    require(bool(line), "server closed the connection mid-request")
    response = json.loads(line)
    if response.get("error"):
        raise ValidationError(f"server error: {response['error']}")
    return response


async def stream_request(payload: Dict[str, Any],
                         on_slot: Callable[[Dict[str, Any]], Any], *,
                         host: str = "127.0.0.1", port: Optional[int] = None,
                         unix_socket: Optional[str] = None) -> bool:
    """Send one sweep request line; hand each per-slot reply to ``on_slot``.

    Returns ``True`` at the ``done`` line, ``False`` when the server closes
    the connection first.  A failed slot (``"source": "failed"``) is a
    valid slot line; a request-level error line (bad request, admission
    rejection, protocol fault) raises :class:`ValidationError`.
    """
    reader, writer = await connect(host, port, unix_socket)
    try:
        await send_line(writer, payload)
        while True:
            line = await reader.readline()
            if not line:
                return False
            response = json.loads(line)
            if "index" in response:
                on_slot(response)
            elif response.get("error"):
                raise ValidationError(f"server error: {response['error']}")
            elif response.get("done"):
                return True
    finally:
        await close_writer(writer)


async def _collect_slots(payload: Dict[str, Any], expected: int, *,
                         host: str, port: Optional[int],
                         unix_socket: Optional[str]) -> List[Dict[str, Any]]:
    """:func:`stream_request`, reassembled into batch order."""
    results: Dict[int, Dict[str, Any]] = {}
    done = await stream_request(
        payload, lambda slot: results.__setitem__(slot["index"], slot),
        host=host, port=port, unix_socket=unix_socket)
    require(done, "server closed the connection mid-request")
    require(len(results) == expected,
            f"server answered {len(results)}/{expected} scenarios")
    return [results[i] for i in range(expected)]


async def request_sweep(problems: Sequence[Problem], *,
                        host: str = "127.0.0.1", port: Optional[int] = None,
                        unix_socket: Optional[str] = None,
                        method: str = "auto",
                        options: Optional[Dict[str, Any]] = None,
                        request_id: str = "sweep-1",
                        ) -> List[Dict[str, Any]]:
    """One-shot asyncio client: sweep ``problems`` against a running server.

    Returns the per-scenario response dicts in batch order.  Raises
    :class:`ValidationError` on a server-reported request error.
    """
    payload = {"op": "sweep", "id": request_id,
               "scenarios": [problem_to_payload(p) for p in problems],
               "method": method, "options": options or {}}
    return await _collect_slots(payload, len(problems), host=host,
                                port=port, unix_socket=unix_socket)


async def request_sweep_spec(scenarios: Union[ScenarioGrid,
                                              Sequence[ScenarioSpec]], *,
                             host: str = "127.0.0.1",
                             port: Optional[int] = None,
                             unix_socket: Optional[str] = None,
                             method: str = "auto",
                             options: Optional[Dict[str, Any]] = None,
                             request_id: str = "sweep-spec-1",
                             ) -> List[Dict[str, Any]]:
    """One-shot spec-native client: ship a grid (or specs), not DAGs.

    ``scenarios`` is a :class:`~repro.scenarios.spec.ScenarioGrid` --
    serialized whole, a few hundred bytes however many cells it expands to
    -- or a sequence of :class:`~repro.scenarios.spec.ScenarioSpec`
    records.  Returns the per-cell response dicts in expansion order; each
    carries the cell's request fingerprint under ``"key"`` (identical to
    what :func:`request_sweep` over the materialized problems reports) and
    its spec content digest under ``"cell"``.
    """
    if isinstance(scenarios, ScenarioGrid):
        expected = scenarios.size()
        payload: Dict[str, Any] = {"op": "sweep_spec", "id": request_id,
                                   "grid": scenarios.to_payload()}
    else:
        specs = list(scenarios)
        expected = len(specs)
        payload = {"op": "sweep_spec", "id": request_id,
                   "specs": [spec.to_payload() for spec in specs]}
    payload["method"] = method
    payload["options"] = options or {}
    return await _collect_slots(payload, expected, host=host, port=port,
                                unix_socket=unix_socket)


async def request_metrics(*, host: str = "127.0.0.1",
                          port: Optional[int] = None,
                          unix_socket: Optional[str] = None,
                          request_id: str = "metrics-1") -> Dict[str, Any]:
    """One-shot asyncio client for the ``metrics`` op.

    Returns the server's counter snapshot
    (:meth:`~repro.engine.async_service.AsyncSweepService.snapshot` plus
    the wire-level :class:`ServerStats` under ``"server"``).  Raises
    :class:`ValidationError` on a server-reported error.
    """
    response = await request_reply({"op": "metrics", "id": request_id},
                                   host=host, port=port,
                                   unix_socket=unix_socket)
    require(isinstance(response.get("metrics"), dict),
            "metrics reply must carry a 'metrics' object")
    return response["metrics"]


async def request_warm_cache(*, host: str = "127.0.0.1",
                             port: Optional[int] = None,
                             unix_socket: Optional[str] = None,
                             ring: Optional[Dict[str, Any]] = None,
                             owner: Optional[str] = None,
                             limit: Optional[int] = None,
                             request_id: str = "warm-1") -> Dict[str, Any]:
    """One-shot asyncio client for the ``warm_cache`` op.

    ``ring`` is a :meth:`HashRing.to_payload
    <repro.cluster.ring.HashRing.to_payload>` dict and ``owner`` the
    target runner's name; both omitted warms the server's whole store.
    Returns the reply dict (``{"warmed": ..., "aliases": ...}``).  Raises
    :class:`ValidationError` on a server-reported error.
    """
    payload: Dict[str, Any] = {"op": "warm_cache", "id": request_id}
    if ring is not None:
        payload["ring"] = ring
        payload["owner"] = owner
    if limit is not None:
        payload["limit"] = limit
    response = await request_reply(payload, host=host, port=port,
                                   unix_socket=unix_socket)
    require("warmed" in response,
            "warm_cache reply must carry a 'warmed' count")
    return response


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="JSON-lines-over-TCP/unix-socket front for the "
                    "asyncio sweep service.")
    parser.add_argument("--host", default="127.0.0.1")
    parser.add_argument("--port", type=int, default=7341,
                        help="TCP port (0 picks a free one; default 7341)")
    parser.add_argument("--unix", metavar="PATH", default=None,
                        help="serve on a unix socket instead of TCP")
    parser.add_argument("--store", metavar="DIR", default=None,
                        help="persistent SolutionStore directory (tier 2)")
    parser.add_argument("--manifest", metavar="PATH", default=None,
                        help="checkpoint completed request keys here")
    parser.add_argument("--executor", choices=("process", "thread"),
                        default="process")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker pool size (default: CPU count)")
    parser.add_argument("--concurrency", type=int, default=None,
                        help="max shards in flight (default: worker count)")
    parser.add_argument("--queue-size", type=int, default=64,
                        help="request queue bound (backpressure point)")
    parser.add_argument("--shard-size", type=int, default=1,
                        help="max scenarios per executor task")
    parser.add_argument("--time-limit", type=float, default=None,
                        help="per-solve soft time limit in seconds")
    parser.add_argument("--admission-limit", type=int, default=None,
                        help="reject sweeps (instead of blocking) once this "
                             "many requests are queued or in flight")
    parser.add_argument("--max-line-bytes", type=int, default=1 << 20,
                        help="longest accepted request line (default 1 MiB); "
                             "longer lines get a structured error")
    parser.add_argument("--drain-timeout", type=float, default=None,
                        help="drop a connection whose reader stalls longer "
                             "than this many seconds (default: wait forever)")
    parser.add_argument("--runner-id", default=None,
                        help="stable runner name inside a cluster; echoed "
                             "in ping replies and metrics snapshots")
    return parser


async def _run_server(args: argparse.Namespace) -> None:
    limits = SolveLimits(time_limit=args.time_limit) if args.time_limit else None
    service = AsyncSweepService(
        store=args.store,
        portfolio=Portfolio(executor=args.executor, max_workers=args.workers),
        limits=limits,
        max_concurrency=args.concurrency,
        queue_size=args.queue_size,
        shard_size=args.shard_size,
        manifest=args.manifest,
        runner_id=args.runner_id)
    server = SweepServer(service, host=args.host, port=args.port,
                         unix_socket=args.unix,
                         max_line_bytes=args.max_line_bytes,
                         drain_timeout=args.drain_timeout,
                         admission_limit=args.admission_limit,
                         runner_id=args.runner_id)
    await server.start()
    resume = ""
    if args.manifest:
        # start() above loaded the v2 manifest; say how much of an
        # interrupted sweep this runner will answer from disk.
        resume = f", resume={service.resume_cells} cells"
    print(f"repro.serve: listening on {server.address} "
          f"(executor={args.executor}, store={args.store or 'none'}"
          f"{resume})",
          flush=True)
    try:
        await server.serve_forever()
    except asyncio.CancelledError:  # pragma: no cover - Ctrl-C path
        pass
    finally:
        await server.aclose()


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Entry point of ``python -m repro.serve``."""
    args = _build_parser().parse_args(argv)
    try:
        asyncio.run(_run_server(args))
    except KeyboardInterrupt:  # pragma: no cover - interactive teardown
        print("repro.serve: shutting down", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
