"""Batched scenario-sweep serving on top of the engine's two cache tiers.

:class:`SweepService` turns the one-shot :func:`repro.solve` into a system
for *repeated heavy workloads*: a batch of scenarios -- materialized
problems, declarative :class:`~repro.scenarios.spec.ScenarioSpec` records
or a lazily-expanded :class:`~repro.scenarios.spec.ScenarioGrid` -- comes
in, and the service

1. **deduplicates** it by :func:`~repro.engine.core.request_key` (spec
   batches: by spec content, before any DAG exists) -- every distinct
   request is solved (or fetched) exactly once, however often it repeats
   in the batch;
2. **consults the persistent store** -- scenarios already solved by any
   previous run, process or machine sharing the store are answered from
   disk without touching a solver;
3. **claims and shards the rest** -- pending scenarios are claimed
   against concurrent processes sharing the store (the one claim
   protocol of :mod:`repro.engine.plan`), partitioned into shards sized
   to the portfolio's worker pool
   (:func:`~repro.engine.plan.recommend_shard_size`) and submitted to
   its *warm* executors; inside each worker the shard is solved through
   :func:`repro.engine.batch.solve_lp_batch`, which groups scenarios by
   DAG fingerprint so the structure probe and the LP model skeleton are
   paid once per group, not once per scenario (see
   ``docs/performance.md``);
4. **streams results** -- :meth:`SweepService.sweep` is a generator
   yielding a :class:`SweepResult` per scenario as soon as its shard
   finishes (store hits first); :meth:`SweepService.run` collects them and
   also drives an optional callback;
5. **records a resumable manifest** -- with ``manifest=path`` the service
   checkpoints completed request keys after every shard, so an interrupted
   sweep restarts from the store instead of recomputing.

Usage:

>>> import tempfile
>>> from repro.core.dag import TradeoffDAG
>>> from repro.core.duration import GeneralStepDuration
>>> from repro.core.problem import MinMakespanProblem
>>> from repro.engine.portfolio import Portfolio
>>> from repro.engine.service import SweepService
>>> from repro.engine.store import SolutionStore
>>> dag = TradeoffDAG()
>>> for name in ("s", "x", "t"):
...     _ = dag.add_job(name, GeneralStepDuration([(0, 4), (2, 1)]))
>>> dag.add_edge("s", "x"); dag.add_edge("x", "t")
>>> scenarios = [MinMakespanProblem(dag, b) for b in (2.0, 4.0, 2.0, 2.0)]
>>> with SweepService(store=SolutionStore(tempfile.mkdtemp()),
...                   portfolio=Portfolio(executor="thread")) as service:
...     cold = service.run(scenarios)
...     warm = service.run(scenarios)
>>> (cold.stats.scenarios, cold.stats.unique, cold.stats.computed)
(4, 2, 2)
>>> (warm.stats.store_hits, warm.stats.computed)
(2, 0)
>>> cold.reports()[0].makespan == warm.reports()[0].makespan
True
"""

from __future__ import annotations

import json
import logging
import os
import time
from concurrent.futures import TimeoutError as FuturesTimeout
from concurrent.futures import as_completed
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Union

from repro.engine.core import (
    Problem,
    SolveLimits,
    SolveReport,
    _clone_report,
    get_solution_store,
    normalize_problem,
)
from repro.engine.plan import (
    CELL_MANIFEST_DONE,
    CellContext,
    PlannedCell,
    build_sweep_plan,
    claim_cells,
    claim_waits,
    dedup_cells,
    persist_shard,
    recheck_cells,
    recommend_shard_size,
    release_claims,
    shard_outcomes,
)
from repro.engine.portfolio import Portfolio
from repro.engine.store import SolutionStore, atomic_write_json
from repro.scenarios import ScenarioGrid, ScenarioSpec
from repro.utils.validation import require

__all__ = ["SweepService", "SweepResult", "SweepStats", "SweepReport",
           "ManifestState", "MANIFEST_SCHEMA_VERSION",
           "load_manifest_state", "write_manifest"]

logger = logging.getLogger(__name__)

#: Version of the manifest file layout.  v2 manifests record, next to the
#: v1-compatible ``done`` token list, a ``cells`` map from each completed
#: cell's spec alias to its content digest and resolved request
#: fingerprint -- the digest-keyed identities that let *any* restarted
#: process (sync service, async service, a killed ``serve`` deployment)
#: resume the same grid payload.  v1 manifests are still readable;
#: unknown future schemas are ignored (the sweep starts fresh), never
#: misread.
MANIFEST_SCHEMA_VERSION = 2

#: Log the first failed manifest checkpoint only (the counter on
#: :class:`SweepStats` / ``AsyncSweepStats`` carries the full tally).
_manifest_write_warned = False


@dataclass
class ManifestState:
    """What a resume manifest knows, normalized across schema versions.

    ``done`` holds the canonical completion tokens exactly as recorded
    (request keys for materialized sweeps, spec alias keys for spec
    sweeps -- both encode the solve context).  ``tokens`` is the expanded
    consultation set: ``done`` plus, from v2 ``cells`` entries, each done
    cell's resolved request fingerprint and -- only when the manifest's
    ``method`` matches, since a bare digest does not encode the method --
    its content digest.  The planning tier matches a cell against *any*
    of its identities (see :func:`repro.engine.plan.build_sweep_plan`);
    writers persist ``done``, never ``tokens``.
    """

    done: set = field(default_factory=set)
    #: Expanded matching tokens (``done`` + per-cell keys/digests).
    tokens: set = field(default_factory=set)
    #: ``{alias: {"cell": digest, "key": request_key}}`` from v2 manifests.
    cells: Dict[str, Dict[str, str]] = field(default_factory=dict)
    completed: bool = False
    schema: int = 0

    def __post_init__(self) -> None:
        self.tokens |= self.done

    def mark(self, alias: str, digest: Optional[str],
             key: Optional[str]) -> None:
        """Record one answered cell (identity, spec digest, fingerprint).

        A materialized-problem cell has no digest: its identity is its
        request key, recorded in ``done`` only.  A spec cell also gets
        its v2 ``cells`` row.
        """
        self.done.add(alias)
        self.tokens.add(alias)
        if digest is not None:
            self.cells[alias] = {"cell": digest, "key": key or ""}
            self.tokens.add(digest)
            if key:
                self.tokens.add(key)


def load_manifest_state(path: str, method: str) -> ManifestState:
    """Read a v1 or v2 manifest at ``path`` into a :class:`ManifestState`.

    Shared by :class:`SweepService` and the asyncio serving layer
    (:mod:`repro.engine.async_service`).  A missing, torn or incompatible
    manifest contributes nothing -- it must never kill a sweep.  v1
    manifests keep their historical gate (tokens trusted only when the
    ``method`` matches); v2 ``done`` tokens are method-encoded keys or
    aliases and are always trusted, while digest tokens from ``cells``
    are added only same-method.
    """
    if not os.path.exists(path):
        return ManifestState()
    try:
        with open(path, "r", encoding="utf-8") as handle:
            manifest = json.load(handle)
    except (OSError, json.JSONDecodeError):
        return ManifestState()
    if not isinstance(manifest, dict):
        return ManifestState()
    schema = manifest.get("schema")
    done_list = manifest.get("done", [])
    if not isinstance(done_list, list):
        return ManifestState()
    completed = bool(manifest.get("completed", False))
    if schema == 1:
        if manifest.get("method") != method:
            return ManifestState()
        return ManifestState(done=set(done_list), completed=completed,
                             schema=1)
    if schema == MANIFEST_SCHEMA_VERSION:
        done = set(done_list)
        tokens = set(done)
        cells = manifest.get("cells", {})
        if not isinstance(cells, dict):
            cells = {}
        state_cells: Dict[str, Dict[str, str]] = {}
        same_method = manifest.get("method") == method
        for alias, entry in cells.items():
            if not isinstance(entry, dict) or alias not in done:
                continue
            state_cells[alias] = {str(k): str(v) for k, v in entry.items()}
            key = entry.get("key")
            if isinstance(key, str) and key:
                tokens.add(key)
            digest = entry.get("cell")
            if same_method and isinstance(digest, str):
                tokens.add(digest)
        return ManifestState(done=done, tokens=tokens, cells=state_cells,
                             completed=completed,
                             schema=MANIFEST_SCHEMA_VERSION)
    return ManifestState()


def write_manifest(path: str, method: str, keys: List[str],
                   done: set, completed: bool, *,
                   cells: Optional[Dict[str, Dict[str, str]]] = None,
                   durable: bool = False) -> bool:
    """Atomically checkpoint a sweep manifest (best effort, never raises).

    ``cells`` carries the v2 per-cell identity map (spec sweeps only --
    materialized-problem sweeps have no spec aliases to record).  Returns
    whether the checkpoint landed; a failed write is logged once per
    process and counted by the caller (``manifest_write_errors``), never
    raised.  ``durable=True`` fsyncs the manifest through the rename
    (matching a ``durable`` store), so a crash right after a shard
    completes cannot roll the resume point back past that shard.
    """
    global _manifest_write_warned
    payload: Dict[str, Any] = {
        "schema": MANIFEST_SCHEMA_VERSION,
        "method": method,
        "keys": keys,
        "done": sorted(done),
        "completed": completed,
    }
    if cells:
        payload["cells"] = {alias: dict(entry)
                            for alias, entry in sorted(cells.items())}
    try:
        atomic_write_json(path, payload, fsync=durable)
        return True
    except OSError as exc:
        if not _manifest_write_warned:
            _manifest_write_warned = True
            logger.warning(
                "sweep manifest checkpoint failed (%s: %s); resume state "
                "is stale until a later checkpoint lands -- further "
                "failures are counted, not logged", path, exc)
        return False


@dataclass
class SweepResult:
    """Outcome of one scenario slot in a sweep batch.

    ``index`` is the scenario's position in the submitted batch; duplicate
    scenarios get one result each (sharing the underlying report).
    ``source`` is ``"store"`` (answered from the persistent store),
    ``"computed"`` (solved this sweep) or ``"failed"``.

    Spec-native sweeps fill ``spec`` instead of ``problem``: a store-hit
    cell was never materialized, so there is no problem object to carry
    (``key`` is still the true request fingerprint -- the one the
    materialized path would use -- except for cells that failed before
    their fingerprint could be learned, which carry their spec alias key).
    """

    index: int
    key: str
    problem: Optional[Problem]
    report: Optional[SolveReport]
    source: str
    error: Optional[str] = None
    #: The declarative cell this result answers (spec-native sweeps only).
    spec: Optional[ScenarioSpec] = None

    @classmethod
    def for_slot(cls, index: int, item: Any, key: str,
                 report: Optional[SolveReport], source: str,
                 error: Optional[str] = None) -> "SweepResult":
        """One slot's result; ``item`` is the spec or problem it submitted."""
        spec = item if isinstance(item, ScenarioSpec) else None
        return cls(index=index, key=key,
                   problem=item if spec is None else None, report=report,
                   source=source, error=error, spec=spec)


@dataclass
class SweepStats:
    """Aggregate accounting of one sweep (see :class:`SweepReport`)."""

    scenarios: int = 0
    unique: int = 0
    duplicates: int = 0
    #: Unique requests answered from the persistent store.
    store_hits: int = 0
    #: Store hits that a resume manifest had marked completed.
    resumed: int = 0
    computed: int = 0
    failed: int = 0
    shards: int = 0
    shard_size: int = 0
    #: Solves short-circuited to a store read because another process
    #: held (or had just released) the solve claim for the same cell.
    dup_solves_avoided: int = 0
    #: Manifest checkpoints that failed to land (write_manifest errors).
    manifest_write_errors: int = 0
    wall_time: float = 0.0

    @property
    def hit_rate(self) -> float:
        """Fraction of unique requests served from the store."""
        return self.store_hits / self.unique if self.unique else 0.0

    def summary(self) -> str:
        """One-line human-readable description (used by the benchmarks)."""
        return (f"{self.scenarios} scenarios ({self.unique} unique): "
                f"{self.store_hits} from store ({self.hit_rate:.0%}), "
                f"{self.computed} computed in {self.shards} shards, "
                f"{self.failed} failed, {self.wall_time * 1000:.1f}ms")


@dataclass
class SweepReport:
    """Everything :meth:`SweepService.run` produced, in batch order."""

    results: List[SweepResult] = field(default_factory=list)
    stats: SweepStats = field(default_factory=SweepStats)

    def reports(self) -> List[Optional[SolveReport]]:
        """The per-scenario :class:`SolveReport` list (``None`` on failure)."""
        return [r.report for r in self.results]

    def summary(self) -> str:
        return self.stats.summary()


def _chunk(items: List, size: int) -> List[List]:
    return [items[i:i + size] for i in range(0, len(items), size)]


class SweepService:
    """Deduplicating, store-backed, sharded scenario-sweep runner.

    Parameters
    ----------
    store:
        The persistent :class:`~repro.engine.store.SolutionStore` (or a
        directory path to open one at).  Defaults to the engine's globally
        installed store (:func:`~repro.engine.core.get_solution_store`);
        without one, the service still deduplicates and shards but nothing
        survives the process.
    portfolio:
        The :class:`~repro.engine.portfolio.Portfolio` whose (persistent)
        executor runs the pending shards.  Defaults to a process-pool
        portfolio; the service starts it lazily and closes what it started.
    limits:
        :class:`~repro.engine.core.SolveLimits` forwarded to every solve
        and baked into the request keys.
    oversubscription:
        Target shards per worker when auto-sizing shards
        (:meth:`Portfolio.shard_plan`).
    validate:
        Run certificate checks on computed solutions (part of the key).
    durable:
        Fsync the resume manifest through its atomic rename, and open a
        path-constructed store with ``durable=True`` -- crash-consistent
        checkpoints for deployments that resume sweeps after power loss.
        (A store passed as an object keeps whatever durability it was
        built with.)
    """

    def __init__(self, store: Union[SolutionStore, str, None] = None, *,
                 portfolio: Optional[Portfolio] = None,
                 limits: Optional[SolveLimits] = None,
                 oversubscription: int = 4,
                 validate: bool = True,
                 durable: bool = False):
        require(oversubscription > 0, "oversubscription must be positive")
        self.durable = durable
        if isinstance(store, str):
            store = SolutionStore(store, durable=durable)
        self._explicit_store = store
        self._owns_portfolio = portfolio is None
        self._portfolio = portfolio if portfolio is not None else Portfolio(executor="process")
        self._started_pool = False
        # Request keys and shard execution must agree on the limits: an
        # explicit ``limits`` is pushed into the portfolio, otherwise the
        # portfolio's own limits are adopted.
        if limits is not None:
            self.limits = limits
            self._portfolio.limits = limits
        else:
            self.limits = self._portfolio.limits
        self.oversubscription = oversubscription
        self.validate = validate
        self.last_stats: Optional[SweepStats] = None
        #: The classification of the most recent sweep
        #: (:class:`~repro.engine.plan.SweepPlan`), for observability.
        self.last_plan = None
        self._closed = False

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    @property
    def store(self) -> Optional[SolutionStore]:
        """The store consulted by sweeps (explicit, else the global one)."""
        if self._explicit_store is not None:
            return self._explicit_store
        return get_solution_store()

    @property
    def portfolio(self) -> Portfolio:
        return self._portfolio

    def _warm_pool(self) -> Portfolio:
        if self._portfolio.pool is None:
            self._portfolio.start()
            self._started_pool = True
        return self._portfolio

    def close(self) -> None:
        """Shut down the worker pool the service started (if any).

        A closed service raises :class:`RuntimeError` from
        :meth:`sweep`/:meth:`run` instead of failing deep inside (or
        silently restarting) the executor.
        """
        if self._owns_portfolio or self._started_pool:
            self._portfolio.close()
            self._started_pool = False
        self._closed = True

    @property
    def closed(self) -> bool:
        """Has :meth:`close` been called on this service?"""
        return self._closed

    def _require_open(self) -> None:
        if self._closed:
            raise RuntimeError(
                "SweepService is closed; create a new service (or a new "
                "context manager block) to run further sweeps")

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()

    # ------------------------------------------------------------------
    # manifest
    # ------------------------------------------------------------------
    def _write_manifest(self, path: str, method: str, keys: List[str],
                        done: set, completed: bool, *,
                        cells: Optional[Dict[str, Dict[str, str]]] = None,
                        stats: Optional[SweepStats] = None) -> None:
        ok = write_manifest(path, method, keys, done, completed,
                            cells=cells, durable=self.durable)
        if not ok and stats is not None:
            stats.manifest_write_errors += 1

    # ------------------------------------------------------------------
    # sweeping
    # ------------------------------------------------------------------
    def sweep(self, scenarios: Union[Sequence[Problem], Sequence[ScenarioSpec],
                                     ScenarioGrid],
              method: str = "auto", *,
              manifest: Optional[str] = None,
              shard_size: Optional[int] = None,
              **options: Any) -> Iterator[SweepResult]:
        """Stream :class:`SweepResult` objects for a scenario batch.

        ``scenarios`` may be materialized problems, declarative
        :class:`~repro.scenarios.spec.ScenarioSpec` records, or a whole
        :class:`~repro.scenarios.spec.ScenarioGrid` (expanded lazily).
        The spec-native forms deduplicate and consult the store **before
        materialization** -- a store-hit cell never builds its DAG, and
        pending cells are built lazily inside the worker shards, so peak
        memory is one shard of DAGs regardless of grid size.

        Store-served scenarios are yielded first (in batch order), then
        computed ones as their shards finish (shard completion order);
        a cell another process was solving is yielded from the store once
        its claim wait ends.
        Closing the generator early cancels unstarted shards and -- with
        ``manifest=`` -- leaves a checkpoint from which the next sweep
        resumes.  The generator's return value is the :class:`SweepStats`
        (collected by :meth:`run`).

        Sweeps are content-addressed, so ``options`` must be literal
        values (:func:`~repro.engine.core.request_key` raises otherwise).
        """
        self._require_open()
        if isinstance(scenarios, ScenarioGrid):
            scenarios = scenarios.expand()
        items = list(scenarios)
        specs = sum(isinstance(item, ScenarioSpec) for item in items)
        require(specs in (0, len(items)),
                "do not mix ScenarioSpecs and materialized problems in one "
                "sweep")
        if not specs:
            items = [normalize_problem(problem) for problem in items]
        return self._sweep_cells(
            items, CellContext(method, self.limits, self.validate, options),
            manifest=manifest, shard_size=shard_size)

    def _sweep_cells(self, items: List[Any], context: CellContext, *,
                     manifest: Optional[str], shard_size: Optional[int]
                     ) -> Iterator[SweepResult]:
        """The sweep generator behind :meth:`sweep` (which checks its
        arguments eagerly, at call time rather than on first ``next()``).

        Phases, the same for specs and problems:

        1. **dedup, no DAGs** -- slots are grouped by cell identity
           (:func:`~repro.engine.plan.dedup_cells`);
        2. **plan, no DAGs** -- every unique cell is classified in one
           batched store pass (:func:`~repro.engine.plan.build_sweep_plan`);
           done cells are yielded immediately;
        3. **claim** -- pending cells are claimed against concurrent
           processes; claimed cells are sharded and submitted at once,
           then contended cells are waited on (finishing shards are
           consumed meanwhile), rechecked in one batch and solved here
           only if still missing (``dup_solves_avoided`` otherwise);
        4. **compute** -- shards are sized from the plan's pending count
           and hit rate; spec shards materialize inside the workers, which
           report each cell's fingerprint back.  Each finished shard is
           persisted, its claims released and the manifest checkpointed
           before its results are yielded.
        """
        start_time = time.perf_counter()
        stats = SweepStats(scenarios=len(items))
        self.last_stats = stats
        identities, unique = dedup_cells(items, context)
        slots: Dict[str, List[int]] = {}
        for index, identity in enumerate(identities):
            slots.setdefault(identity, []).append(index)
        stats.unique = len(unique)
        stats.duplicates = stats.scenarios - stats.unique

        resume = (load_manifest_state(manifest, context.method)
                  if manifest else ManifestState())
        progress = ManifestState()
        store = self.store
        plan = build_sweep_plan(
            unique, context.method, store=store, limits=context.limits,
            validate=context.validate, manifest_done=resume.tokens,
            **context.options)
        self.last_plan = plan
        futures: Dict[Any, List[PlannedCell]] = {}
        held: Dict[str, PlannedCell] = {}

        def answer(cell: PlannedCell, key: str, report: Optional[SolveReport],
                   source: str, error: Optional[str] = None
                   ) -> Iterator[SweepResult]:
            for index in slots[cell.alias]:
                # Each slot gets its own defensive copy (consumers may edit
                # allocations in place; duplicates must not alias).
                copy = None
                if report is not None:
                    copy = (_clone_report(report, from_cache=True,
                                          cache_tier="store")
                            if source == "store"
                            else _clone_report(report, from_cache=False))
                yield SweepResult.for_slot(index, items[index], key, copy,
                                           source, error)

        def answer_from_store(cells: List[PlannedCell]) -> Iterator[SweepResult]:
            for cell in cells:
                stats.store_hits += 1
                if cell.status == CELL_MANIFEST_DONE:
                    stats.resumed += 1
                progress.mark(cell.alias, cell.digest, cell.key)
                yield from answer(cell, cell.probe, cell.report, "store")

        def finish(completed: Iterator[Any]) -> Iterator[SweepResult]:
            for future in completed:
                shard = futures.pop(future)
                outcomes = shard_outcomes(shard, future.result())
                # Persist before yielding: a consumer closing the generator
                # must not lose this shard's reports or alias rows.
                persist_shard(store, context, shard, outcomes)
                release_claims(store, [held.pop(cell.alias) for cell in shard
                                       if cell.alias in held])
                for cell, (key, report, error) in zip(shard, outcomes):
                    key = key if key is not None else cell.alias
                    if report is not None:
                        stats.computed += 1
                        progress.mark(cell.alias, cell.digest, key)
                        yield from answer(cell, key, report, "computed")
                    else:
                        stats.failed += 1
                        yield from answer(cell, key, None, "failed", error)
                if manifest:
                    self._write_manifest(manifest, context.method, list(slots),
                                         progress.done, completed=False,
                                         cells=progress.cells, stats=stats)

        try:
            yield from answer_from_store(plan.done)
            pending = plan.pending
            claimed, contended = claim_cells(store, pending)
            held.update((cell.alias, cell) for cell in claimed)
            size = 1
            if pending:
                portfolio = self._warm_pool()
                size = shard_size or recommend_shard_size(
                    len(pending), portfolio.worker_count(),
                    oversubscription=self.oversubscription,
                    hit_rate=plan.hit_rate)
                stats.shard_size = size

            def submit(cells: List[PlannedCell]) -> None:
                for shard in _chunk(cells, size):
                    fn, args = context.shard_task(self._portfolio, shard)
                    futures[self._portfolio.pool.submit(fn, *args)] = shard
                    stats.shards += 1

            submit(claimed)
            # Contended cells: keep finishing our own shards while their
            # holders are alive, then recheck once and solve what is
            # still missing.
            for delay in claim_waits(store, contended):
                if not futures:
                    time.sleep(delay)
                    continue
                try:
                    yield from finish(as_completed(list(futures),
                                                   timeout=delay))
                except FuturesTimeout:
                    pass
            answered, missing = recheck_cells(store, context, contended)
            stats.dup_solves_avoided += len(answered)
            yield from answer_from_store(answered)
            submit(missing)
            yield from finish(as_completed(list(futures)))
        finally:
            stats.wall_time = time.perf_counter() - start_time
            for future in futures:
                future.cancel()
            release_claims(store, held.values())
            if manifest:
                completed = len(progress.done) + stats.failed >= stats.unique
                self._write_manifest(manifest, context.method, list(slots),
                                     progress.done, completed=completed,
                                     cells=progress.cells, stats=stats)
        return stats

    def run(self, scenarios: Union[Sequence[Problem], Sequence[ScenarioSpec],
                                   ScenarioGrid],
            method: str = "auto", *,
            manifest: Optional[str] = None,
            shard_size: Optional[int] = None,
            on_result: Optional[Callable[[SweepResult], None]] = None,
            **options: Any) -> SweepReport:
        """Run a full sweep and collect every result (batch order).

        Accepts the same scenario forms as :meth:`sweep` (problems, specs
        or a :class:`~repro.scenarios.spec.ScenarioGrid`).  ``on_result``
        is invoked on each :class:`SweepResult` as it streams in -- the
        callback API for progress reporting or incremental consumers that
        still want the final report.
        """
        results: List[SweepResult] = []
        generator = self.sweep(scenarios, method, manifest=manifest,
                               shard_size=shard_size, **options)
        while True:
            try:
                result = next(generator)
            except StopIteration as stop:
                stats = stop.value if stop.value is not None else self.last_stats
                break
            results.append(result)
            if on_result is not None:
                on_result(result)
        results.sort(key=lambda r: r.index)
        return SweepReport(results=results, stats=stats)
