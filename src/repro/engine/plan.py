"""Incremental sweep planning: classify cells before any shard is formed.

The sweep services historically resolved each unique cell against the
store one key at a time, and sized shards from a static pool-width
heuristic that never looked at what the store had already answered.
This module is the planning tier that replaces both:

* :func:`build_sweep_plan` takes a sweep's unique cells (``(identity,
  item)`` pairs from :func:`dedup_cells`) and classifies **every** cell
  in one batched store pass (:meth:`SolutionStore.get_reports_many
  <repro.engine.store.SolutionStore.get_reports_many>`) into

  - ``store-hit`` -- the request fingerprint was known (a problem's own
    key, or a spec's in-process memo) and the store holds the report;
  - ``alias-hit`` -- the fingerprint came from the persistent
    ``{"alias_of": ...}`` entry a previous process wrote; still zero DAG
    builds;
  - ``manifest-done`` -- a resume manifest marked the cell completed
    *and* the store still holds the report (the store stays the source
    of truth: a manifest entry whose report was lost re-pends);
  - ``pending`` -- genuinely new work, the only cells a shard (or the
    cluster wire) should ever carry.

* :func:`recommend_shard_size` picks the shard size from the *plan*
  (pending-cell count, measured hit rate, cluster runner count) instead
  of the submitted batch size, so a warm 10k-cell grid with three cold
  cells forms three one-cell shards instead of pool-width monsters.

No DAG is ever materialized here: classification runs on spec content
(:meth:`~repro.scenarios.spec.ScenarioSpec.cell_digest`), the spec-key
memo (:func:`~repro.engine.fingerprint.cached_spec_fingerprint`) and
store payloads.  Pair with :func:`repro.scenarios.grid_diff` to know the
gained/lost cells of an edited grid before even planning it.

The rest of a cell's lifecycle is written here once too, and both sweep
drivers (:class:`~repro.engine.service.SweepService` and
:class:`~repro.engine.async_service.AsyncSweepService`) call it:

* **cells** -- a cell is a :class:`~repro.scenarios.spec.ScenarioSpec`
  (identity: its ``spec_alias_key``) or a materialized problem (identity:
  its ``request_key``); :func:`dedup_cells` groups a batch by identity;
* **claims** -- :func:`claim_cells` takes a solve claim on each pending
  cell's identity; a cell whose claim is held by a live process is
  waited on (:func:`claim_waits`, at most :data:`CLAIM_WAIT_SECONDS`),
  rechecked once in a batch (:func:`recheck_cells`) and solved here only
  if its report is still missing.  Claims are released once their shard
  is persisted (:func:`release_claims`);
* **shards** -- :meth:`CellContext.shard_task` builds the executor task
  for either kind, and :func:`shard_outcomes` normalizes what it returns
  to ``(key, report, error)`` triples;
* **persist** -- :func:`persist_shard` writes the reports, the spec alias
  rows and the spec-key memo of one finished shard.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import (Any, Dict, Iterable, Iterator, List, Optional, Sequence,
                    Set, Tuple)

from repro.engine.core import request_key
from repro.engine.fingerprint import (
    cached_spec_fingerprint,
    record_spec_fingerprint,
    spec_alias_key,
)
from repro.scenarios.spec import ScenarioSpec

__all__ = [
    "CELL_ALIAS_HIT",
    "CELL_MANIFEST_DONE",
    "CELL_PENDING",
    "CELL_STORE_HIT",
    "CLAIM_WAIT_SECONDS",
    "CellContext",
    "PlannedCell",
    "SweepPlan",
    "build_sweep_plan",
    "claim_cells",
    "claim_waits",
    "dedup_cells",
    "persist_shard",
    "recheck_cells",
    "recommend_shard_size",
    "release_claims",
    "shard_outcomes",
]

#: Cell classifications, in the order the tiers are consulted.
CELL_STORE_HIT = "store-hit"
CELL_ALIAS_HIT = "alias-hit"
CELL_MANIFEST_DONE = "manifest-done"
CELL_PENDING = "pending"


#: Longest a driver waits on another process's live solve claim before
#: solving the cell itself anyway (correct either way, just duplicated).
CLAIM_WAIT_SECONDS = 30.0
_CLAIM_POLL_SECONDS = 0.05


@dataclass
class PlannedCell:
    """One unique cell's classification (see :func:`build_sweep_plan`)."""

    #: The cell identity: ``spec_alias_key`` of a spec, ``request_key``
    #: of a materialized problem.  Dedup, claims and manifests use it.
    alias: str
    #: The declarative cell (``None`` for a materialized problem).
    spec: Any
    #: Content digest of the spec (``None`` for a materialized problem).
    digest: Optional[str]
    #: One of the ``CELL_*`` constants.
    status: str
    #: Resolved request fingerprint (``None`` for never-seen spec cells).
    key: Optional[str] = None
    #: The store's report for done cells (``None`` when pending).
    report: Any = None
    #: The materialized problem (``None`` for a spec cell).
    problem: Any = None

    @property
    def done(self) -> bool:
        """Answered without solving (any non-pending status)."""
        return self.status != CELL_PENDING

    @property
    def probe(self) -> str:
        """The store key that answers this cell: its request fingerprint
        when known, else its identity (a spec alias row)."""
        return self.key if self.key is not None else self.alias


@dataclass
class SweepPlan:
    """A classified sweep: what the caches answer, what actually runs.

    ``cells`` holds one :class:`PlannedCell` per unique alias in
    submission order.  The plan is *advice plus evidence*: the services
    yield the carried reports for done cells and shard only
    :attr:`pending`; the cluster router ships only :attr:`pending` over
    the wire.
    """

    cells: List[PlannedCell] = field(default_factory=list)
    method: str = "auto"

    # ------------------------------------------------------------------
    @property
    def pending(self) -> List[PlannedCell]:
        """Cells that need a solver, in submission order."""
        return [cell for cell in self.cells if cell.status == CELL_PENDING]

    @property
    def done(self) -> List[PlannedCell]:
        """Cells the caches answered, in submission order."""
        return [cell for cell in self.cells if cell.done]

    def by_alias(self) -> Dict[str, PlannedCell]:
        """The cells keyed by identity."""
        return {cell.alias: cell for cell in self.cells}

    def count(self, status: str) -> int:
        return sum(1 for cell in self.cells if cell.status == status)

    @property
    def hit_rate(self) -> float:
        """Fraction of unique cells answered without solving."""
        return len(self.done) / len(self.cells) if self.cells else 0.0

    def shard_size(self, worker_count: int, *, oversubscription: int = 4,
                   runner_count: int = 1) -> int:
        """Adaptive shard size for this plan's pending cells."""
        return recommend_shard_size(
            len(self.pending), worker_count,
            oversubscription=oversubscription,
            runner_count=runner_count, hit_rate=self.hit_rate)

    def counts(self) -> Dict[str, int]:
        """Classification histogram plus totals (for logs and metrics)."""
        return {
            "cells": len(self.cells),
            "store_hit": self.count(CELL_STORE_HIT),
            "alias_hit": self.count(CELL_ALIAS_HIT),
            "manifest_done": self.count(CELL_MANIFEST_DONE),
            "pending": len(self.pending),
        }

    def summary(self) -> str:
        counts = self.counts()
        return (f"{counts['cells']} cells: {counts['store_hit']} store-hit, "
                f"{counts['alias_hit']} alias-hit, "
                f"{counts['manifest_done']} manifest-done, "
                f"{counts['pending']} pending "
                f"({self.hit_rate:.0%} answered)")


def recommend_shard_size(pending: int, worker_count: int, *,
                         oversubscription: int = 4, runner_count: int = 1,
                         hit_rate: float = 0.0) -> int:
    """Shard size from the plan, not the submitted batch size.

    Three inputs replace the static pool-width heuristic:

    * only **pending** cells count -- cache-answered cells never reach a
      shard, so they must not inflate shard sizes either;
    * ``runner_count`` spreads the fan-out across every cluster runner's
      pool, not just the local one;
    * the measured ``hit_rate`` biases warm sweeps toward finer shards:
      a mostly-answered sweep is latency-bound, and its few cold cells
      should spread across the whole pool instead of queueing behind one
      straggler shard.

    With ``hit_rate=0`` and ``runner_count=1`` this reproduces the
    historical :meth:`Portfolio.shard_plan
    <repro.engine.portfolio.Portfolio.shard_plan>` sizing exactly, so
    cold sweeps keep their pinned shard counts.
    """
    if pending <= 0:
        return 1
    lanes = max(1, worker_count) * max(1, runner_count)
    # hit_rate scales oversubscription up smoothly, capped at 16x so a
    # 100%-warm plan cannot divide by zero.
    effective = max(1.0, oversubscription / max(1.0 - hit_rate, 1.0 / 16.0))
    return max(1, math.ceil(pending / (lanes * effective)))


@dataclass
class CellContext:
    """The solve context a sweep's cells share: part of every identity,
    fingerprint and shard task."""

    method: str = "auto"
    limits: Any = None
    validate: bool = True
    options: Dict[str, Any] = field(default_factory=dict)

    def identity(self, item: Any) -> str:
        """A spec's ``spec_alias_key``, a problem's ``request_key``."""
        if isinstance(item, ScenarioSpec):
            return spec_alias_key(item, self.method, limits=self.limits,
                                  validate=self.validate, **self.options)
        return request_key(item, self.method, limits=self.limits,
                           validate=self.validate, **self.options)

    def learn(self, spec: Any, key: Optional[str]) -> None:
        """Memoize a spec's request fingerprint once it is known (a
        materialized problem, or ``None``, has nothing to memoize)."""
        if isinstance(spec, ScenarioSpec) and key is not None:
            record_spec_fingerprint(spec, key, self.method,
                                    limits=self.limits,
                                    validate=self.validate, **self.options)

    def shard_task(self, portfolio: Any,
                   cells: Sequence[PlannedCell]) -> Tuple[Any, Tuple]:
        """``(callable, args)`` solving one shard of same-kind cells.

        Spec shards travel as specs and materialize inside the worker;
        problem shards travel materialized.  Either way
        :func:`shard_outcomes` turns the callable's return value into
        ``(key, report, error)`` triples.
        """
        if cells[0].spec is not None:
            return portfolio.spec_shard_task(
                [cell.spec for cell in cells], self.method,
                validate=self.validate, **self.options)
        return portfolio.shard_task(
            [cell.problem for cell in cells], self.method,
            validate=self.validate, **self.options)


def dedup_cells(items: Sequence[Any], context: CellContext
                ) -> Tuple[List[str], List[Tuple[str, Any]]]:
    """Group a batch by cell identity, before any DAG is built.

    Returns each slot's identity and the ``(identity, item)`` pairs of the
    unique cells in submission order -- the input of
    :func:`build_sweep_plan`.
    """
    identities = [context.identity(item) for item in items]
    unique: Dict[str, Any] = {}
    for identity, item in zip(identities, items):
        unique.setdefault(identity, item)
    return identities, list(unique.items())


def build_sweep_plan(cells: Sequence[Tuple[str, Any]], method: str = "auto", *,
                     store: Any = None,
                     limits: Any = None,
                     validate: bool = True,
                     manifest_done: Optional[Iterable[str]] = None,
                     **options: Any) -> SweepPlan:
    """Classify a sweep's unique cells in one batched store pass.

    Parameters
    ----------
    cells:
        ``(identity, item)`` pairs, one per unique cell in submission
        order (see :func:`dedup_cells`).  An item is a
        :class:`~repro.scenarios.spec.ScenarioSpec` or a materialized
        problem; a problem's identity is its request fingerprint, so it
        is probed directly.
    store:
        The :class:`~repro.engine.store.SolutionStore` to consult; with
        ``None`` every cell whose fingerprint is not memoized is simply
        pending.
    manifest_done:
        Tokens a resume manifest recorded as completed.  Any of a cell's
        identities may match -- its alias, its resolved request
        fingerprint or its cell digest -- which is what lets v2
        (digest-keyed) and legacy v1 (request-keyed) manifests both
        drive resume.
    method / limits / validate / options:
        The sweep's solve context (part of every fingerprint).

    Cells resolved through a persistent alias entry are recorded into
    the in-process spec-key memo as a side effect, exactly as the
    per-cell path did -- the next sweep in this process skips the store
    round-trip for them.
    """
    marked: Set[str] = set(manifest_done or ())
    planned: List[PlannedCell] = []
    for alias, item in cells:
        if isinstance(item, ScenarioSpec):
            planned.append(PlannedCell(
                alias=alias, spec=item, digest=item.cell_digest(),
                status=CELL_PENDING,
                key=cached_spec_fingerprint(item, method, limits=limits,
                                            validate=validate, **options)))
        else:
            planned.append(PlannedCell(alias=alias, spec=None, digest=None,
                                       status=CELL_PENDING, key=alias,
                                       problem=item))

    if store is not None and planned:
        # One batched pass: cells with a known fingerprint probe it
        # directly, the rest probe their alias entry (followed to its
        # target inside the store, still batched per shard).
        probes = [cell.probe for cell in planned]
        resolved = store.get_reports_many(probes)
        for cell, probe in zip(planned, probes):
            true_key, report = resolved.get(probe, (None, None))
            via_alias = cell.key is None and true_key is not None
            if via_alias:
                cell.key = true_key
                record_spec_fingerprint(cell.spec, true_key, method,
                                        limits=limits, validate=validate,
                                        **options)
            if report is None:
                continue
            cell.report = report
            if marked and not marked.isdisjoint(
                    (cell.alias, cell.digest or "", cell.key or "")):
                cell.status = CELL_MANIFEST_DONE
            elif via_alias:
                cell.status = CELL_ALIAS_HIT
            else:
                cell.status = CELL_STORE_HIT

    return SweepPlan(cells=planned, method=method)


# ---------------------------------------------------------------------------
# claims: one protocol for both drivers
# ---------------------------------------------------------------------------

def claim_cells(store: Any, cells: Sequence[PlannedCell]
                ) -> Tuple[List[PlannedCell], List[PlannedCell]]:
    """Claim each cell's identity: ``(claimed, contended)``.

    Without a store there is nobody to race, so every cell counts as
    claimed (and :func:`release_claims` has nothing to drop).
    """
    if store is None:
        return list(cells), []
    claimed: List[PlannedCell] = []
    contended: List[PlannedCell] = []
    for cell in cells:
        (claimed if store.claim_solve(cell.alias) else contended).append(cell)
    return claimed, contended


def claim_waits(store: Any, contended: Sequence[PlannedCell]
                ) -> Iterator[float]:
    """Poll intervals to sleep while a contended cell's holder is alive.

    Stops once no holder is alive or :data:`CLAIM_WAIT_SECONDS` have
    passed; the driver sleeps (or does other work) for each yielded
    interval, then calls :func:`recheck_cells` once.
    """
    deadline = time.monotonic() + CLAIM_WAIT_SECONDS
    while (contended and time.monotonic() < deadline
           and any(store.solve_claim_holder(cell.alias) is not None
                   for cell in contended)):
        yield _CLAIM_POLL_SECONDS


def recheck_cells(store: Any, context: CellContext,
                  cells: Sequence[PlannedCell]
                  ) -> Tuple[List[PlannedCell], List[PlannedCell]]:
    """One batched store look: ``(answered, missing)``.

    Answered cells carry the store's report and resolved fingerprint
    (memoized for spec cells) and are reclassified as store hits.
    """
    if store is None or not cells:
        return [], list(cells)
    found = store.get_reports_many([cell.probe for cell in cells])
    answered: List[PlannedCell] = []
    missing: List[PlannedCell] = []
    for cell in cells:
        true_key, report = found.get(cell.probe, (None, None))
        if report is None:
            missing.append(cell)
            continue
        if true_key is not None and true_key != cell.key:
            cell.key = true_key
            context.learn(cell.spec, true_key)
        cell.report = report
        cell.status = CELL_STORE_HIT
        answered.append(cell)
    return answered, missing


def release_claims(store: Any, cells: Iterable[PlannedCell]) -> None:
    """Drop the claims :func:`claim_cells` took on ``cells``."""
    if store is not None:
        for cell in cells:
            store.release_solve_claim(cell.alias)


# ---------------------------------------------------------------------------
# shards: outcomes and persistence
# ---------------------------------------------------------------------------

Outcome = Tuple[Optional[str], Any, Optional[str]]


def shard_outcomes(cells: Sequence[PlannedCell], raw: Sequence[Any]
                   ) -> List[Outcome]:
    """A shard task's return value as ``(key, report, error)`` triples.

    Spec workers report each cell's request fingerprint, learned while
    materializing; problem cells already know theirs.
    """
    if cells[0].spec is not None:
        return list(raw)
    return [(cell.key, report, error)
            for cell, (report, error) in zip(cells, raw)]


def persist_shard(store: Any, context: CellContext,
                  cells: Sequence[PlannedCell],
                  outcomes: Sequence[Outcome]) -> None:
    """Persist one finished shard, before any of its waiters is answered.

    Writes the solved reports, the alias rows of solved spec cells (so the
    next plan resolves them without a DAG build) and memoizes every
    fingerprint the workers reported.
    """
    if store is not None:
        store.put_reports([(key, report) for key, report, _error in outcomes
                           if report is not None])
        aliases = [(cell.alias, {"alias_of": key})
                   for cell, (key, report, _error) in zip(cells, outcomes)
                   if report is not None and cell.spec is not None]
        if aliases:
            store.put_many(aliases)
    for cell, (key, _report, _error) in zip(cells, outcomes):
        context.learn(cell.spec, key)
