"""``sweep-batch``: a closed loop of cold and warm sweeps in process.

Each pass sets up a fresh ``SweepService`` over an empty store and a
two-worker process pool, sweeps both seeded grids cold, then twice more
warm from the store, clearing the in-process caches before each sweep.
A run makes a fixed number of passes for its ``--seconds`` (see
:func:`inputs.passes`) and each figure is the median over the passes.
Every pass must return the same answers, and the warm answers must equal
the cold ones cell for cell.
"""

from __future__ import annotations

import hashlib
import os
import random
import shutil
import time
from statistics import median
from typing import Any, Dict, List, Optional, Tuple

from common import ReferenceClock, live_cpu_s, self_peak_rss_mb
from inputs import BATCH_PASS_S, batch_grids, passes
from repro.engine.core import clear_caches, solve
from repro.engine.portfolio import Portfolio
from repro.engine.service import SweepService
from repro.loadgen.report import percentile

WORKERS = 2
#: Warm re-sweeps after each cold sweep (each after ``clear_caches()``),
#: as when an analysis is re-run against a filled store.  With two of
#: them the median answer is a warm one and the 99th percentile a cold
#: one, so neither sits on the boundary between the two.
WARM_SWEEPS = 2
#: Cells re-solved in process after timing, against the sweep's answers.
REFERENCE_SAMPLE = 60
#: Set-ups per run (the median is reported): each takes milliseconds,
#: so many of them are cheap and keep the median steady.
MIN_SETUPS = 15
#: Fewest passes of a run, whatever ``--seconds``: with three, the median
#: pass drops one that a transient stall of the host slowed down.
MIN_PASSES = 3


def _answer(result) -> Tuple[Any, ...]:
    report = result.report
    if report is None:
        return (result.key, None, None, None)
    return (result.key, report.solver_id, report.makespan, report.budget_used)


def _setup(workdir: str, index: int) -> Tuple[SweepService, float]:
    """Empty store + started pool with both workers up."""
    start = time.perf_counter()
    store_dir = os.path.join(workdir, f"store-{index}")
    service = SweepService(store=store_dir,
                           portfolio=Portfolio(executor="process",
                                               max_workers=WORKERS))
    pool = service.portfolio.start().pool
    for future in [pool.submit(os.getpid) for _ in range(WORKERS)]:
        future.result()
    return service, time.perf_counter() - start


def _cpu_s(service: SweepService) -> float:
    """CPU seconds so far of this process and of the pool's workers."""
    pool = service.portfolio.pool
    return time.process_time() + live_cpu_s(list(pool._processes or ()))


def _teardown(service: SweepService) -> None:
    pool = service.portfolio.pool
    service.close()
    if pool is not None:
        pool.shutdown(wait=True)


def _sweep(service: SweepService, grids, manifest: str
           ) -> Tuple[List[Tuple[Any, ...]], List[float], float]:
    """One sweep over every grid: answers, per-answer latency, wall."""
    answers: List[Tuple[Any, ...]] = []
    latencies: List[float] = []
    start = time.perf_counter()
    for index, grid in enumerate(grids):
        for result in service.sweep(grid, manifest=f"{manifest}-{index}.json"):
            latencies.append((time.perf_counter() - start) * 1000.0)
            answers.append((result.index, index) + _answer(result))
    return answers, latencies, time.perf_counter() - start


def run(seed: int, seconds: float, workdir: str, *,
        timed_end=None) -> Dict[str, Any]:
    grids = batch_grids(seed)
    cells = [spec for grid in grids for spec in grid.expand()]
    clock = ReferenceClock()
    setups: List[float] = []
    raw_setups: List[float] = []
    done: List[Dict[str, Any]] = []
    failures: List[str] = []
    reference: Optional[List[Tuple[Any, ...]]] = None

    def setup(index: int) -> SweepService:
        clear_caches()
        service, setup_s = _setup(workdir, index)
        raw_setups.append(setup_s)
        setups.append(setup_s * clock.scale())
        return service

    def sweep(service: SweepService, name: str):
        """One sweep; its latencies, wall and CPU in reference time, and
        its wall in seconds."""
        cpu = _cpu_s(service)
        answers, latencies, wall = _sweep(service, grids,
                                          os.path.join(workdir, name))
        cpu = _cpu_s(service) - cpu
        factor = clock.scale()
        return (answers, [ms * factor for ms in latencies], wall * factor,
                cpu * factor, wall)

    for index in range(passes(BATCH_PASS_S, seconds, MIN_PASSES)):
        service = setup(index)
        try:
            cold, latencies, cold_wall, cpu, raw_cold = sweep(
                service, f"cold-{index}")
            warm, warm_wall, raw_wall = [], 0.0, raw_cold
            for again in range(WARM_SWEEPS):
                clear_caches()
                answers, lat, wall, more_cpu, raw = sweep(
                    service, f"warm-{index}-{again}")
                warm.append(sorted(answers))
                latencies += lat
                warm_wall += wall
                cpu += more_cpu
                raw_wall += raw
            lock_waits = service.store.lock_waits
        finally:
            _teardown(service)
        shutil.rmtree(os.path.join(workdir, f"store-{index}"),
                      ignore_errors=True)
        done.append({"wall": cold_wall + warm_wall, "cold": cold_wall,
                     "warm": warm_wall, "raw_wall": raw_wall,
                     "raw_cold": raw_cold, "cpu": cpu,
                     "latencies": latencies,
                     "answers": len(cold) * (1 + WARM_SWEEPS)})
        cold.sort()
        failures += [f"cell {a[0]} of grid {a[1]} failed"
                     for a in cold if a[3] is None]
        failures += ["warm answers differ from cold answers"
                     for answers in warm if answers != cold]
        if reference is None:
            reference = cold
        elif cold != reference:
            failures.append(f"pass {index + 1} answers differ from pass 1")
    while len(setups) < MIN_SETUPS:
        _teardown(setup(len(setups)))
        shutil.rmtree(os.path.join(workdir, f"store-{len(setups) - 1}"),
                      ignore_errors=True)

    if timed_end is not None:
        timed_end()
    # In-process reference solves for a seeded sample, after timing.
    clear_caches()
    by_cell = {(a[1], a[0]): a for a in reference}
    grid_sizes = [grid.size() for grid in grids]
    rng = random.Random(f"batch-sample|{seed}")
    for position in rng.sample(range(len(cells)), REFERENCE_SAMPLE):
        grid_index = 0 if position < grid_sizes[0] else 1
        index = position - (grid_sizes[0] if grid_index else 0)
        report = solve(cells[position].materialize())
        got = by_cell[(grid_index, index)]
        if (got[4], got[5]) != (report.makespan, report.budget_used):
            failures.append(f"cell {index} of grid {grid_index}: sweep says "
                            f"{got[4:6]}, solve() says "
                            f"{(report.makespan, report.budget_used)}")
    cold_cells = len(cells)
    return {
        "attempted": sum(p["answers"] for p in done) + REFERENCE_SAMPLE,
        "failures": failures,
        # Each figure is the median over the run's passes, in reference
        # time (see common.ReferenceClock).
        "metrics": {
            "setup_s": median(setups),
            "answers_per_cpu_s": median([p["answers"] / p["cpu"]
                                         for p in done]),
            "answer_p50_ms": median([median(p["latencies"])
                                     for p in done]),
            "answer_p99_ms": median([percentile(p["latencies"], 99.0)
                                     for p in done]),
            "peak_rss_mb": self_peak_rss_mb(),
        },
        "details": {
            "cells_per_s.cold": (median([cold_cells / p["cold"]
                                         for p in done]), "1/s",
                                 len(done)),
            "cells_per_s.warm": (median([cold_cells * WARM_SWEEPS / p["warm"]
                                         for p in done]), "1/s",
                                 len(done)),
            "answers_per_s": (median([p["answers"] / p["wall"]
                                      for p in done]), "1/s", len(done)),
            "wall_answers_per_s": (median([p["answers"] / p["raw_wall"]
                                           for p in done]), "1/s", len(done)),
            "wall_setup_s": (median(raw_setups), "s", len(raw_setups)),
            "host_speed": (clock.speed(), "ratio", len(clock.probes)),
            "cells": (cold_cells, "count", 1),
            "unique_cells": (len({s.cell_digest() for s in cells}),
                             "count", 1),
            "setups": (len(setups), "count", 1),
            "result_digest": (hashlib.sha256(repr(reference).encode())
                              .hexdigest(), "sha256", 1),
        },
        "layer_inputs": {
            "cells": sum(p["answers"] for p in done),
            "shard_wall_ms": sum(p["raw_cold"] for p in done) * 1000.0,
            "workers": WORKERS,
            "lock_waits": lock_waits,
        },
    }
