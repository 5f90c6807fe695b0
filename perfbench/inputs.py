"""Seeded workload inputs.

Everything a run sends to the program is built here from ``--seed``
alone: the sweep grids, the online cell universe with its arrival
schedules, and the oracle instances.  The program sees only the
generated specs.  :func:`fingerprint` hashes the inputs so the seed check
can show that one seed always yields the same workload.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Dict, List, Tuple

from repro.hardness.sat import OneInThreeSatInstance
from repro.loadgen.arrivals import ArrivalSchedule, build_schedule
from repro.scenarios import Axis, ScenarioGrid, ScenarioSpec

#: Entries of the engine's in-memory solution LRU (``engine.core``).
LRU_SIZE = 512

#: Cheap generator families shared by the sweep grids and the universe.
#: ``fork-join`` is unseeded, so its cells repeat across the seed axis.
CHEAP_GENERATORS = (
    {"generator": "chain",
     "params": {"lengths": Axis([[3, 4, 5], [2, 6, 3, 4], [5, 5]])}},
    {"generator": "sp-random", "params": {"num_jobs": Axis([5, 7, 9])}},
    {"generator": "staged-fork-join",
     "params": {"stage_widths": Axis([[2, 3], [3, 2, 2]]),
                "work": Axis([4, 6])}},
    {"generator": "fork-join",
     "params": {"width": Axis([2, 3]), "work": Axis([4, 8])}},
)

# -- closed loops -----------------------------------------------------------
#: Wall seconds of one pass of each closed loop, recorded once on a 2-CPU
#: host.  They fix a run's pass count from ``--seconds`` alone, so a
#: faster program gets no more samples (and no luckier minimum) than a
#: slower one, and a traced run repeats exactly the untraced run's passes.
BATCH_PASS_S = 7.0
ORACLE_PASS_S = 3.25


def passes(pass_s: float, seconds: float, minimum: int) -> int:
    """Passes of a closed loop measured for about ``seconds``."""
    return max(minimum, round(seconds / pass_s))


# -- sweep-batch ------------------------------------------------------------
#: Seeds per generator configuration in each sweep grid.
BATCH_SEEDS = 100


def _seed_axis(tag: str, seed: int, count: int) -> Tuple[int, ...]:
    rng = random.Random(f"{tag}|{seed}")
    return tuple(rng.randrange(1 << 31) for _ in range(count))


def batch_grids(seed: int) -> List[ScenarioGrid]:
    """A min-makespan and a min-resource grid over the cheap families."""
    seeds = _seed_axis("batch", seed, BATCH_SEEDS)
    return [
        ScenarioGrid(generators=CHEAP_GENERATORS, seeds=seeds,
                     budget_rules=(("per-job", 1.0),),
                     objective="min_makespan"),
        ScenarioGrid(generators=CHEAP_GENERATORS, seeds=seeds,
                     budget_rules=(("makespan-factor", 0.7),),
                     objective="min_resource"),
    ]


# -- online -----------------------------------------------------------------
#: Cells in the online universe (four times the LRU).
UNIVERSE_CELLS = 4 * LRU_SIZE
#: Zipf exponent of the hot-key skew.
SKEW = 1.1
#: The fixed arrival rates (requests/s).  Found once on a 2-CPU host:
#: one ``repro.serve --executor thread --workers 1`` keeps up with this
#: traffic to about 500 requests/s and falls behind at 600 (p99 near 2 s,
#: a growing backlog); ``high`` keeps a margin below that knee so its
#: p99 stays repeatable.
RATES = (("low", 100.0), ("mid", 200.0), ("high", 300.0))


def universe(seed: int) -> List[ScenarioSpec]:
    """``UNIVERSE_CELLS`` distinct single cells in seeded Zipf-rank order."""
    grid = ScenarioGrid(generators=CHEAP_GENERATORS[:3],
                        seeds=_seed_axis("universe", seed, 215),
                        budget_rules=(("per-job", 1.0),),
                        objective="min_makespan")
    cells = list({spec.cell_digest(): spec for spec in grid.expand()}.values())
    random.Random(f"rank|{seed}").shuffle(cells)
    return cells[:UNIVERSE_CELLS]


def prewarm_ranks() -> List[int]:
    """Half of the Zipf tail (every other rank past the LRU-sized head)."""
    return list(range(LRU_SIZE, UNIVERSE_CELLS, 2))


@dataclass
class Level:
    name: str
    schedule: ArrivalSchedule


#: Untimed warm-up traffic before the measured rates, in seconds at the
#: ``mid`` rate, so the measured window starts with the hot head solved.
WARMUP_S = 3.0


def warmup(seed: int) -> Level:
    rate = RATES[1][1]
    return Level("warmup",
                 build_schedule("poisson", rate=rate,
                                count=int(rate * WARMUP_S),
                                num_cells=UNIVERSE_CELLS, skew=SKEW,
                                seed=(seed + 1) * (len(RATES) + 1) - 1))


#: Share of ``--seconds`` taken by the fixed rates; the saturating phase
#: takes the rest.
RATE_SHARE = 0.5


def schedules(seed: int, seconds: float) -> List[Level]:
    """One Poisson schedule per fixed rate, together ``RATE_SHARE`` of
    ``seconds`` long."""
    span = RATE_SHARE * seconds / len(RATES)
    return [Level(name,
                  build_schedule("poisson", rate=rate,
                                 count=max(1, int(rate * span)),
                                 num_cells=UNIVERSE_CELLS, skew=SKEW,
                                 seed=seed * (len(RATES) + 1) + index))
            for index, (name, rate) in enumerate(RATES)]


#: The saturating phase after the fixed rates: a closed loop that keeps
#: ``SATURATE_WINDOW`` requests outstanding, so the servers work flat out
#: and their CPU per answer is the serving path's cost, not a share of
#: idle time.  It asks only for cells the store already holds (prewarmed
#: or requested earlier in the run): with no solves and no store writes
#: in it, it measures the serving path -- wire, queueing, store reads,
#: routing -- and does not swing with how shard rewrites interleave with
#: reads.  Its request count is fixed, ``SATURATE_RPS`` per second of its
#: share of ``--seconds``, whatever the program's speed; on a shared
#: 2-CPU VM one ``repro.serve`` answered the 6375 requests of a 15 s run
#: in 4-6 s.
SATURATE_WINDOW = 16
SATURATE_RPS = 850.0
#: Chunks of the saturating phase, each timed on its own (see
#: ``common.ReferenceClock``): the host's speed drifts within a second,
#: so short chunks keep each chunk close in time to its probes.
SATURATE_CHUNKS = 40


def saturation(seed: int, seconds: float) -> List[int]:
    """Seeded cells of the saturating phase, all already stored.

    The draws are uniform over the stored cells: under the Zipf skew one
    cell took a fifth of the requests and the families' shares swung by
    a factor of three from seed to seed, which moved the cost per answer
    with the seed rather than with the program."""
    count = max(1, int(SATURATE_RPS * (1.0 - RATE_SHARE) * seconds))
    stored = set(prewarm_ranks())
    for level in [warmup(seed)] + schedules(seed, seconds):
        stored.update(arrival.cell for arrival in level.schedule.arrivals)
    cells = sorted(stored)
    rng = random.Random(f"saturate|{seed}")
    return [rng.choice(cells) for _ in range(count)]


# -- exact-oracle -----------------------------------------------------------
#: Theorem 4.1 formulas with their exact optima (1 = yes, 2 = no): yes
#: and no instances whose exact verification takes 0.1-1.5 s each.
FORMULAS: Tuple[Tuple[OneInThreeSatInstance, float], ...] = (
    (OneInThreeSatInstance(1, ((1, 1, 1),)), 2.0),
    (OneInThreeSatInstance(1, ((-1, -1, -1),)), 2.0),
    (OneInThreeSatInstance(1, ((1, 1, -1),)), 1.0),
    (OneInThreeSatInstance(2, ((1, 1, 2),)), 1.0),
    (OneInThreeSatInstance(2, ((1, 2, 2),)), 1.0),
    (OneInThreeSatInstance(2, ((1, 1, 1),)), 2.0),
    (OneInThreeSatInstance(3, ((1, 2, 3),)), 1.0),
)
#: Seeded Partition multisets per pass, all of ``PARTITION_SIZE`` values
#: in 1..9: their verification times are close to each other, so they
#: hold the median check steady from seed to seed.
PARTITIONS = 60
PARTITION_SIZE = 4
ORACLE_CELLS = (
    ("layered-random", {"num_layers": 3, "jobs_per_layer": 2}),
    ("sp-random", {"num_jobs": 5}),
)
ORACLE_CELL_SEEDS = 12


def partitions(seed: int) -> List[Tuple[int, ...]]:
    rng = random.Random(f"partition|{seed}")
    return [tuple(rng.randint(1, 9) for _ in range(PARTITION_SIZE))
            for _ in range(PARTITIONS)]


def oracle_cells(seed: int) -> List[ScenarioSpec]:
    seeds = _seed_axis("oracle", seed, ORACLE_CELL_SEEDS)
    return [ScenarioSpec(generator, params, seed=cell_seed,
                         objective="min_makespan",
                         budget_rule=("per-job", 1.0))
            for generator, params in ORACLE_CELLS for cell_seed in seeds]


# -- seed check -------------------------------------------------------------
def fingerprint(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """Size and content hash of one workload's inputs."""
    if workload == "sweep-batch":
        cells = [s for g in batch_grids(seed) for s in g.expand()]
        extra: List[str] = []
    elif workload == "exact-oracle":
        cells = oracle_cells(seed)
        extra = [json.dumps(p) for p in partitions(seed)]
    else:
        cells = universe(seed)
        extra = [level.schedule.signature()
                 for level in schedules(seed, seconds)]
        extra.append(json.dumps(saturation(seed, seconds)))
    digest = hashlib.sha256()
    for spec in cells:
        digest.update(spec.cell_digest().encode())
    for item in extra:
        digest.update(item.encode())
    return {"cells": len(cells),
            "unique": len({s.cell_digest() for s in cells}),
            "requests": sum(len(level.schedule)
                            for level in schedules(seed, seconds))
            + len(saturation(seed, seconds))
            if workload.endswith("open-loop") else 0,
            "sha256": digest.hexdigest()}


def check_seed(workload: str, seed: int, seconds: float) -> Dict[str, object]:
    """Same seed -> same inputs; the next seed -> a comparable workload."""
    first = fingerprint(workload, seed, seconds)
    again = fingerprint(workload, seed, seconds)
    other = fingerprint(workload, seed + 1, seconds)
    problems = []
    if first != again:
        problems.append("the same seed produced different inputs")
    if other["sha256"] == first["sha256"]:
        problems.append("a second seed produced the same inputs")
    for key in ("cells", "unique", "requests"):
        low, high = sorted((first[key], other[key]))
        if high and low < 0.8 * high:
            problems.append(f"seed {seed + 1} changes the workload's {key} "
                            f"from {first[key]} to {other[key]}")
    return {"inputs": first, "problems": problems}
