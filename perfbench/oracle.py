"""``exact-oracle``: a closed loop over the exact verifiers, one thread.

A pass runs the fixed Theorem 4.1 formulas, the seeded Partition
multisets and the seeded ``exact-enumeration`` cells.  A run makes a
fixed number of passes for its ``--seconds`` (see :func:`inputs.passes`),
the throughput is that of the median pass and each check's latency that
of its fastest pass.  No store or service is involved, so almost all the
time is spent in ``core.exact``, ``core.minflow`` and ``core.maxflow``.

Checks: every reduction report must agree with brute force, formula
optima must equal the recorded ones (1 for yes, 2 for no instances), a
Partition optimum must be exactly ``B/2`` for yes instances and above it
for no instances, every enumeration optimum must equal the branch-and-bound optimum
of the two-tuple arc expansion (Lemma 3.1), computed after timing, and every pass must
reproduce the first pass's optima.
"""

from __future__ import annotations

import hashlib
import os
import time
from statistics import median
from typing import Any, Dict, List, Tuple

import repro.engine.core as engine_core
from common import ReferenceClock, self_peak_rss_mb
from inputs import FORMULAS, ORACLE_PASS_S, oracle_cells, partitions, passes
from repro.core.arcdag import expand_to_two_tuples, node_to_arc_dag
from repro.core.exact import exact_min_makespan_arcs
from repro.hardness.partition import PartitionInstance
from repro.hardness.verify import verify_partition_reduction, verify_theorem41
from repro.loadgen.report import percentile

#: Set-ups per run (the median is reported): each takes milliseconds,
#: so many of them are cheap and keep the median steady.
SETUPS = 15
#: Fewest passes of a run, whatever ``--seconds``.
MIN_PASSES = 3


def _build(seed: int):
    formulas = list(FORMULAS)
    multisets = [PartitionInstance(values) for values in partitions(seed)]
    problems = [spec.materialize() for spec in oracle_cells(seed)]
    return formulas, multisets, problems


def _pass(formulas, multisets, problems, clock: ReferenceClock
          ) -> Tuple[List[Tuple[str, Any]], List[float], List[float],
                     List[str]]:
    """One pass: (label, optimum) per check, per-check reference wall ms
    and CPU ms, failures.  Each of the three groups of checks is one
    clock segment."""
    optima: List[Tuple[str, Any]] = []
    latencies: List[float] = []
    cpu: List[float] = []
    scaled: List[float] = []
    scaled_cpu: List[float] = []
    failures: List[str] = []

    def timed(check):
        wall, used = time.perf_counter(), time.process_time()
        report = check()
        latencies.append((time.perf_counter() - wall) * 1000.0)
        cpu.append((time.process_time() - used) * 1000.0)
        return report

    def segment_done() -> None:
        factor = clock.scale()
        scaled.extend(ms * factor for ms in latencies[len(scaled):])
        scaled_cpu.extend(ms * factor for ms in cpu[len(scaled_cpu):])

    for index, (formula, expected) in enumerate(formulas):
        report = timed(lambda: verify_theorem41(formula))
        optima.append((f"formula {index}", report.reduced_optimum))
        if not report.agrees or report.reduced_optimum != expected:
            failures.append(f"formula {index}: agrees={report.agrees}, "
                            f"optimum {report.reduced_optimum} != {expected}")
    segment_done()
    for index, instance in enumerate(multisets):
        report = timed(lambda: verify_partition_reduction(instance))
        optima.append((f"partition {index}", report.reduced_optimum))
        exact_hit = report.reduced_optimum == report.threshold
        if not report.agrees or exact_hit != report.source_yes:
            failures.append(f"partition {instance.values}: agrees="
                            f"{report.agrees}, optimum "
                            f"{report.reduced_optimum}, threshold "
                            f"{report.threshold}")
    segment_done()
    for index, problem in enumerate(problems):
        report = timed(lambda: engine_core.solve(
            problem, method="exact-enumeration", use_cache=False))
        optima.append((f"cell {index}", (report.makespan, report.budget_used)))
    segment_done()
    return optima, scaled, scaled_cpu, failures


def run(seed: int, seconds: float, workdir: str, *,
        timed_end=None) -> Dict[str, Any]:
    """The workload, pinned to one CPU: its checks run in one thread, and
    pinned, the speed probe samples the CPU they run on (the two CPUs of
    a shared VM changed speed independently of each other)."""
    allowed = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(allowed)})
    try:
        return _measure(seed, seconds, timed_end)
    finally:
        os.sched_setaffinity(0, allowed)


def _measure(seed: int, seconds: float, timed_end) -> Dict[str, Any]:
    clock = ReferenceClock()
    setups: List[float] = []
    raw_setups: List[float] = []
    for _ in range(SETUPS):
        start = time.perf_counter()
        formulas, multisets, problems = _build(seed)
        raw_setups.append(time.perf_counter() - start)
        setups.append(raw_setups[-1] * clock.scale())
    done: List[Tuple[float, List[float], List[float]]] = []
    failures: List[str] = []
    reference = None
    for index in range(passes(ORACLE_PASS_S, seconds, MIN_PASSES)):
        start = time.perf_counter()
        optima, latencies, cpu, pass_failures = _pass(
            formulas, multisets, problems, clock)
        done.append((time.perf_counter() - start, latencies, cpu))
        failures += pass_failures
        if reference is None:
            reference = optima
        elif optima != reference:
            failures.append(f"pass {index + 1} optima differ from pass 1")

    if timed_end is not None:
        timed_end()
    # Independent optimum for every enumeration cell, after timing.
    cell_optima = [value for label, value in reference
                   if label.startswith("cell")]
    for index, (problem, (makespan, budget_used)) in enumerate(
            zip(problems, cell_optima)):
        arc_dag, _mapping = node_to_arc_dag(problem.dag)
        optimum, _ = exact_min_makespan_arcs(
            expand_to_two_tuples(arc_dag).arc_dag, problem.budget)
        if abs(optimum - makespan) > 1e-9 or budget_used > problem.budget + 1e-9:
            failures.append(f"cell {index}: enumeration optimum {makespan} "
                            f"(budget {budget_used}) != branch-and-bound "
                            f"optimum {optimum} (budget {problem.budget})")
    checks = len(reference)
    # Latencies: each check's fastest pass, in reference milliseconds (the
    # checks are deterministic, so noise only adds time).  Throughput: the
    # median pass, as a minimum over passes would pick, check by check,
    # the pass whose speed probe happened to read the host fastest.
    fastest = [min(times) for times in zip(*(lat for _, lat, _ in done))]
    pass_cpu_s = median([sum(cpu) for _, _, cpu in done]) / 1000.0
    pass_wall_s = median([sum(lat) for _, lat, _ in done]) / 1000.0
    return {
        "attempted": checks * len(done) + len(problems),
        "failures": failures,
        "metrics": {
            "setup_s": median(setups),
            "answers_per_cpu_s": checks / pass_cpu_s,
            "answer_p50_ms": median(fastest),
            "answer_p99_ms": percentile(fastest, 99.0),
            "peak_rss_mb": self_peak_rss_mb(),
        },
        "details": {
            "oracle_s": (median([w for w, _, _ in done]), "s", len(done)),
            "answers_per_s": (checks / pass_wall_s, "1/s", len(done)),
            "wall_setup_s": (median(raw_setups), "s", len(raw_setups)),
            "host_speed": (clock.speed(), "ratio", len(clock.probes)),
            "checks_per_pass": (checks, "count", 1),
            "optima_digest": (hashlib.sha256(repr(reference).encode())
                              .hexdigest(), "sha256", 1),
        },
        "layer_inputs": {"cells": checks * len(done)},
    }
