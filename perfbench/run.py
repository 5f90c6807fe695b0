"""The sweep system's benchmark: one command per workload and seed.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see ``BENCHMARK.json`` for why each was chosen):

* ``sweep-batch`` -- cold then warm ``SweepService`` sweeps in process;
* ``serve-open-loop`` -- open-loop traffic to one ``repro.serve``;
* ``cluster-open-loop`` -- the same traffic to a two-runner cluster;
* ``exact-oracle`` -- the exact verifiers, no store or service.

Every run builds its inputs from ``--seed``, checks the seed's inputs
are reproducible, measures for about ``--seconds``, checks every answer
and reconciles every count.  The bounded times (``setup_s`` in wall
seconds, ``answers_per_cpu_s`` in CPU seconds of the program under test)
are in reference seconds: scaled by a host speed probe taken around each
timed segment (see ``common.ReferenceClock``); the unscaled and the
wall-clock rates are printed beside them.

A run prints each metric by name with unit and sample count, then one
JSON line as its last line of output.  With ``--trace 0`` that line
carries the end-to-end metrics; with ``--trace 1`` the workload runs once
untraced and once traced and the line carries the per-layer metrics,
including the tracing overhead.  A wrong answer or an unreconciled count
makes the run exit with status 1.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from common import ROOT, SRC, BenchError, make_workdir  # noqa: E402

#: Workload and metric names with their units, as ``BENCHMARK.json``
#: declares them.
with open(os.path.join(ROOT, "BENCHMARK.json")) as _handle:
    _DECLARED = json.load(_handle)
WORKLOADS = tuple(w["name"] for w in _DECLARED["workloads"])
END_TO_END = {m["name"]: m["unit"] for m in _DECLARED["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in _DECLARED["per_layer"]}
#: Reported on every run but not bounded: on a shared 2-CPU VM one seed
#: gave open-loop p50 2.5-6.7 ms and p99 40-93 ms from run to run, wider
#: than any usable bound.
UNBOUNDED = {"answer_p50_ms": "ms", "answer_p99_ms": "ms"}


def _run_workload(name: str, seed: int, seconds: float, workdir: str,
                  traced: bool):
    """One measured run; with ``traced`` the span wrappers are live."""
    import spans

    trace_dir = os.path.join(workdir, "spans") if traced else None
    if name in ("sweep-batch", "exact-oracle"):
        tracer = None
        if traced:
            tracer = spans.Tracer(trace_dir)
            spans.install(tracer)
        module = __import__("batch" if name == "sweep-batch" else "oracle")
        outcome = module.run(seed, seconds, workdir,
                             timed_end=tracer.stop if tracer else None)
    else:
        import online

        outcome = online.run(seed, seconds, workdir,
                             cluster=name == "cluster-open-loop",
                             trace_dir=trace_dir)
    if traced:
        outcome["summaries"] = spans.load_summaries(trace_dir)
    return outcome


def _print_table(title: str, rows) -> None:
    print(f"-- {title}")
    for name, (value, unit, samples) in rows.items():
        shown = f"{value:.6g}" if isinstance(value, float) else str(value)
        print(f"   {name:<40} {shown:>16} {unit:<7} n={samples}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    workdir = make_workdir(args.workload)
    os.makedirs(os.path.join(workdir, "tmp"))
    os.environ["TMPDIR"] = os.path.join(workdir, "tmp")
    tempfile.tempdir = None
    os.chdir(workdir)
    started = time.perf_counter()
    try:
        import inputs

        seed_check = inputs.check_seed(args.workload, args.seed, args.seconds)
        outcome = _run_workload(args.workload, args.seed, args.seconds,
                                workdir, traced=False)
        if args.trace:
            traced_dir = os.path.join(workdir, "traced")
            os.makedirs(traced_dir)
            traced = _run_workload(args.workload, args.seed, args.seconds,
                                   traced_dir, traced=True)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(workdir))
        except OSError:
            pass  # another run is still using it

    failures = seed_check["problems"] + outcome["failures"]
    attempted = outcome["attempted"]
    if args.trace:
        failures += traced["failures"]
        attempted += traced["attempted"]
    outcome["details"]["fail_share"] = (len(failures) / attempted, "share",
                                        attempted)
    print(f"workload {args.workload}, seed {args.seed}, "
          f"{time.perf_counter() - started:.1f} s wall")
    print(f"inputs: {json.dumps(seed_check['inputs'])}")
    end_to_end = outcome["metrics"]
    _print_table("end-to-end", {
        name: (end_to_end[name], unit, outcome["attempted"])
        for name, unit in {**END_TO_END, **UNBOUNDED}.items()})
    _print_table("workload detail", outcome["details"])
    if args.trace:
        import layers

        per_layer = layers.compute(traced["summaries"],
                                   traced["layer_inputs"], end_to_end,
                                   traced["metrics"])
        if set(per_layer) != set(PER_LAYER):
            print("perfbench: the traced run computed "
                  f"{sorted(set(per_layer) ^ set(PER_LAYER))} unlike "
                  "BENCHMARK.json's per-layer list", file=sys.stderr)
            return 1
        _print_table("per-layer (traced run)", {
            name: (per_layer[name], unit, traced["attempted"])
            for name, unit in PER_LAYER.items()})
        reported = {name: {"value": per_layer[name], "unit": unit}
                    for name, unit in PER_LAYER.items()}
    else:
        reported = {name: {"value": end_to_end[name], "unit": unit}
                    for name, unit in END_TO_END.items()}
    for failure in failures[:20]:
        print(f"FAIL {failure}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures), "metrics": reported}))
    return 0 if not failures else 1


if __name__ == "__main__":
    # One string-hash seed for this process, its pool workers and its
    # servers: str hashes set dict and set layouts, so a random seed per
    # run would be one more source of run-to-run variation in the cost of
    # the same inputs.
    if os.environ.get("PYTHONHASHSEED") != "0":
        os.execve(sys.executable, [sys.executable] + sys.argv,
                  dict(os.environ, PYTHONHASHSEED="0"))
    sys.exit(main())
