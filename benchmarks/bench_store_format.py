"""E19 -- packed binary store format: v1 import, then lazy v2 reads.

The tier-2 :class:`~repro.engine.store.SolutionStore` used to keep each
shard as one JSON blob: any ``get()`` parsed the whole shard, a bulk table
regeneration re-decoded every alias entry, and 10^7-entry deployments paid
for it.  The packed v2 format puts a fixed-width, key-sorted record table
in front of per-entry payload blobs: ``get()`` binary-searches the table
and decodes ONE payload, alias entries resolve from the record flags with
no JSON decode at all, and :meth:`~repro.engine.store.SolutionStore.scan`
streams the whole store in one pass.  v2 is now the only shard format; a
legacy sharded-JSON (v1) store is imported once, when it is opened.  This
benchmark writes a v1 store (real solved reports + bulk entries +
aliases) blob by blob, exactly as the v1 writer laid it out, and measures:

* **the v1 import** -- the one-shot conversion on open, which parses each
  legacy shard once;
* **packed binary (v2)** -- bulk scan and point reads of the imported
  store, checked against the same contents written natively as v2.

The gate is **machine-independent** (the ISSUE 6 acceptance criteria): the
warm bulk scan over v2 performs 0 full-shard JSON parses and 0
alias-payload decodes (one decode per non-alias entry, nothing more), a
cold point ``get()`` decodes exactly one payload, an alias ``get()``
decodes zero, and the v1 -> v2 import round-trips every payload
bit-identically.  Wall-clock is reported for humans but never gated on.

Run standalone:  python benchmarks/bench_store_format.py [--quick] [--json PATH]
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import sys
import tempfile
import time

from repro import clear_caches
from repro.analysis import format_table
from repro.analysis.sweep import sweep_records
from repro.core.dag import TradeoffDAG
from repro.core.duration import GeneralStepDuration
from repro.core.problem import MinMakespanProblem
from repro.engine import SolutionStore, request_key
from repro.engine.core import solve
from repro.engine.store import report_to_payload

from bench_common import emit, parse_json_flag, write_json_artifact

#: Bulk synthetic entries (quick / full).  Real solved reports ride along so
#: the import round-trip covers true SolveReport payloads too.
BULK_ENTRIES = 4000
QUICK_BULK = 400
REPORT_BUDGETS = (1.0, 2.0, 3.0, 4.0)
ALIAS_EVERY = 4  # one alias entry per this many bulk entries


def _chain_problem(budget: float) -> MinMakespanProblem:
    dag = TradeoffDAG()
    for name in ("s", "x", "t"):
        dag.add_job(name, GeneralStepDuration([(0, 4), (2, 1)]))
    dag.add_edge("s", "x")
    dag.add_edge("x", "t")
    return MinMakespanProblem(dag, budget)


def _bulk_key(index: int) -> str:
    return hashlib.sha256(f"bulk:{index}".encode()).hexdigest()


def _bulk_payload(index: int) -> dict:
    return {
        "solver_id": "bench-synthetic",
        "objective": "min_makespan",
        "wall_time": 0.001 * (index % 7),
        "parameter": float(index % 13 + 1),
        "solution": {"makespan": float(index % 97),
                     "budget_used": float(index % 11),
                     "lower_bound": float(index % 97) / 2.0 or None},
    }


def _write_v1_store(root: str, entries: dict) -> None:
    """Lay ``entries`` (key -> payload, insertion order) out as a v1 store:
    ``shards/<first two key chars>.json`` blobs of ``{"schema": 1,
    "entries": {key: payload-with-__seq__}}`` plus a schema-1 meta.json."""
    shards: dict = {}
    for seq, (key, payload) in enumerate(entries.items(), start=1):
        shards.setdefault(key[:2], {})[key] = dict(payload, __seq__=seq)
    os.makedirs(os.path.join(root, "shards"))
    for shard_id, shard in shards.items():
        with open(os.path.join(root, "shards", f"{shard_id}.json"), "w",
                  encoding="utf-8") as handle:
            json.dump({"schema": 1, "entries": shard}, handle,
                      sort_keys=True, separators=(",", ":"))
    with open(os.path.join(root, "meta.json"), "w", encoding="utf-8") as handle:
        json.dump({"schema": 1, "shard_width": 2}, handle)


def build_v1_store(root: str, bulk: int) -> dict:
    """Populate a legacy sharded-JSON store: reports + bulk + aliases."""
    clear_caches()
    entries = {}
    report_keys = []
    for budget in REPORT_BUDGETS:
        problem = _chain_problem(budget)
        key = request_key(problem)
        entries[key] = report_to_payload(solve(problem, use_cache=False), key)
        report_keys.append(key)
    entries.update((_bulk_key(i), _bulk_payload(i)) for i in range(bulk))
    aliases = {hashlib.sha256(f"alias:{i}".encode()).hexdigest():
               {"alias_of": _bulk_key(i)} for i in range(0, bulk, ALIAS_EVERY)}
    entries.update(aliases)
    _write_v1_store(root, entries)
    return {"entries": entries, "report_keys": report_keys,
            "non_alias": bulk + len(REPORT_BUDGETS), "aliases": len(aliases)}


def _snapshot(payloads) -> str:
    """Canonical JSON of every payload -- the bit-identity yardstick."""
    return json.dumps(dict(payloads), sort_keys=True)


def timed_scan(root: str) -> tuple:
    """Cold-handle bulk scan (the analysis/sweep.py table-regen path)."""
    store = SolutionStore(root)
    start = time.perf_counter()
    records = sweep_records(store)
    wall = time.perf_counter() - start
    return records, store.info(), wall


def run_comparison(bulk: int) -> dict:
    workdir = tempfile.mkdtemp(prefix="bench-store-")
    try:
        seeded = build_v1_store(f"{workdir}/v1", bulk)
        before = _snapshot(seeded["entries"].items())

        # the one-shot v1 -> v2 import runs when the store is opened
        start = time.perf_counter()
        imported = SolutionStore(f"{workdir}/v1")
        t_import = time.perf_counter() - start
        import_info = imported.info()
        migration_identical = _snapshot(imported.payloads()) == before
        reports_decode = all(imported.get_report(key) is not None
                             for key in seeded["report_keys"])

        # the same contents written natively as v2, for the records check
        SolutionStore(f"{workdir}/native").put_many(
            list(seeded["entries"].items()))
        native_records, _native_info, t_native = timed_scan(f"{workdir}/native")
        binary_records, binary_info, t_binary = timed_scan(f"{workdir}/v1")

        # cold point lookups on v2: one decode per get, zero for aliases
        point = SolutionStore(f"{workdir}/v1")
        point.get(_bulk_key(1))
        point.get(_bulk_key(2))
        alias_key = hashlib.sha256(b"alias:0").hexdigest()
        point.get(alias_key)
        point_info = point.info()

        return {
            "entries": seeded["non_alias"] + seeded["aliases"],
            "non_alias": seeded["non_alias"],
            "aliases": seeded["aliases"],
            "records_match": native_records == binary_records,
            "json_full_shard_parses": import_info["full_shard_parses"],
            "binary_full_shard_parses": binary_info["full_shard_parses"],
            "binary_payload_decodes": binary_info["payload_decodes"],
            "binary_alias_skips": binary_info["scan_alias_skips"],
            "migration_shards": import_info["migrated_shards"],
            "migration_failed": import_info["skipped_writes"],
            "migration_identical": migration_identical,
            "reports_decode": reports_decode,
            "point_payload_decodes": point_info["payload_decodes"],
            "point_alias_fast_hits": point_info["alias_fast_hits"],
            "t_import_s": t_import,
            "t_scan_native_s": t_native,
            "t_scan_binary_s": t_binary,
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


#: The machine-independent acceptance conditions, shared by the standalone
#: gate and the pytest entry point so the two can never diverge.
GATE_CONDITIONS = [
    ("binary bulk scan performs zero full-shard JSON parses",
     lambda s: s["binary_full_shard_parses"] == 0),
    ("binary bulk scan decodes exactly one payload per non-alias entry",
     lambda s: s["binary_payload_decodes"] == s["non_alias"]),
    ("binary bulk scan skips every alias without decoding it",
     lambda s: s["binary_alias_skips"] == s["aliases"]),
    ("the imported store and a native v2 store produce identical records",
     lambda s: s["records_match"]),
    ("v1 -> v2 import round-trips every payload bit-identically",
     lambda s: s["migration_identical"] and s["migration_failed"] == 0),
    ("imported SolveReports still decode",
     lambda s: s["reports_decode"]),
    ("a cold point get() decodes exactly one payload",
     lambda s: s["point_payload_decodes"] == 2),
    ("an alias point get() resolves with zero payload decodes",
     lambda s: s["point_alias_fast_hits"] == 1),
    ("the import parsed each v1 shard exactly once",
     lambda s: s["json_full_shard_parses"] == s["migration_shards"] > 0),
]


def gate(stats) -> bool:
    """The machine-independent acceptance predicate (counters only)."""
    return all(condition(stats) for _label, condition in GATE_CONDITIONS)


def render(stats) -> str:
    rows = [
        ["v1 import (one-shot, on open)", str(stats["json_full_shard_parses"]),
         "n/a", "n/a", f"{stats['t_import_s'] * 1000:.0f}"],
        ["packed v2 scan, imported", str(stats["binary_full_shard_parses"]),
         str(stats["binary_payload_decodes"]),
         str(stats["binary_alias_skips"]),
         f"{stats['t_scan_binary_s'] * 1000:.0f}"],
        ["packed v2 scan, written natively", "-", "-", "-",
         f"{stats['t_scan_native_s'] * 1000:.0f}"],
    ]
    header = (f"bulk scan of {stats['entries']} entries "
              f"({stats['non_alias']} payloads + {stats['aliases']} aliases) "
              f"in {stats['migration_shards']} shards; "
              f"import bit-identical: {stats['migration_identical']}, "
              f"identical records: {stats['records_match']}")
    return header + "\n\n" + format_table(
        ["step", "full shard parses", "payload decodes", "alias skips",
         "wall time (ms)"], rows)


# ---------------------------------------------------------------------------
# pytest entry points (run in CI with --benchmark-disable)
# ---------------------------------------------------------------------------

def test_packed_store_scans_without_full_parses(benchmark):
    stats = run_comparison(QUICK_BULK)
    emit("E19 / packed binary store -- v1 import, then lazy v2 reads",
         render(stats))
    for label, condition in GATE_CONDITIONS:
        assert condition(stats), f"{label} (stats: {stats})"

    workdir = tempfile.mkdtemp(prefix="bench-store-pytest-")
    try:
        build_v1_store(f"{workdir}/v1", QUICK_BULK)
        SolutionStore(f"{workdir}/v1")  # imports the v1 shards

        def binary_scan():
            return sweep_records(SolutionStore(f"{workdir}/v1"))

        benchmark(binary_scan)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# standalone mode
# ---------------------------------------------------------------------------

def main(argv) -> int:
    quick = "--quick" in argv
    json_path = parse_json_flag(
        argv, "bench_store_format.py [--quick] [--json PATH]")

    stats = run_comparison(QUICK_BULK if quick else BULK_ENTRIES)
    print(render(stats))
    ok = gate(stats)
    print(f"\nimported v1 store reads lazily as packed v2 (0 full parses, "
          f"0 alias decodes, bit-identical import): {ok}")

    if json_path:
        write_json_artifact(json_path, {
            "benchmark": "bench_store_format",
            "quick": quick,
            "entries": stats["entries"],
            "non_alias": stats["non_alias"],
            "aliases": stats["aliases"],
            "binary_full_shard_parses": stats["binary_full_shard_parses"],
            "binary_payload_decodes": stats["binary_payload_decodes"],
            "binary_alias_skips": stats["binary_alias_skips"],
            "json_full_shard_parses": stats["json_full_shard_parses"],
            "records_match": stats["records_match"],
            "migration_identical": stats["migration_identical"],
            "reports_decode": stats["reports_decode"],
            "point_payload_decodes": stats["point_payload_decodes"],
            "point_alias_fast_hits": stats["point_alias_fast_hits"],
            "t_import_s": stats["t_import_s"],
            "t_scan_native_s": stats["t_scan_native_s"],
            "t_scan_binary_s": stats["t_scan_binary_s"],
            "ok": ok,
        })
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
