"""Tests for the packed binary (v2) SolutionStore shard format.

Covers what ``test_store.py`` cannot from the packed side: the import of
legacy v1 JSON stores on open (bit-identical payloads, insertion order,
doubled shards, one import per store, three processes importing at once),
binary corruption decay (truncate / mangle / version-bump -> recompute,
never crash), the lazy ``get()`` / alias fast path and the ``scan()``
bulk iterator, all gated on the store's decode counters.

``fixtures/store_v1`` is a store written by the v1 JSON writer before it
was removed: three solved reports, plain entries written against
shard-id order, an alias, and shard ``ee`` present both as ``.json`` and
as a newer ``.rps`` (a crash between a format-converting rewrite and the
old blob's unlink).  ``fixtures/store_v1.snapshot.json`` records its
payloads and insertion sequences as that writer's code read them.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis.sweep import sweep_records
from repro.core.dag import TradeoffDAG
from repro.core.duration import GeneralStepDuration
from repro.core.problem import MinMakespanProblem
from repro.engine import (
    SolutionStore,
    clear_caches,
    request_key,
    set_solution_store,
    solve,
)
from repro.engine.store import atomic_write_json, report_to_payload

FIXTURES = Path(__file__).resolve().parent / "fixtures"
SRC = str(Path(__file__).resolve().parents[1] / "src")


@pytest.fixture(autouse=True)
def _fresh_engine():
    clear_caches()
    set_solution_store(None)
    yield
    clear_caches()
    set_solution_store(None)


def _problem(budget: float = 2.0) -> MinMakespanProblem:
    dag = TradeoffDAG()
    for name in ("s", "x", "t"):
        dag.add_job(name, GeneralStepDuration([(0, 4), (2, 1)]))
    dag.add_edge("s", "x")
    dag.add_edge("x", "t")
    return MinMakespanProblem(dag, budget)


def _key(prefix: str, index: int) -> str:
    return prefix + f"{index:0{64 - len(prefix)}d}"


def _shard_path(store: SolutionStore, shard_id: str, ext: str) -> str:
    return os.path.join(store.root, "shards", f"{shard_id}.{ext}")


def _canonical(payloads) -> str:
    """Canonical JSON of ``(key, payload)`` pairs -- the bit-identity
    yardstick."""
    return json.dumps(dict(payloads), sort_keys=True)


def _snapshot(store: SolutionStore) -> str:
    return _canonical(store.payloads())


def _shard_names(root: str):
    return sorted(os.listdir(os.path.join(root, "shards")))


def _eviction_order(store: SolutionStore):
    """Keys in the order ``compact()`` evicts them (oldest first)."""
    remaining = {key for key, _payload in store.payloads()}
    order = []
    for cap in range(len(remaining) - 1, -1, -1):
        assert store.compact(cap) == 1
        kept = {key for key, _payload in store.payloads()}
        order.extend(remaining - kept)
        remaining = kept
    return order


# ---------------------------------------------------------------------------
# v1 import on open
# ---------------------------------------------------------------------------

class TestMigration:
    def _seed_v1(self, tmp_path, write_v1_store):
        entries = {}
        for budget in (1.0, 2.0, 3.0):
            problem = _problem(budget)
            key = request_key(problem)
            entries[key] = report_to_payload(solve(problem, use_cache=False), key)
        entries[_key("aa", 7)] = {"v": 7, "nested": {"xs": [1, 2.5]}}
        entries[_key("ab", 8)] = {"alias_of": _key("aa", 7)}
        return write_v1_store(tmp_path / "s", entries), entries

    def test_v1_to_v2_round_trips_bit_identically(self, tmp_path,
                                                  write_v1_store):
        root, entries = self._seed_v1(tmp_path, write_v1_store)
        legacy_shards = len(_shard_names(root))

        migrated = SolutionStore(root)  # opening imports
        info = migrated.info()
        assert info["migrated_shards"] == legacy_shards
        assert info["full_shard_parses"] == legacy_shards
        assert info["entries"] == len(entries) == 5
        assert all(name.endswith(".rps") for name in _shard_names(root))
        # payloads byte-for-byte equal
        assert _snapshot(migrated) == _canonical(entries.items())
        # reports still decode into full SolveReports
        report_keys = [k for k, payload in entries.items()
                       if "solution" in payload]
        assert report_keys and all(migrated.get_report(k) is not None
                                   for k in report_keys)
        # migrate() is the same importer: nothing left to import
        assert migrated.migrate() == {"shards": 0, "entries": 0, "failed": 0}

    def test_migration_preserves_insertion_order(self, tmp_path,
                                                 write_v1_store):
        root = write_v1_store(tmp_path / "s", {
            _key(prefix, index): {"v": index}
            for index, prefix in enumerate(["dd", "cc", "bb", "aa"])})
        fresh = SolutionStore(root)
        assert fresh.compact(2) == 2  # oldest (dd, cc) evicted, not aa/bb
        kept = sorted(key for key, _payload in fresh.payloads())
        assert kept == [_key("aa", 3), _key("bb", 2)]

    def test_meta_json_has_no_format_knob(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        meta = json.load(open(os.path.join(store.root, "meta.json")))
        assert meta["schema"] == 2 and "shard_format" not in meta
        assert "shard_format" not in store.info()


class TestImportFixture:
    """The committed v1 store, imported by the current code."""

    @pytest.fixture()
    def root(self, tmp_path) -> str:
        root = tmp_path / "store_v1"
        shutil.copytree(FIXTURES / "store_v1", root)
        return str(root)

    @pytest.fixture()
    def snapshot(self):
        with open(FIXTURES / "store_v1.snapshot.json", encoding="utf-8") as handle:
            return json.load(handle)

    def test_payloads_bit_identical_to_the_v1_reader(self, root, snapshot):
        store = SolutionStore(root)
        assert _snapshot(store) == _canonical(snapshot["payloads"].items())
        assert store.info()["migrated_shards"] == 8
        assert not [name for name in _shard_names(root)
                    if not name.endswith(".rps")]
        assert all(store.get_report(key) is not None
                   for key in snapshot["report_keys"])
        # The v1 writer's meta.json named its shard format; with every
        # shard imported it is rewritten without it.
        meta = json.load(open(os.path.join(root, "meta.json"), encoding="utf-8"))
        assert meta == {"schema": 2, "format": "repro-solution-store/packed-v2",
                        "shard_width": 2}

    def test_doubled_shard_resolves_newest_by_seq(self, root):
        store = SolutionStore(root)
        assert store.get(_key("ee", 1)) == {"v": "new"}   # .rps seq 11 > 9
        assert store.get(_key("ee", 2)) == {"v": "kept"}
        assert _shard_names(root).count("ee.rps") == 1

    def test_insertion_order_drives_compact(self, root, snapshot):
        seqs = snapshot["seqs"]
        assert _eviction_order(SolutionStore(root)) == \
            sorted(seqs, key=seqs.__getitem__)

    def test_second_open_imports_nothing(self, root):
        SolutionStore(root)
        again = SolutionStore(root)
        info = again.info()
        assert info["migrated_shards"] == 0
        assert info["full_shard_parses"] == 0
        assert info["entries"] == 10

    def test_three_processes_import_at_once(self, root, snapshot):
        opener = (
            "import os, sys, time\n"
            "from repro.engine.store import SolutionStore\n"
            "root, go = sys.argv[1], sys.argv[2]\n"
            "print('READY', flush=True)\n"
            "while not os.path.exists(go):\n"
            "    time.sleep(0.001)\n"
            "store = SolutionStore(root, lock_timeout=60.0)\n"
            "print(store.migrated_shards, store.corrupt_shards,\n"
            "      store.skipped_writes, store.lock_timeouts, flush=True)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
        go = os.path.join(os.path.dirname(root), "go")
        processes = [subprocess.Popen(
            [sys.executable, "-c", opener, root, go], env=env,
            stdout=subprocess.PIPE, text=True) for _ in range(3)]
        try:
            for process in processes:
                assert process.stdout.readline().strip() == "READY"
            open(go, "w").close()
            results = [process.communicate(timeout=60)[0].split()
                       for process in processes]
        finally:
            for process in processes:
                if process.poll() is None:
                    process.kill()
                    process.wait()
        assert all(process.returncode == 0 for process in processes)
        # each shard imported by exactly one opener; the others found its
        # .json gone under the lock instead of reading a vanished file
        assert sum(int(counts[0]) for counts in results) == 8
        assert all(counts[1:] == ["0", "0", "0"] for counts in results)
        assert not [name for name in _shard_names(root)
                    if not name.endswith(".rps")]
        store = SolutionStore(root)
        assert store.entry_count() == len(snapshot["payloads"])
        assert _snapshot(store) == _canonical(snapshot["payloads"].items())


# ---------------------------------------------------------------------------
# doubled shards: a .json and a .rps for the same shard id
# ---------------------------------------------------------------------------

class TestMixedFormat:
    def test_both_files_present_merges_by_seq(self, tmp_path):
        # A crash between a format-converting rewrite and the old file's
        # unlink leaves both blobs; the import merges them per key and the
        # higher insertion sequence wins, whichever file holds it.
        store = SolutionStore(str(tmp_path / "s"))
        store.put(_key("bb", 0), {"v": 0})                 # seq 1
        store.put(_key("aa", 1), {"v": "new"})             # seq 2
        store.put(_key("aa", 3), {"v": "stale"})           # seq 3
        with open(_shard_path(store, "aa", "json"), "w") as handle:
            json.dump({"schema": 1, "entries": {
                _key("aa", 1): {"v": "old", "__seq__": 1},
                _key("aa", 2): {"v": "json-only", "__seq__": 2},
                _key("aa", 3): {"v": "newer", "__seq__": 9},
            }}, handle)

        fresh = SolutionStore(store.root)
        assert fresh.get(_key("aa", 1)) == {"v": "new"}
        assert fresh.get(_key("aa", 2)) == {"v": "json-only"}
        assert fresh.get(_key("aa", 3)) == {"v": "newer"}
        assert fresh.entry_count() == 4
        assert _shard_names(store.root) == ["aa.rps", "bb.rps"]


# ---------------------------------------------------------------------------
# binary corruption: recompute, never crash
# ---------------------------------------------------------------------------

class TestBinaryCorruption:
    def test_truncated_binary_shard_is_a_miss(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        key = _key("aa", 1)
        store.put(key, {"v": 1})
        path = _shard_path(store, "aa", "rps")
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(blob[: len(blob) // 2])
        fresh = SolutionStore(store.root)
        assert fresh.get(key) is None
        assert fresh.info()["corrupt_shards"] >= 1
        # the next write repairs the shard
        assert fresh.put(key, {"v": 2})
        assert SolutionStore(store.root).get(key) == {"v": 2}

    def test_mangled_payload_bytes_skip_one_entry(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        good, bad = _key("aa", 1), _key("aa", 2)
        store.put(good, {"kind": "good"})
        store.put(bad, {"kind": "badx"})
        path = _shard_path(store, "aa", "rps")
        blob = open(path, "rb").read()
        # Corrupt exactly the bad entry's payload blob (same length, so the
        # record table stays valid -- this is per-entry payload damage).
        target = json.dumps({"kind": "badx"}, sort_keys=True,
                            separators=(",", ":")).encode()
        assert blob.count(target) == 1
        with open(path, "wb") as handle:
            handle.write(blob.replace(target, b"}" * len(target)))
        fresh = SolutionStore(store.root)
        assert fresh.get(bad) is None            # corrupted entry: miss
        assert fresh.get(good) == {"kind": "good"}  # shard-mates survive
        assert fresh.info()["corrupt_shards"] == 1

    def test_bad_magic_is_corruption(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        key = _key("aa", 1)
        store.put(key, {"v": 1})
        path = _shard_path(store, "aa", "rps")
        blob = open(path, "rb").read()
        with open(path, "wb") as handle:
            handle.write(b"XXXXXXXX" + blob[8:])
        fresh = SolutionStore(store.root)
        assert fresh.get(key) is None
        assert fresh.info()["corrupt_shards"] == 1

    def test_unknown_binary_version_is_schema_mismatch(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"))
        key = _key("aa", 1)
        store.put(key, {"v": 1})
        path = _shard_path(store, "aa", "rps")
        blob = bytearray(open(path, "rb").read())
        blob[8] = 99  # the little-endian version field follows the magic
        with open(path, "wb") as handle:
            handle.write(bytes(blob))
        fresh = SolutionStore(store.root)
        assert fresh.get(key) is None
        assert fresh.info()["schema_mismatches"] == 1
        assert fresh.info()["corrupt_shards"] == 0


# ---------------------------------------------------------------------------
# lazy get() / alias fast path / scan() -- the decode-counter gates
# ---------------------------------------------------------------------------

class TestLazyDecode:
    def _seed(self, tmp_path) -> SolutionStore:
        store = SolutionStore(str(tmp_path / "s"))
        for index in range(3):
            store.put(_key("aa", index), {"v": index})
        store.put(_key("aa", 90), {"alias_of": _key("aa", 0)})
        store.put(_key("ab", 91), {"alias_of": _key("aa", 1)})
        return store

    def test_get_decodes_exactly_one_payload(self, tmp_path):
        store = self._seed(tmp_path)
        fresh = SolutionStore(store.root)
        assert fresh.get(_key("aa", 1)) == {"v": 1}
        info = fresh.info()
        assert info["payload_decodes"] == 1     # not the whole shard
        assert info["full_shard_parses"] == 0   # no JSON shard touched
        fresh.get(_key("aa", 1))                # repeat: served from memo
        assert fresh.info()["payload_decodes"] == 1

    def test_alias_resolves_without_any_decode(self, tmp_path):
        store = self._seed(tmp_path)
        fresh = SolutionStore(store.root)
        assert fresh.get(_key("aa", 90)) == {"alias_of": _key("aa", 0)}
        info = fresh.info()
        assert info["alias_fast_hits"] == 1
        assert info["payload_decodes"] == 0
        assert info["full_shard_parses"] == 0

    def test_scan_skips_aliases_without_decoding(self, tmp_path):
        store = self._seed(tmp_path)
        fresh = SolutionStore(store.root)
        entries = dict(fresh.scan())
        assert len(entries) == 3
        assert all("alias_of" not in payload for payload in entries.values())
        info = fresh.info()
        assert info["scans"] == 1
        assert info["scan_entries"] == 3
        assert info["scan_alias_skips"] == 2
        assert info["payload_decodes"] == 3     # one per non-alias entry
        assert info["full_shard_parses"] == 0

    def test_scan_can_include_aliases_decode_free(self, tmp_path):
        store = self._seed(tmp_path)
        fresh = SolutionStore(store.root)
        entries = dict(fresh.scan(include_aliases=True))
        assert len(entries) == 5
        assert entries[_key("aa", 90)] == {"alias_of": _key("aa", 0)}
        assert fresh.info()["payload_decodes"] == 3  # aliases still free

    def test_sweep_records_decode_budget(self, tmp_path):
        # The analysis/sweep.py satellite gate: regenerating sweep records
        # from a warm store must decode at most one payload per non-alias
        # entry and never parse a whole shard as JSON.
        store = SolutionStore(str(tmp_path / "s"))
        non_alias = 0
        for budget in (1.0, 2.0, 3.0):
            problem = _problem(budget)
            key = request_key(problem)
            store.put_report(key, solve(problem, use_cache=False))
            store.put(_key("ee", int(budget)), {"alias_of": key})
            non_alias += 1
        fresh = SolutionStore(store.root)
        records = sweep_records(fresh)
        assert len(records) == non_alias
        info = fresh.info()
        assert info["payload_decodes"] <= non_alias
        assert info["full_shard_parses"] == 0
        assert info["scan_alias_skips"] == non_alias


# ---------------------------------------------------------------------------
# durability knob
# ---------------------------------------------------------------------------

class TestDurability:
    def test_durable_store_round_trips(self, tmp_path):
        store = SolutionStore(str(tmp_path / "s"), durable=True)
        key = _key("aa", 1)
        assert store.put(key, {"v": 1})
        assert SolutionStore(store.root).get(key) == {"v": 1}
        assert store.info()["durable"] is True

    def test_atomic_write_json_fsync(self, tmp_path):
        path = str(tmp_path / "out.json")
        atomic_write_json(path, {"a": 1}, fsync=True)
        assert json.load(open(path)) == {"a": 1}
        assert not [name for name in os.listdir(tmp_path)
                    if name.startswith(".tmp-")]

    def test_two_tier_solve_on_binary_store(self, tmp_path):
        # End-to-end: the engine's tier-2 path runs unchanged on v2 shards.
        store = set_solution_store(
            SolutionStore(str(tmp_path / "tier2"), durable=True))
        problem = _problem()
        fresh = solve(problem)
        clear_caches()
        from_store = solve(problem)
        assert from_store.from_cache and from_store.cache_tier == "store"
        assert from_store.makespan == pytest.approx(fresh.makespan)
