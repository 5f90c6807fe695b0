"""Shared fixtures for the test suite."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.dag import TradeoffDAG
from repro.core.duration import (
    ConstantDuration,
    GeneralStepDuration,
    KWaySplitDuration,
    RecursiveBinarySplitDuration,
)


@pytest.fixture
def simple_chain_dag() -> TradeoffDAG:
    """source -> x (binary, work 64) -> y (k-way, work 36) -> sink."""
    dag = TradeoffDAG()
    dag.add_job("s")
    dag.add_job("x", RecursiveBinarySplitDuration(64))
    dag.add_job("y", KWaySplitDuration(36))
    dag.add_job("t")
    dag.add_edge("s", "x")
    dag.add_edge("x", "y")
    dag.add_edge("y", "t")
    return dag


@pytest.fixture
def diamond_dag() -> TradeoffDAG:
    """A fork-join diamond with two parallel branches of two jobs each."""
    dag = TradeoffDAG()
    dag.add_job("fork")
    dag.add_job("a1", RecursiveBinarySplitDuration(32))
    dag.add_job("a2", KWaySplitDuration(25))
    dag.add_job("b1", RecursiveBinarySplitDuration(48))
    dag.add_job("b2", KWaySplitDuration(16))
    dag.add_job("join")
    dag.add_edge("fork", "a1")
    dag.add_edge("a1", "a2")
    dag.add_edge("fork", "b1")
    dag.add_edge("b1", "b2")
    dag.add_edge("a2", "join")
    dag.add_edge("b2", "join")
    return dag


@pytest.fixture
def figure4_like_dag() -> TradeoffDAG:
    """A small DAG in the spirit of Figure 4: works equal to in-degrees.

    Structure: s -> a -> b -> c -> d -> t plus shortcut edges s->b, a->c,
    b->d giving c the largest in-degree.
    """
    dag = TradeoffDAG()
    works = {"s": 0, "a": 1, "b": 2, "c": 3, "d": 2, "t": 1}
    for name, work in works.items():
        duration = GeneralStepDuration([(0, float(work))]) if work else ConstantDuration(0.0)
        dag.add_job(name, duration)
    for u, v in [("s", "a"), ("a", "b"), ("b", "c"), ("c", "d"), ("d", "t"),
                 ("s", "b"), ("a", "c"), ("b", "c"), ("b", "d"), ("c", "t")]:
        # duplicate edge (b, c) is ignored by add_edge; kept to mirror multi-updates
        dag.add_edge(u, v)
    return dag


@pytest.fixture
def write_v1_store():
    """Writer for legacy sharded-JSON (v1) stores: ``write(root, entries)``.

    ``entries`` maps key -> payload in insertion order.  Each entry gets
    the next ``__seq__`` and lands in the ``<first two key chars>.json``
    shard blob ``{"schema": 1, "entries": {...}}``, beside a schema-1
    ``meta.json`` -- the layout the v1 writer produced, which
    :class:`~repro.engine.store.SolutionStore` now imports on open.
    Returns the root as a string.
    """
    def write(root, entries):
        shards = {}
        for seq, (key, payload) in enumerate(entries.items(), start=1):
            shards.setdefault(key[:2], {})[key] = dict(payload, __seq__=seq)
        os.makedirs(os.path.join(root, "shards"), exist_ok=True)
        for shard_id, shard in shards.items():
            path = os.path.join(root, "shards", f"{shard_id}.json")
            with open(path, "w", encoding="utf-8") as handle:
                json.dump({"schema": 1, "entries": shard}, handle)
        with open(os.path.join(root, "meta.json"), "w", encoding="utf-8") as handle:
            json.dump({"schema": 1, "shard_width": 2}, handle)
        return str(root)
    return write
