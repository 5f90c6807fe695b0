"""The benchmark's span hooks still reach both server fronts.

``perfbench/spans.py`` times the serve and cluster layers from outside,
by replacing ``SweepServer._serve_sweep_spec`` and
``RouterServer._serve_sweep`` on the class.  A refactor that renames
either method, changes its request-id argument or stops looking it up on
``self`` per request would silently empty the per-layer trace; this test
drives one ``sweep_spec`` through each front with the hooks installed and
checks both spans were recorded under their wire request ids.  It runs in
a subprocess because the hooks patch the package process-wide.  CI runs
this file under pytest-timeout in the concurrency-stress job.

The same driver also runs one ``SweepService`` and one
``AsyncSweepService`` sweep, each with a manifest, and the second test
checks every engine span the per-layer table reads was recorded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

DRIVER = textwrap.dedent("""
    import asyncio, json, sys

    sys.path.insert(0, sys.argv[1])
    import spans

    tracer = spans.Tracer(sys.argv[2])
    spans.install(tracer)

    from repro.cluster import ClusterClient, LocalCluster, RouterServer
    from repro.engine import AsyncSweepService, Portfolio, SweepService
    from repro.scenarios import ScenarioSpec
    from repro.serve import request_sweep_spec

    def cell(width):
        return ScenarioSpec("fork-join", {"width": width, "work": 4},
                            budget_rule=("makespan-factor", 0.5))

    def pool():
        return Portfolio(executor="thread", max_workers=2)

    with SweepService(store=sys.argv[2] + "/sync-store",
                      portfolio=pool()) as service:
        service.run([cell(4), cell(5)], manifest=sys.argv[2] + "/sync.json")

    async def submit_specs():
        async with AsyncSweepService(store=sys.argv[2] + "/async-store",
                                     portfolio=pool(),
                                     manifest=sys.argv[2] + "/async.json"
                                     ) as service:
            await (await service.submit_specs([cell(6)])).results()

    asyncio.run(submit_specs())

    async def main():
        async with LocalCluster(1, store_root=sys.argv[2] + "/store") as cluster:
            runner = cluster.address_of("runner-0").unix_socket
            await request_sweep_spec([cell(2)], unix_socket=runner,
                                     request_id="via-runner")
            router = sys.argv[2] + "/router.sock"
            async with RouterServer(ClusterClient(cluster.addresses()),
                                    unix_socket=router):
                await request_sweep_spec([cell(3)], unix_socket=router,
                                         request_id="via-router")

    asyncio.run(main())
    print(json.dumps(sorted(tracer.summary()["names"])))
    print(json.dumps(tracer.summary()["by_request"]))
""")

#: Engine spans ``perfbench/layers.py`` reads; a driver path that stops
#: calling a hooked name would zero its row of the per-layer table.
ENGINE_SPANS = {
    "engine.plan", "engine.service.sweep", "engine.service.manifest",
    "engine.portfolio.wait", "engine.portfolio.shard",
    "engine.async_service.submit", "engine.async_service.shard",
    "engine.async_service.manifest",
}


def _drive(tmp_path):
    """Run the driver in a fresh interpreter; its stdout lines."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, os.path.join(ROOT, "perfbench"),
         str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout.strip().splitlines()


def test_span_hooks_record_both_fronts(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run(
        [sys.executable, "-c", DRIVER, os.path.join(ROOT, "perfbench"),
         str(tmp_path)],
        capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    by_request = json.loads(done.stdout.strip().splitlines()[-1])
    runner_ids = set(by_request.get("serve.request", {}))
    router_ids = set(by_request.get("cluster.router.request", {}))
    assert "via-runner" in runner_ids
    assert router_ids == {"via-router"}
    # the router's sub-request reached the runner's traced handler too
    assert len(runner_ids) == 2


def test_span_hooks_record_engine_layers(tmp_path):
    names = set(json.loads(_drive(tmp_path)[-2]))
    assert ENGINE_SPANS <= names, sorted(ENGINE_SPANS - names)
