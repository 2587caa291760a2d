"""The server process of the serve workloads.

Started by ``serve.py`` as ``python3 perfbench/server_main.py --workload
serve-mix --seed N --out DIR --trace 0|1``.  It builds the store's
triples from the seeded inputs, answers ``{"triples": n}`` and then
obeys one-line JSON commands on stdin, answering each on stdout:

* ``{"cmd": "setup"}`` -- perform the program's whole set-up once more
  (stopping the server of the previous one) and answer its port and its
  wall time, which covers program calls only; the benchmark scales it to
  the reference speed with probes taken in its own process while this
  one works, so no probe table lives here or in the shard workers;
* ``{"cmd": "setup_trace_off"}`` -- drop the set-up wrappers;
* ``{"cmd": "trace_on"}`` / ``{"cmd": "trace_off"}`` -- install or
  remove the request-path wrappers;
* ``{"cmd": "report"}`` -- span summary, counters and plan-cache deltas;
* ``{"cmd": "stop"}`` -- stop the server and exit.

With ``--trace 1`` the spans are also written to ``DIR/spans.json``.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import shutil
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import inputs  # noqa: E402
import layers  # noqa: E402
from spans import Patcher, Recorder, Summary  # noqa: E402

#: serve-mix store size (nodes): an all-pairs walk costs ~5-15 ms here,
#: against ~1 ms for a cache hit
MIX_NODES = 2000
SHARD_NODES = 400
SHARDS = 2
#: serve-mix result-cache bound: small enough that the warm-up fills it,
#: so the timed window runs at the cache's steady state (evicting)
#: rather than with a heap that grows as the cache fills
MIX_CACHE_ENTRIES = 512


def store_triples(workload: str, seed: int):
    if workload == "serve-mix":
        return inputs.store_triples(False, seed, MIX_NODES)
    return inputs.store_triples(True, seed, SHARD_NODES)


def _reply(payload) -> None:
    sys.stdout.write(json.dumps(payload) + "\n")
    sys.stdout.flush()


async def _set_up(workload, triples, out: Path, rep: int):
    """One complete program set-up; returns (server, seconds)."""
    from repro.graphs.rdf import TripleStore
    from repro.service import ReproServer, ServiceConfig, connect
    from repro.service import shard as shard_mod

    sharded = workload == "serve-sharded"
    started = time.perf_counter()
    store = TripleStore()
    for s, p, o in triples:
        store.add(s, p, o)
    if sharded:
        directory = out / f"shards-{rep}"
        shard_mod.shard_store(store, directory, shards=SHARDS)
        spec = directory
        config = ServiceConfig(max_workers=2, cache_entries=0, shard_replicas=1)
    else:
        spec = store
        config = ServiceConfig(max_workers=2, cache_entries=MIX_CACHE_ENTRIES)
    server = ReproServer({"g": spec}, config)
    await server.start()
    if sharded:
        # spawn every shard worker and attach its image
        await asyncio.to_thread(server.core.shard_groups["g"].check_health)
    client = await connect(*server.address)
    try:
        await client.ping()
        if not sharded:
            for kind, spec_ in inputs.SCHEMAS.items():
                # compiles the schema into the server's automaton LRU
                await client.validate(
                    spec_["rules"],
                    schema_kind=spec_["schema_kind"],
                    start=spec_.get("start"),
                    mu=spec_.get("mu"),
                    document="{}" if spec_["format"] == "json" else "<x/>",
                    format=spec_["format"],
                )
    finally:
        await client.close()
    return server, time.perf_counter() - started


async def main(args) -> None:
    from repro.graphs.engine import plan_cache_info

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    triples = store_triples(args.workload, args.seed)
    rec = Recorder()
    setup_patches, op_patches = Patcher(), Patcher()
    if args.trace:
        layers.install_server_setup(setup_patches, rec)
    server = None
    reps = 0
    _reply({"triples": len(triples)})

    loop = asyncio.get_running_loop()
    plan_before = plan_cache_info()
    try:
        while True:
            line = await loop.run_in_executor(None, sys.stdin.readline)
            if not line:
                break
            cmd = json.loads(line)["cmd"]
            if cmd == "setup":
                if server is not None:
                    await server.stop()
                server, seconds = await _set_up(args.workload, triples, out, reps)
                reps += 1
                _reply({"port": server.address[1], "seconds": seconds})
            elif cmd == "setup_trace_off":
                setup_patches.restore()
                _reply({"ok": True})
            elif cmd == "trace_on":
                plan_before = plan_cache_info()
                layers.install_server_ops(op_patches, rec)
                _reply({"ok": True})
            elif cmd == "trace_off":
                op_patches.restore()
                _reply({"ok": True})
            elif cmd == "report":
                summary = Summary(rec.spans)
                plan_after = plan_cache_info()
                (out / "spans.json").write_text(json.dumps(rec.spans))
                _reply(
                    {
                        "tables": summary.tables(),
                        "handle_by_op": summary.durations_by_op("server.handle"),
                        "counters": dict(rec.counters),
                        "plan_hits": plan_after["hits"] - plan_before["hits"],
                        "plan_misses": plan_after["misses"] - plan_before["misses"],
                    }
                )
            elif cmd == "stop":
                break
    finally:
        setup_patches.restore()
        op_patches.restore()
        if server is not None:
            await server.stop()
        for rep in range(reps):
            shutil.rmtree(out / f"shards-{rep}", ignore_errors=True)
    _reply({"stopped": True})


if __name__ == "__main__":
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=("serve-mix", "serve-sharded"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--trace", type=int, default=0)
    asyncio.run(main(parser.parse_args()))
