"""The repository benchmark: one command, four workloads, every metric.

Run from the repository root (no build step; needs ``src/repro``)::

    python3 perfbench/run.py --workload serve-mix --seed 1 --seconds 20 --trace 0

Workloads (``BENCHMARK.json`` says why each exists; every one is a closed
loop of callers that wait for their reply):

* ``serve-mix`` -- a TCP ``ReproServer`` (2 scheduler workers, result
  cache on) over an in-memory store; two connections send every wire op,
  about half of them cache hits, and 1% writes (``serve.py``);
* ``serve-sharded`` -- the same server over a two-shard deployment with
  the cache off (``serve.py``);
* ``study-log`` -- ``run_study(workers=1)`` over 50-entry log slices,
  in process (``study.py``);
* ``study-stream`` -- chunked XML/JSON documents through the streaming
  validators, every tenth op an antichain inclusion (``study.py``).

The timed window lasts ``--seconds``; every op completed in it counts.

Host speed.  The host gives the benchmark a share of two CPUs whose speed
swings by 2-3x within seconds and from run to run (other tenants on the
same cores; the hypervisor's steal share stays near 0).  So the run pins
itself, and every process it starts, to the usable CPU on which a speed
probe (``measure.probe_work``: fixed interpreter work that does not call
the program) ran fastest, and times that probe every 50 ms between ops,
while no op is in flight.  Every time metric is then stated at the
reference speed: each op's latency, and each half-second of the window,
is multiplied by ``measure.REFERENCE_PROBE_S`` over the median probe
time of its half-second; set-up times likewise by probes taken just
before and after.  A change to the program moves the ops and not the
probe, so it shows in full; a change of host speed moves both and
largely cancels.  On the 2-CPU host the benchmark was sized on, over
sets of ten seeds per workload, the interquartile range over the median
of each time metric was 0.01-0.16 scaled against 0.06-0.28 on the wall;
the scaling helped least on serve-mix (0.05-0.16 against 0.10-0.20).
The stamp keeps the wall figures, the speed of each half-second and the
ops of each second, and the hypervisor's steal share.

End-to-end metrics (``--trace 0``, nothing wrapped):

* ``setup_s`` -- median over repetitions of the program's own set-up
  calls only.  serve-mix: build the store, start the server until the
  first ``ping`` answers, compile the three schemas (15 repetitions in the
  server process).  serve-sharded: build the store, ``shard_store``,
  start the server, spawn and attach the shard workers, first ``ping``
  (15 repetitions).  study-log: import ``repro.logs.pipeline``; study-
  stream: import the tree modules and compile the schemas and the
  inclusion family (7 fresh interpreters each).  Input generation and the
  warm-up pass are excluded.
* ``throughput_ops`` -- completed ops over the timed window, probes
  excluded.
* ``p50_ms``, ``p90_ms``, ``p99_ms`` -- op latency percentiles.  A
  percentile with fewer than 10 samples beyond it is refused (the run
  then exits 3 and says why), so every workload is sized to >= 1000 ops.
* ``peak_rss_mb`` -- peak resident memory (``VmHWM``, restarted after the
  warm-up, so it is the peak of the timed window): the server plus
  its shard workers for the serve workloads, this process (program,
  generated inputs and the probe's 7 MB table) for the study workloads.
* ``ok_ratio`` -- ops answered without a typed error over ops attempted
  (the complement of the failed ratio, which would read 0).

``--trace 1`` is a separate run: after the same set-up and warm-up, an
untraced half window, then a half with wrappers around the program's
public functions (``layers.py``).  It prints the per-layer metrics, with
``trace.overhead_ratio`` (traced over untraced throughput) and
``trace.unattributed_ms`` (op time outside the traced spans), writes the
spans to ``.perfbench_out/<run>/spans.json`` and fails if a span that
``predictions.json`` expects for the workload recorded no call.  A layer
the workload bypasses reports 0.

Answers are checked outside the timed window against reference library
calls (see each workload module); a wrong answer makes ``correct`` false
and the exit code 1.  Every program process runs with ``PYTHONHASHSEED=0`` (see ``HASH_SEED``).

The last line of standard output is the result
``{"correct", "attempted", "failed", "metrics"}``; the line before it is
the stamp: host CPUs, the pinned CPU, Python, commit (or "unknown"
outside git), a digest of ``src/``, the seed, op counts, the wall
figures, the speed and ops of each part of the window and the
hypervisor's steal share during the window and the whole run.  Both are also
written to ``.perfbench_out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("serve-mix", "serve-sharded", "study-log", "study-stream")
#: every program process runs with this string-hash seed, so set and
#: dict iteration orders -- and with them the order-dependent searches
#: of the engines -- are the same in every run of one seed
HASH_SEED = "0"


def _fail(message: str, code: int) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", 2)
    sys.path.insert(0, str(ROOT / "src"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    import measure  # noqa: E402  (after the path set-up)

    stamp = measure.stamp(args.workload, args.seed, args.seconds, args.trace)
    out = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    try:
        measure.require_proc()
        stamp.update(measure.pin_to_calmest_cpu())
        ticks = measure.cpu_ticks()
        if args.workload.startswith("serve"):
            import serve

            result = serve.run(args.workload, args.seed, args.seconds, args.trace, out)
        else:
            import study

            run = study.run_log if args.workload == "study-log" else study.run_stream
            result = run(args.seed, args.seconds, args.trace, out)
        log = result["log"]
        if args.trace:
            values = result["layers"]
            wanted = spec["per_layer"]
        else:
            values = {
                name: entry["value"]
                for name, entry in log.end_to_end(result["setup_s"]).items()
            }
            wanted = spec["end_to_end"]
    except measure.Unsupported as exc:
        stamp["unsupported"] = str(exc)
        print(json.dumps(stamp))
        shutil.rmtree(out, ignore_errors=True)
        _fail(f"{args.workload} cannot run here: {exc}", 3)

    values.setdefault("bench.warmup_s", result["warmup_s"])
    metrics = {}
    for entry in wanted:
        # a layer the workload bypasses did no work: zero by construction
        metrics[entry["name"]] = {"value": values.get(entry["name"], 0.0), "unit": entry["unit"]}
    problems = list(result["problems"])
    if args.trace and result["coverage_missing"]:
        problems.append(
            "predicted spans recorded no call (a wrapper missed its binding): "
            + ", ".join(result["coverage_missing"])
        )
    stamp.update(
        ops_measured=len(log.latencies()),
        ops_attempted=log.attempted,
        ops_failed=log.failed,
        window_s=log.ended - log.started,
        ops_per_second=log.profile(),
        speed_by_bin=log.speed_profile(),
        probes=len(log.probes),
        wall=log.wall(),
        window_steal_share=log.steal,
        host_steal_share=measure.steal_share(ticks, measure.cpu_ticks()),
        setup_reps_s=result["setup_reps_s"],
        setup_wall_s=result["setup_wall_s"],
        warmup_s=result["warmup_s"],
        span_calls=result.get("calls", {}),
        errors=result.get("errors", {}),
        verified=result.get("verified"),
        cycled_inputs=result.get("cycled", False),
        problems=problems,
    )
    final = {
        "correct": not problems,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": metrics,
    }
    (out.parent / f"{out.name}.json").write_text(json.dumps({"stamp": stamp, "result": final}, indent=1))
    if not args.trace:
        shutil.rmtree(out, ignore_errors=True)
    print(json.dumps(stamp))
    print(json.dumps(final))
    if problems:
        for problem in problems[:20]:
            print(f"perfbench: {problem}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        # string hashing is fixed before the interpreter starts, so set
        # it and start again (same process; the server and shard workers
        # inherit it)
        env = dict(os.environ, PYTHONHASHSEED=HASH_SEED)
        os.execve(sys.executable, [sys.executable, *sys.argv], env)
    # a terminated run still stops the server process it started
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    os.chdir(ROOT)
    main()
