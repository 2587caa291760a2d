"""Shared measurement helpers: percentiles, peak memory, the output stamp.

Nothing here imports ``repro``; every workload module uses these to turn
raw per-op latencies and counters into the result record.
"""

from __future__ import annotations

import bisect
import hashlib
import json
import math
import os
import platform
import random
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, Iterable, List, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: a percentile is reported only when at least this many samples lie
#: beyond it (p99 needs >= 1000 ops, p90 >= 100)
TAIL_SAMPLES = 10


class Unsupported(Exception):
    """The run cannot support a metric (too few ops for a percentile)
    or the host cannot run the workload at all."""


def percentile_ms(latencies_s: List[float], q: float) -> float:
    """The ``q`` quantile of ``latencies_s`` in milliseconds (nearest
    rank).  Refuses a percentile the sample count cannot support."""
    n = len(latencies_s)
    beyond = n * (1.0 - q)
    if q > 0.5 and beyond < TAIL_SAMPLES - 1e-9:
        raise Unsupported(
            f"p{round(q * 100)} needs {TAIL_SAMPLES} samples beyond it; "
            f"the run completed only {n} ops"
        )
    ordered = sorted(latencies_s)
    index = min(n - 1, max(0, math.ceil(q * n) - 1))
    return ordered[index] * 1000.0


def latency_metrics(latencies_s: List[float]) -> Dict[str, float]:
    return {
        "p50_ms": percentile_ms(latencies_s, 0.50),
        "p90_ms": percentile_ms(latencies_s, 0.90),
        "p99_ms": percentile_ms(latencies_s, 0.99),
    }


def median(values: Iterable[float]) -> float:
    return statistics.median(list(values))


def peak_rss_kb(pid: int) -> int:
    """``VmHWM`` (peak resident set) of a live process, in kB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise Unsupported(f"/proc/{pid}/status has no VmHWM line")


def reset_peak_rss(pids: Iterable[int]) -> None:
    """Restart the ``VmHWM`` count of each process at its current
    resident size (Linux ``clear_refs`` value 5), so a later reading is
    the peak of the timed window, not of set-up or warm-up."""
    for pid in pids:
        try:
            with open(f"/proc/{pid}/clear_refs", "w", encoding="ascii") as handle:
                handle.write("5")
        except OSError as exc:
            raise Unsupported(f"cannot reset the peak RSS of process {pid}: {exc}")


def child_pids(pid: int) -> List[int]:
    """Direct children of ``pid`` (Linux ``/proc/<pid>/task/*/children``)."""
    children: List[int] = []
    task_dir = Path(f"/proc/{pid}/task")
    for task in task_dir.iterdir():
        try:
            text = (task / "children").read_text()
        except OSError:
            continue
        children.extend(int(token) for token in text.split())
    return sorted(set(children))


def require_proc() -> None:
    """Peak memory and child discovery read ``/proc``; a host without
    it cannot produce ``peak_rss_mb``."""
    if not Path(f"/proc/{os.getpid()}/status").exists():
        raise Unsupported("this host has no /proc; peak_rss_mb is unmeasurable")


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (user ... steal)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:9]]


def steal_share(before: List[int], after: List[int]) -> float:
    """Share of CPU time the hypervisor took from this host between two
    :func:`cpu_ticks` readings: a run with a high share ran on a
    contended host."""
    delta = [b - a for a, b in zip(before, after)]
    return delta[7] / sum(delta) if sum(delta) else 0.0


def source_digest() -> str:
    """SHA-256 over every file of ``src/`` (path and bytes), so a result
    names the exact program it measured even outside a git checkout."""
    digest = hashlib.sha256()
    src = ROOT / "src"
    for path in sorted(src.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(src)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown (git unavailable)"
    return out.stdout.strip() or "unknown"


def stamp(workload: str, seed: int, seconds: int, trace: int) -> Dict[str, object]:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count() or 1
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "host_cpus": os.cpu_count(),
        "usable_cpus": usable,
        "python": platform.python_version(),
        "implementation": sys.implementation.name,
        "platform": platform.platform(),
        "commit": commit(),
        "source_digest": source_digest(),
    }


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": value, "unit": unit}


def per_op(total: float, ops: int) -> float:
    return total / ops if ops else 0.0


#: the speed probe: a fixed slice of interpreter work, timed between
#: ops.  The host gives this benchmark a share of a CPU whose speed swings
#: by up to 2x within seconds (other tenants on the same core), and that
#: swing moves the program and the probe alike, so every time the
#: benchmark reports is scaled by ``REFERENCE_PROBE_S`` over the probe's
#: local duration: the time the op would have taken at the reference
#: speed.  The probe mixes random reads over a table larger than the
#: core's caches, object allocation with a recursive walk (like the
#: parsers and tree validators) and JSON and regex work in C (like the
#: wire codec).  On a contended core, per-second times of a study-log op
#: and of a study-stream op, scaled by it, varied 5% and 3% against 26%
#: and 27% unscaled; probes of one kind of work alone tracked one of the
#: two ops but not the other.
PROBE_TABLE_SIZE = 200_000
PROBE_READS = 1500
PROBE_NODES = 600
PROBE_RECORDS = 100
PROBE_TEXT = " ".join(f"k{i} = {i}" for i in range(150))
PROBE_PATTERN = re.compile(r"(\w+)\s*=\s*(\d+)")
#: the probe's median duration on a calm core of the 2-CPU host the
#: benchmark was sized on, so reported times read close to wall times there
REFERENCE_PROBE_S = 0.00125
#: a probe median per bin of this many seconds scales the ops of the bin
SPEED_BIN_S = 0.5
#: seconds between probes
PROBE_EVERY_S = 0.05
#: probes around a set-up step, and seconds of probing per CPU to pick one
SCALE_PROBES = 5
PIN_PROBE_S = 0.3


class _ProbeNode:
    __slots__ = ("value", "label", "children")

    def __init__(self, value: int, label: str) -> None:
        self.value, self.label, self.children = value, label, []


def _probe_size(node: _ProbeNode) -> int:
    return 1 + sum(_probe_size(child) for child in node.children)


#: the probe's read table, a constant built on the first probe (7 MB;
#: only processes that probe hold it)
_probe_table: List[int] = []


def probe_work() -> int:
    if not _probe_table:
        _probe_table.extend(range(1000, 1000 + PROBE_TABLE_SIZE))
    pick = random.Random(5).randrange
    total = 0
    for _ in range(PROBE_READS):
        total += _probe_table[pick(PROBE_TABLE_SIZE)]
    root = _ProbeNode(0, "")
    stack = [root]
    for i in range(PROBE_NODES):
        node = _ProbeNode(i, str(i))
        stack[-1].children.append(node)
        if i % 3 == 0:
            stack.append(node)
        elif i % 5 == 0 and len(stack) > 1:
            stack.pop()
    text = json.dumps({"records": [{"k": i, "v": str(i)} for i in range(PROBE_RECORDS)]})
    total += _probe_size(root) + len(json.loads(text)["records"])
    return total + len(PROBE_PATTERN.findall(PROBE_TEXT))


def time_probe() -> float:
    began = time.perf_counter()
    probe_work()
    return time.perf_counter() - began


def speed_scale() -> float:
    """Reference over current probe time (median of ``SCALE_PROBES``
    probes): multiplies a wall time measured now into reference-speed
    time."""
    return REFERENCE_PROBE_S / statistics.median(time_probe() for _ in range(SCALE_PROBES))


def at_reference(wall_s: float, scale_before: float, scale_after: float) -> float:
    """``wall_s`` of a set-up step at the reference speed, from the
    probes taken just before and just after it."""
    return wall_s * (scale_before + scale_after) / 2.0


def pin_to_calmest_cpu() -> Dict[str, object]:
    """Pin this process (and every process it starts later) to the usable
    CPU on which the probe runs fastest, so the program and the probe
    share one core and its speed.  Returns what was measured, for the
    stamp."""
    try:
        cpus = sorted(os.sched_getaffinity(0))
    except AttributeError:
        return {"pinned": None}
    medians = {}
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        samples = []
        ends = time.perf_counter() + PIN_PROBE_S
        while time.perf_counter() < ends:
            samples.append(time_probe())
        medians[cpu] = statistics.median(samples)
    calmest = min(cpus, key=lambda cpu: medians[cpu])
    os.sched_setaffinity(0, {calmest})
    return {"pinned": calmest, "probe_ms_by_cpu": {str(c): m * 1000.0 for c, m in medians.items()}}


class OpLog:
    """Per-op outcomes of one timed window of ``seconds``: every op
    completed in the window counts.  The window is interleaved with speed
    probes (``probe``); their time is not counted as op time, and the
    latencies and throughput it reports are scaled to the reference
    speed (see ``REFERENCE_PROBE_S``).  The window's hypervisor steal
    share is kept for the stamp."""

    def __init__(self, seconds: float) -> None:
        self.seconds = seconds
        self.done: List[float] = []  #: completion instants (perf_counter)
        self.latency: List[Optional[float]] = []  #: None for a failed op
        self.probes: List[Tuple[float, float]] = []  #: (start, end) of each probe
        self._probed = 0.0  #: their total duration
        self._ticks = cpu_ticks()
        self.steal = 0.0
        self.started = time.perf_counter()
        self.ended: Optional[float] = None
        #: peak resident memory of the program during the window
        self.rss_mb: Optional[float] = None
        self._bins: Optional[List[float]] = None

    def record(self, done: float, latency: float, ok: bool) -> None:
        self.done.append(done)
        self.latency.append(latency if ok else None)

    def probe(self) -> None:
        began = time.perf_counter()
        probe_work()
        ended = time.perf_counter()
        self.probes.append((began, ended))
        self._probed += ended - began

    def running(self) -> bool:
        return time.perf_counter() - self.started < self.seconds

    def probe_due(self) -> bool:
        return time.perf_counter() - (self.probes[-1][1] if self.probes else self.started) >= PROBE_EVERY_S

    def active_s(self, now: float) -> float:
        """Window time up to ``now``, probes excluded."""
        return now - self.started - self._probed

    def finish(self) -> None:
        """End the window (after the last in-flight op has answered)."""
        self.ended = time.perf_counter()
        self.steal = steal_share(self._ticks, cpu_ticks())
        if not self.probes:
            self.probe()

    def _bin(self, instant: float) -> int:
        return max(0, min(int((instant - self.started) / SPEED_BIN_S), len(self.bins()) - 1))

    def bins(self) -> List[float]:
        """Probe median of each speed bin of the window; a bin without a
        probe takes the nearest earlier one (or the first probed bin)."""
        if self._bins is None:
            count = max(1, math.ceil((self.ended - self.started) / SPEED_BIN_S))
            samples: List[List[float]] = [[] for _ in range(count)]
            for start, end in self.probes:
                index = max(0, min(int((start - self.started) / SPEED_BIN_S), count - 1))
                samples[index].append(end - start)
            first = next(statistics.median(s) for s in samples if s)
            bins, last = [], first
            for values in samples:
                last = statistics.median(values) if values else last
                bins.append(last)
            self._bins = bins
        return self._bins

    def scale(self, instant: float) -> float:
        """Reference-speed seconds per wall second at ``instant``."""
        return REFERENCE_PROBE_S / self.bins()[self._bin(instant)]

    @property
    def attempted(self) -> int:
        return len(self.done)

    @property
    def failed(self) -> int:
        return sum(1 for latency in self.latency if latency is None)

    def wall_latencies(self) -> List[float]:
        return [latency for latency in self.latency if latency is not None]

    def latencies(self) -> List[float]:
        """Latencies of the ops answered ok, at the reference speed."""
        return [
            latency * self.scale(done - latency)
            for done, latency in zip(self.done, self.latency)
            if latency is not None
        ]

    def reference_window_s(self) -> float:
        """The window, probes excluded, at the reference speed."""
        edges = [self.started + i * SPEED_BIN_S for i in range(len(self.bins()))] + [self.ended]
        edges[-1] = max(edges[-1], edges[-2])
        total = 0.0
        for index, (low, high) in enumerate(zip(edges, edges[1:])):
            probed = sum(max(0.0, min(end, high) - max(start, low)) for start, end in self.probes)
            total += (high - low - probed) * REFERENCE_PROBE_S / self.bins()[index]
        return total

    @property
    def throughput(self) -> float:
        return len(self.wall_latencies()) / self.reference_window_s()

    @property
    def wall_throughput(self) -> float:
        return len(self.wall_latencies()) / self.active_s(self.ended)

    def profile(self) -> List[int]:
        """Ops completed in each second of the window, for the stamp."""
        done = sorted(self.done)
        seconds = math.ceil(self.ended - self.started)
        edges = [self.started + i for i in range(seconds + 1)]
        return [bisect.bisect_left(done, b) - bisect.bisect_left(done, a) for a, b in zip(edges, edges[1:])]

    def speed_profile(self) -> List[float]:
        """Reference over local probe time, per ``SPEED_BIN_S`` bin, for
        the stamp."""
        return [round(REFERENCE_PROBE_S / value, 3) for value in self.bins()]

    def end_to_end(self, setup_s: float) -> Dict[str, Dict]:
        latencies = self.latencies()
        if not latencies:
            raise Unsupported("the timed window completed no op")
        metrics = {
            "setup_s": metric(setup_s, "s"),
            "throughput_ops": metric(self.throughput, "1/s"),
        }
        for name, value in latency_metrics(latencies).items():
            metrics[name] = metric(value, "ms")
        metrics["peak_rss_mb"] = metric(self.rss_mb, "MB")
        metrics["ok_ratio"] = metric(
            (self.attempted - self.failed) / self.attempted, "ratio"
        )
        return metrics

    def wall(self) -> Dict[str, float]:
        """The unscaled figures, for the stamp."""
        latencies = self.wall_latencies()
        if not latencies:
            return {}
        figures = {"throughput_ops": self.wall_throughput}
        try:
            figures.update(latency_metrics(latencies))
        except Unsupported:
            pass  # a half window of a traced run may be short of a tail
        return figures
