"""Per-endpoint service metrics: counters and latency histograms.

The serving layer must answer "what is this process doing" without a
profiler attached, so every request updates an
:class:`EndpointMetrics`: outcome counters (ok / error-by-code / shed /
timed out), cache accounting (hit / miss / coalesced into an in-flight
execution), and a latency histogram.

The histogram is fixed-memory: geometric buckets from 10 µs to ~100 s
(ratio 1.3, ~150 ints) rather than a sample reservoir, so recording is
O(1), memory is bounded for any traffic volume, and quantiles are
monotone.  Quantiles interpolate within the bucket that contains the
requested rank; the relative error is bounded by the bucket ratio
(≤ 30%), which is the right trade for serving dashboards — the study
benchmarks record exact wall-clock timings separately.

All updates happen on the event-loop thread (the scheduler's worker
threads never touch metrics), so no locking is needed.
"""

from __future__ import annotations

import time
from bisect import bisect_left
from collections import Counter
from typing import Any, Dict, List, Optional as Opt

_BUCKET_RATIO = 1.3
_FIRST_BOUND = 1e-5  # 10 µs
_LAST_BOUND = 100.0  # 100 s


def _bounds() -> List[float]:
    bounds = [_FIRST_BOUND]
    while bounds[-1] < _LAST_BOUND:
        bounds.append(bounds[-1] * _BUCKET_RATIO)
    return bounds


#: shared upper bounds of the finite buckets (one overflow bucket after)
BUCKET_BOUNDS: List[float] = _bounds()


class LatencyHistogram:
    """Geometric-bucket latency histogram with interpolated quantiles."""

    __slots__ = ("counts", "count", "total", "min", "max")

    def __init__(self):
        self.counts = [0] * (len(BUCKET_BOUNDS) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Opt[float] = None
        self.max: Opt[float] = None

    def record(self, seconds: float) -> None:
        seconds = max(0.0, seconds)
        self.counts[bisect_left(BUCKET_BOUNDS, seconds)] += 1
        self.count += 1
        self.total += seconds
        self.min = seconds if self.min is None else min(self.min, seconds)
        self.max = seconds if self.max is None else max(self.max, seconds)

    def quantile(self, q: float) -> float:
        """The latency at rank ``q`` (0 < q <= 1), interpolated within
        its bucket; 0.0 when nothing was recorded."""
        if not self.count:
            return 0.0
        rank = max(1, int(q * self.count + 0.999999))
        seen = 0
        for index, bucket_count in enumerate(self.counts):
            if not bucket_count:
                continue
            if seen + bucket_count >= rank:
                upper = (
                    BUCKET_BOUNDS[index]
                    if index < len(BUCKET_BOUNDS)
                    else (self.max or BUCKET_BOUNDS[-1])
                )
                lower = BUCKET_BOUNDS[index - 1] if index > 0 else 0.0
                fraction = (rank - seen) / bucket_count
                value = lower + (upper - lower) * fraction
                # exact extremes beat bucket edges when they are tighter
                if self.max is not None:
                    value = min(value, self.max)
                if self.min is not None:
                    value = max(value, self.min)
                return value
            seen += bucket_count
        return self.max or 0.0

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> Dict[str, float]:
        return {
            "count": self.count,
            "mean_ms": round(self.mean * 1000.0, 4),
            "min_ms": round((self.min or 0.0) * 1000.0, 4),
            "max_ms": round((self.max or 0.0) * 1000.0, 4),
            "p50_ms": round(self.quantile(0.50) * 1000.0, 4),
            "p95_ms": round(self.quantile(0.95) * 1000.0, 4),
            "p99_ms": round(self.quantile(0.99) * 1000.0, 4),
        }


class EndpointMetrics:
    """Counters and latency for one operation name."""

    __slots__ = (
        "requests",
        "ok",
        "errors",
        "shed",
        "timeouts",
        "cache_hits",
        "cache_misses",
        "coalesced",
        "latency",
    )

    def __init__(self):
        self.requests = 0
        self.ok = 0
        self.errors: Counter = Counter()  # by error code
        self.shed = 0
        self.timeouts = 0
        self.cache_hits = 0
        self.cache_misses = 0
        self.coalesced = 0
        self.latency = LatencyHistogram()

    def snapshot(self) -> Dict[str, Any]:
        return {
            "requests": self.requests,
            "ok": self.ok,
            "errors": dict(sorted(self.errors.items())),
            "shed": self.shed,
            "timeouts": self.timeouts,
            "cache_hits": self.cache_hits,
            "cache_misses": self.cache_misses,
            "coalesced": self.coalesced,
            "latency": self.latency.snapshot(),
        }


class ServiceMetrics:
    """The service-wide registry: one :class:`EndpointMetrics` per op,
    plus connection-level counters the endpoints cannot see."""

    def __init__(self):
        self._endpoints: Dict[str, EndpointMetrics] = {}
        self.started = time.monotonic()
        self.connections = 0
        self.disconnects = 0  #: responses dropped on a gone connection
        self.protocol_errors = 0
        #: answers past the frame bound, sent as ``response_too_large``
        self.responses_too_large = 0
        #: *rejected* requests in the removed pre-typed (v1) wire
        #: encoding — each one answered with a typed BadRequest carrying
        #: an upgrade hint; a non-zero count means a straggler client
        self.legacy_requests = 0

    def endpoint(self, op: str) -> EndpointMetrics:
        metrics = self._endpoints.get(op)
        if metrics is None:
            metrics = self._endpoints[op] = EndpointMetrics()
        return metrics

    def record(
        self,
        op: str,
        started: float,
        outcome: str,
        error_code: Opt[str] = None,
    ) -> None:
        """Fold one finished request into the registry.  ``outcome`` is
        ``ok`` / ``error`` / ``shed`` / ``timeout``; latency is recorded
        for every outcome (a shed request's latency is its queue time,
        which is exactly what an overload investigation needs)."""
        metrics = self.endpoint(op)
        metrics.requests += 1
        metrics.latency.record(time.monotonic() - started)
        if outcome == "ok":
            metrics.ok += 1
        elif outcome == "shed":
            metrics.shed += 1
            metrics.errors[error_code or "overloaded"] += 1
        elif outcome == "timeout":
            metrics.timeouts += 1
            metrics.errors[error_code or "deadline_exceeded"] += 1
        else:
            metrics.errors[error_code or "service_error"] += 1

    def snapshot(self) -> Dict[str, Any]:
        return {
            "uptime_seconds": round(time.monotonic() - self.started, 3),
            "connections": self.connections,
            "disconnects": self.disconnects,
            "protocol_errors": self.protocol_errors,
            "responses_too_large": self.responses_too_large,
            "legacy_requests": self.legacy_requests,
            "endpoints": {
                op: metrics.snapshot()
                for op, metrics in sorted(self._endpoints.items())
            },
        }
