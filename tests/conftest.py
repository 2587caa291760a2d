"""Fixtures shared across the test packages."""

import pytest

from repro.core import parallelism


@pytest.fixture
def single_cpu(monkeypatch):
    """Narrow the perceived machine to one usable CPU and re-arm the
    one-time downgrade warning.  Building a process pool fails the
    test: on one CPU every fan-out must run inline."""

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was built on one usable CPU")

    monkeypatch.setattr(parallelism, "usable_cpus", lambda: 1)
    monkeypatch.setattr(parallelism, "_fallback_warned", False)
    monkeypatch.setattr(parallelism, "ProcessPoolExecutor", no_pool)
