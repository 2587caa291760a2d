"""Parallel RPQ evaluation (repro.graphs.parallel): answers must be
identical to one-at-a-time evaluation regardless of worker count, the
fan-out must scale with pool width, and a mapped store must cross the
pool boundary as its path, never its data."""

import pickle
import random
import warnings
from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.graphs.engine import compile_rpq
from repro.graphs.parallel import evaluate_rpq_many
from repro.graphs.rdf import TripleStore
from repro.regex.ast import Concat, Star, Symbol, Union
from repro.store import attach


def build_store(seed=7, nodes=40, triples=200) -> TripleStore:
    rng = random.Random(seed)
    store = TripleStore()
    names = [f"n{i}" for i in range(nodes)]
    for _ in range(triples):
        store.add(rng.choice(names), rng.choice("abc"), rng.choice(names))
    return store


EXPRS = [
    Symbol("a"),
    Symbol("b"),
    Concat((Symbol("a"), Symbol("b"))),
    Concat((Symbol("a"), Star(Union((Symbol("b"), Symbol("c")))))),
    Star(Symbol("c")),
    Union((Symbol("a"), Concat((Symbol("b"), Symbol("c"))))),
]


def expected(store, exprs, sources=None):
    return [
        compile_rpq(expr).evaluate(store, sources=sources) for expr in exprs
    ]


class RecordingPool:
    """Inline 'pool' that records how many tasks it was handed and how
    large each pickled task is (the function travels with every task,
    as it does through a real pool)."""

    def __init__(self, max_workers=4):
        self._max_workers = max_workers
        self.task_counts = []
        self.payload_sizes = []

    def map(self, fn, payloads):
        payloads = list(payloads)
        self.task_counts.append(len(payloads))
        self.payload_sizes.extend(len(pickle.dumps((fn, p))) for p in payloads)
        return [fn(p) for p in payloads]


class TestInline:
    def test_empty(self):
        assert evaluate_rpq_many(build_store(), []) == []

    def test_sequential_matches_engine(self):
        store = build_store()
        assert evaluate_rpq_many(store, EXPRS) == expected(store, EXPRS)

    def test_single_expression_stays_inline(self):
        store = build_store()
        pool = RecordingPool()
        answers = evaluate_rpq_many(store, EXPRS[:1], pool=pool)
        assert answers == expected(store, EXPRS[:1])
        assert pool.task_counts == []  # no fan-out for one expression

    def test_single_cpu_fallback_warns_once_and_stays_identical(
        self, single_cpu
    ):
        store = build_store()
        with pytest.warns(RuntimeWarning, match="one\\s+usable CPU"):
            answers = evaluate_rpq_many(store, EXPRS, workers=2)
        assert answers == expected(store, EXPRS)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            evaluate_rpq_many(store, EXPRS, workers=2)

    def test_sources_restriction(self):
        store = build_store()
        sources = sorted(store.nodes())[:8]
        assert evaluate_rpq_many(store, EXPRS, sources=sources) == expected(
            store, EXPRS, sources=sources
        )


class TestFanout:
    def test_lent_pool_answers_align_with_exprs(self):
        store = build_store()
        pool = RecordingPool(max_workers=2)
        answers = evaluate_rpq_many(store, EXPRS, pool=pool)
        assert answers == expected(store, EXPRS)

    def test_chunks_scale_with_pool_width(self):
        store = build_store()
        pool = RecordingPool(max_workers=4)
        evaluate_rpq_many(store, EXPRS, pool=pool)
        # 6 expressions, 4 workers: every worker must get work
        assert pool.task_counts[0] >= 4

    def test_real_pool_over_live_store(self):
        store = build_store(triples=60)
        with ProcessPoolExecutor(max_workers=2) as pool:
            answers = evaluate_rpq_many(store, EXPRS, pool=pool)
        assert answers == expected(store, EXPRS)


class TestZeroCopy:
    def test_mapped_store_matches_live(self, tmp_path):
        store = build_store()
        store.save(tmp_path / "store.img")
        mapped = attach(tmp_path / "store.img")
        pool = RecordingPool(max_workers=2)
        answers = evaluate_rpq_many(mapped, EXPRS, pool=pool)
        assert answers == expected(store, EXPRS)

    def test_mapped_payloads_are_path_sized(self, tmp_path):
        # the point of the mapped store: a 5000-triple image adds
        # nothing to the task payload — only the path crosses
        big = build_store(seed=9, nodes=400, triples=5000)
        big.save(tmp_path / "big.img")
        mapped = attach(tmp_path / "big.img")
        pool = RecordingPool(max_workers=4)
        evaluate_rpq_many(mapped, EXPRS, pool=pool)
        assert max(pool.payload_sizes) < 1024
        live_pool = RecordingPool(max_workers=4)
        evaluate_rpq_many(big, EXPRS, pool=live_pool)
        assert max(live_pool.payload_sizes) > 10 * max(pool.payload_sizes)

    def test_real_pool_over_mapped_store(self, tmp_path):
        store = build_store()
        store.save(tmp_path / "store.img")
        mapped = attach(tmp_path / "store.img")
        with ProcessPoolExecutor(max_workers=2) as pool:
            answers = evaluate_rpq_many(mapped, EXPRS, pool=pool)
        assert answers == expected(store, EXPRS)
