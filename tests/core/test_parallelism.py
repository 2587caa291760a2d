"""The shared fan-out (repro.core.parallelism): its chunk math and the
one inline/pool decision every batch stage makes through fan_out.

The original bug: chunk count was derived from a fixed chunk size, so a
moderate workload on many workers produced fewer chunks than workers and
the pool quietly serialized.  The invariant now is chunks >= workers
whenever there is enough work to go around.
"""

import math
import warnings

import pytest

from repro.core.parallelism import (
    FANOUT_PER_WORKER,
    fan_out,
    fanout_chunk_size,
    fanout_chunks,
    pool_width,
    usable_cpus,
)


class FakePool:
    """A lent 'pool' that runs its tasks inline and records them."""

    def __init__(self, max_workers):
        self._max_workers = max_workers
        self.tasks = []

    def map(self, fn, chunks):
        chunks = list(chunks)
        self.tasks.append(chunks)
        return [fn(chunk) for chunk in chunks]


class TestChunkMath:
    def chunks_for(self, total, workers, chunk_size):
        size = fanout_chunk_size(total, workers, chunk_size)
        return math.ceil(total / size) if total else 0

    def test_moderate_workload_fans_out_past_the_chunk_cap(self):
        # the original failure: 1000 entries, 4 workers, cap 512
        # produced 2 chunks — half the pool sat idle
        assert self.chunks_for(1000, 4, 512) >= 4

    def test_chunks_never_fewer_than_workers_when_work_suffices(self):
        for total in (7, 64, 500, 1000, 39220):
            for workers in (1, 2, 4, 8):
                for cap in (16, 512, 4096):
                    chunks = self.chunks_for(total, workers, cap)
                    assert chunks >= min(total, workers), (
                        total,
                        workers,
                        cap,
                    )

    def test_target_is_fanout_per_worker_multiples(self):
        assert self.chunks_for(10_000, 4, 10_000) == 4 * FANOUT_PER_WORKER

    def test_chunk_size_cap_still_binds_for_huge_inputs(self):
        size = fanout_chunk_size(1_000_000, 2, 512)
        assert size <= 512

    def test_tiny_inputs_one_item_per_chunk(self):
        assert fanout_chunk_size(3, 8, 512) == 1

    def test_empty_input(self):
        assert fanout_chunk_size(0, 4, 512) >= 1


class TestFanoutChunks:
    def test_partitions_preserve_order_and_cover_everything(self):
        items = list(range(1000))
        chunks = fanout_chunks(items, 4, 512)
        assert len(chunks) >= 4
        assert [x for chunk in chunks for x in chunk] == items

    def test_empty(self):
        assert fanout_chunks([], 4, 512) == []


class TestPoolWidth:
    def test_explicit_workers_win(self):
        assert pool_width(3, FakePool(8)) == 3

    def test_pool_max_workers_is_read(self):
        assert pool_width(None, FakePool(8)) == 8

    def test_defaults_to_usable_cpus(self):
        assert pool_width(None, None) == usable_cpus()

    def test_pool_without_the_attribute_falls_back(self):
        assert pool_width(None, object()) == usable_cpus()


class TestFanOut:
    def test_fewer_than_two_items_run_inline_even_with_a_pool(self):
        pool = FakePool(4)
        assert fan_out(list, [], workers=4, pool=pool, chunk_size=8) == [[]]
        assert fan_out(list, [7], workers=4, pool=pool, chunk_size=8) == [[7]]
        assert pool.tasks == []

    @pytest.mark.parametrize("workers", [None, 0, 1])
    def test_no_pool_and_one_worker_runs_inline(self, workers):
        items = list(range(10))
        assert fan_out(
            list, items, workers=workers, pool=None, chunk_size=2
        ) == [items]

    def test_lent_pool_gets_the_fanout_chunks(self):
        items = list(range(10))
        pool = FakePool(4)
        results = fan_out(sum, items, workers=None, pool=pool, chunk_size=8)
        assert pool.tasks == [fanout_chunks(items, 4, 8)]
        assert results == [sum(chunk) for chunk in pool.tasks[0]]

    def test_lent_pool_is_used_on_one_cpu(self, single_cpu):
        # the downgrade guards pools fan_out would build, not lent ones
        pool = FakePool(2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fan_out(sum, range(10), workers=2, pool=pool, chunk_size=8)
        assert len(pool.tasks) == 1

    def test_single_cpu_runs_inline_and_warns_once(self, single_cpu):
        items = list(range(10))
        with pytest.warns(RuntimeWarning, match="one\\s+usable CPU"):
            assert fan_out(
                list, items, workers=2, pool=None, chunk_size=2
            ) == [items]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            fan_out(list, items, workers=2, pool=None, chunk_size=2)

    def test_own_pool_results_align_with_chunks(self):
        # a real pool on a multi-CPU host, the inline downgrade on one
        items = list(range(10))
        results = fan_out(list, items, workers=2, pool=None, chunk_size=3)
        assert [x for chunk in results for x in chunk] == items
