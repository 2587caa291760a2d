"""Tests for the persistent analysis cache (repro.logs.cache): hit/miss
accounting, fingerprint invalidation, corrupted-file recovery, and
concurrent-writer safety."""

from concurrent.futures import ProcessPoolExecutor

import pytest

from repro.logs import analyzer
from repro.logs.analyzer import encode_analysis
from repro.logs.cache import (
    AnalysisCache,
    battery_fingerprint,
    cache_key,
)
from repro.sparql.parser import parse_query
from repro.testing.reference import analyze_query


def sample_record():
    return encode_analysis(
        analyze_query(
            parse_query("SELECT * WHERE { ?a <p> ?b FILTER(?a != <x>) }")
        )
    )


class TestAccounting:
    def test_miss_then_hit(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        key = cache_key("SELECT * WHERE { ?a <p> ?b }")
        hit, _record = cache.get(key)
        assert not hit
        assert (cache.hits, cache.misses) == (0, 1)
        cache.put(key, sample_record())
        hit, record = cache.get(key)
        assert hit and record == sample_record()
        assert (cache.hits, cache.misses) == (1, 1)
        assert cache.stats()["entries"] == 1

    def test_flush_and_reload(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        record = sample_record()
        cache.put("a" * 64, record)
        cache.put("b" * 64, None)  # known-invalid marker
        assert cache.flush() == 2
        assert cache.flush() == 0  # nothing dirty left

        reopened = AnalysisCache(tmp_path)
        hit, loaded = reopened.get("a" * 64)
        assert hit and loaded == record
        hit, loaded = reopened.get("b" * 64)
        assert hit and loaded is None  # a hit whose record is None
        assert len(reopened) == 2

    def test_put_is_idempotent(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        cache.put("c" * 64, sample_record())
        cache.put("c" * 64, sample_record())
        assert cache.flush() == 1


class TestFingerprint:
    def test_fingerprint_separates_directories(self, tmp_path):
        old = AnalysisCache(tmp_path, fingerprint="old-battery")
        old.put("d" * 64, sample_record())
        old.flush()
        fresh = AnalysisCache(tmp_path, fingerprint="new-battery")
        hit, _ = fresh.get("d" * 64)
        assert not hit  # the stale schema is invisible, not migrated

    def test_battery_version_changes_fingerprint(self, monkeypatch):
        before = battery_fingerprint()
        monkeypatch.setattr(analyzer, "BATTERY_VERSION", "999-test")
        after = battery_fingerprint()
        assert before != after

    def test_default_fingerprint_used_for_layout(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        cache.put("e" * 64, sample_record())
        cache.flush()
        assert (tmp_path / battery_fingerprint()).is_dir()

    def test_purge_stale(self, tmp_path):
        stale = AnalysisCache(tmp_path, fingerprint="stale")
        stale.put("f" * 64, sample_record())
        stale.flush()
        current = AnalysisCache(tmp_path)
        current.put("a" * 64, sample_record())
        current.flush()
        assert current.purge_stale() == 1
        assert not (tmp_path / "stale").exists()
        assert (tmp_path / current.fingerprint).is_dir()


class TestCorruptionRecovery:
    def test_corrupt_lines_are_skipped_not_fatal(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        good_key = "a" * 64
        cache.put(good_key, sample_record())
        cache.flush()
        shard = tmp_path / cache.fingerprint / f"shard-{good_key[:2]}.jsonl"
        with shard.open("a", encoding="utf-8") as handle:
            handle.write("this is not json\n")
            handle.write('{"r": "entry without a key"}\n')
            handle.write('{"k": "truncated-li')  # torn write, no newline

        reopened = AnalysisCache(tmp_path)
        hit, record = reopened.get(good_key)
        assert hit and record == sample_record()
        assert reopened.corrupt_lines == 3
        hit, _ = reopened.get("truncated-li")
        assert not hit  # damage degrades to a miss

    def test_binary_garbage_file(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        cache.put("a" * 64, sample_record())
        cache.flush()
        garbage = tmp_path / cache.fingerprint / "shard-zz.jsonl"
        garbage.write_bytes(b"\x00\xff\xfe garbage \x80\x81")
        reopened = AnalysisCache(tmp_path)
        assert len(reopened) == 1  # loads despite the damaged shard
        assert reopened.corrupt_lines >= 1

    def test_missing_directory_is_empty_cache(self, tmp_path):
        cache = AnalysisCache(tmp_path / "never-created")
        hit, _ = cache.get("a" * 64)
        assert not hit
        assert len(cache) == 0


class TestTornTailHealing:
    def torn_shard(self, tmp_path):
        """A cache whose shard ends mid-record, as a crash leaves it."""
        cache = AnalysisCache(tmp_path)
        good = "a" * 64
        torn = "ab" + "c" * 62  # lands in its own shard (shard-ab)
        cache.put(good, sample_record())
        cache.put(torn, sample_record())
        cache.flush()
        shard = tmp_path / cache.fingerprint / "shard-ab.jsonl"
        data = shard.read_bytes()
        shard.write_bytes(data[: len(data) - 30])  # tear the tail
        return good, torn, shard

    def test_truncated_tail_is_reanalyzed_not_lost(self, tmp_path):
        good, torn, _shard = self.torn_shard(tmp_path)
        reopened = AnalysisCache(tmp_path)
        hit, record = reopened.get(good)
        assert hit and record == sample_record()
        hit, _ = reopened.get(torn)
        assert not hit  # torn record degrades to a miss → re-analyzed
        assert reopened.corrupt_lines == 1

    def test_append_after_tear_heals_the_boundary(self, tmp_path):
        good, torn, shard = self.torn_shard(tmp_path)
        assert AnalysisCache._tail_is_torn(shard)
        healer = AnalysisCache(tmp_path)
        healer.get(torn)  # miss: caller re-analyzes…
        healer.put(torn, sample_record())  # …and re-caches
        assert healer.flush() == 1
        assert healer.healed_tails == 1
        assert not AnalysisCache._tail_is_torn(shard)
        # the corruption stayed isolated to one line: both records load
        final = AnalysisCache(tmp_path)
        assert final.get(good) == (True, sample_record())
        assert final.get(torn) == (True, sample_record())
        assert final.corrupt_lines == 1
        assert "healed_tails" in AnalysisCache(tmp_path).stats()

    def test_clean_tail_is_not_healed(self, tmp_path):
        cache = AnalysisCache(tmp_path)
        cache.put("a" * 64, sample_record())
        cache.flush()
        cache.put("ab" + "c" * 62, sample_record())
        cache.flush()
        assert cache.healed_tails == 0

    def test_missing_shard_is_not_torn(self, tmp_path):
        assert not AnalysisCache._tail_is_torn(tmp_path / "absent.jsonl")


class TestDurable:
    def test_durable_flush_round_trips(self, tmp_path):
        cache = AnalysisCache(tmp_path, durable=True)
        cache.put("a" * 64, sample_record())
        assert cache.flush() == 1
        reopened = AnalysisCache(tmp_path)
        assert reopened.get("a" * 64) == (True, sample_record())

    def test_durable_is_opt_in(self, tmp_path):
        assert AnalysisCache(tmp_path).durable is False
        assert AnalysisCache(tmp_path, durable=True).durable is True

    def test_durable_heals_torn_tails_too(self, tmp_path):
        cache = AnalysisCache(tmp_path, durable=True)
        key = "a" * 64
        cache.put(key, sample_record())
        cache.flush()
        shard = tmp_path / cache.fingerprint / "shard-aa.jsonl"
        shard.write_bytes(shard.read_bytes()[:-5])
        healer = AnalysisCache(tmp_path, durable=True)
        healer.put(key, sample_record())
        healer.flush()
        assert healer.healed_tails == 1
        assert AnalysisCache(tmp_path).get(key) == (True, sample_record())


def _concurrent_writer(args):
    """Module-level so the process pool can pickle it by reference."""
    root, start, count = args
    cache = AnalysisCache(root)
    record = sample_record()
    for index in range(start, start + count):
        cache.put(cache_key(f"query-{index}"), record)
    # every writer also touches a shared overlap of keys
    for index in range(5):
        cache.put(cache_key(f"shared-{index}"), record)
    return cache.flush()


class TestConcurrentWriters:
    def test_parallel_writers_same_directory(self, tmp_path):
        jobs = [(str(tmp_path), start, 25) for start in (0, 25, 50)]
        with ProcessPoolExecutor(max_workers=3) as pool:
            flushed = list(pool.map(_concurrent_writer, jobs))
        assert all(count > 0 for count in flushed)

        cache = AnalysisCache(tmp_path)
        cache.load()
        assert cache.corrupt_lines == 0
        for index in range(75):
            hit, record = cache.get(cache_key(f"query-{index}"))
            assert hit and record == sample_record()
        for index in range(5):
            hit, _ = cache.get(cache_key(f"shared-{index}"))
            assert hit
