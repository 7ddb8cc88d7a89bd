"""Unit tests for the content-addressed parse cache (repro.perf.cache)."""

import os
import pickle

import pytest

from repro.context import RunContext, current
from repro.perf import cache as cache_module
from repro.perf.cache import (
    PARSER_MODULES,
    CacheStats,
    ParseCache,
    cached_parse_schema,
    content_key,
    parser_source_digest,
)
from repro.sqlparser import ParseResult, parse_schema

DDL = "CREATE TABLE users (id INT PRIMARY KEY, name VARCHAR(40));"
DDL2 = "CREATE TABLE posts (pid INT);"


class TestContentKey:
    def test_distinct_texts_distinct_keys(self):
        assert content_key(DDL, None) != content_key(DDL2, None)

    def test_dialect_is_part_of_the_key(self):
        assert content_key(DDL, None) != content_key(DDL, "mysql")
        assert content_key(DDL, "mysql") != content_key(DDL, "postgres")

    def test_key_is_stable(self):
        assert content_key(DDL, "mysql") == content_key(DDL, "mysql")


class TestMemoryCache:
    def test_hit_and_miss_counters(self):
        cache = ParseCache()
        first = cache.parse(DDL)
        second = cache.parse(DDL)
        assert first is second
        # one whole-version miss = one fresh statement fragment whose
        # CREATE TABLE body carries two elements (two parse units)
        assert cache.stats == CacheStats(
            hits=1, misses=1, statement_misses=1, unit_misses=2
        )
        assert cache.stats.hit_rate == 0.5
        assert len(cache) == 1

    def test_statement_reuse_across_versions(self):
        cache = ParseCache()
        cache.parse(DDL + "\n" + DDL2)
        cache.parse(DDL + "\nCREATE TABLE tags (tid INT);")
        stats = cache.stats
        # the shared leading statement (and the zero-unit whitespace
        # separator segment) hit the fragment layer
        assert stats.statement_hits == 2
        assert stats.unit_hits == 2  # both body elements of DDL reused
        assert 0.0 < stats.statement_reuse_rate < 1.0

    def test_result_matches_direct_parse(self):
        cache = ParseCache()
        cached = cache.parse(DDL)
        direct = parse_schema(DDL)
        assert cached.schema == direct.schema
        assert cached.issues == direct.issues

    def test_dialects_cached_separately(self):
        cache = ParseCache()
        generic = cache.parse(DDL)
        mysql = cache.parse(DDL, dialect="mysql")
        assert generic is not mysql
        assert cache.stats.misses == 2

    def test_clear_drops_memory(self):
        cache = ParseCache()
        cache.parse(DDL)
        cache.clear()
        assert len(cache) == 0
        cache.parse(DDL)
        # fragment/element memos were dropped too, so the statement
        # recompiles — and the monotone counters survived the clear
        assert cache.stats == CacheStats(
            hits=0, misses=2, statement_misses=2, unit_misses=4
        )


class TestDiskCache:
    def test_unusable_cache_dir_degrades_to_memory_only(self, tmp_path):
        blocker = tmp_path / "not-a-dir"
        blocker.write_text("occupied")
        cache = ParseCache(cache_dir=blocker)
        assert cache.cache_dir is None
        result = cache.parse(DDL)
        assert cache.parse(DDL) is result
        assert cache.stats == CacheStats(
            hits=1, misses=1, disk_hits=0, statement_misses=1, unit_misses=2
        )

    def test_roundtrip_across_instances(self, tmp_path):
        writer = ParseCache(cache_dir=tmp_path)
        written = writer.parse(DDL)
        reader = ParseCache(cache_dir=tmp_path)
        read = reader.parse(DDL)
        assert reader.stats == CacheStats(hits=1, misses=0, disk_hits=1)
        assert read.schema == written.schema

    def test_corrupt_entry_degrades_to_miss(self, tmp_path):
        writer = ParseCache(cache_dir=tmp_path)
        writer.parse(DDL)
        (entry,) = tmp_path.glob("*.pkl")
        entry.write_bytes(b"not a pickle")
        reader = ParseCache(cache_dir=tmp_path)
        result = reader.parse(DDL)
        assert reader.stats == CacheStats(
            hits=0, misses=1, statement_misses=1, unit_misses=2
        )
        assert len(result.schema) == 1

    def test_wrong_object_on_disk_degrades_to_miss(self, tmp_path):
        cache = ParseCache(cache_dir=tmp_path)
        key = content_key(DDL, None)
        (tmp_path / f"{key}.pkl").write_bytes(pickle.dumps({"not": "it"}))
        result = cache.parse(DDL)
        assert isinstance(result, ParseResult)
        assert cache.stats.misses == 1

    def test_creates_directory(self, tmp_path):
        target = tmp_path / "deep" / "cache"
        ParseCache(cache_dir=target)
        assert target.is_dir()


class TestParserCodeInKey:
    """A parse cached by one version of the parser is never served to
    another: the parser's source digest is part of every key."""

    @pytest.mark.parametrize("edited", PARSER_MODULES)
    def test_digest_covers_each_parser_module(self, edited, monkeypatch):
        digest = parser_source_digest.__wrapped__
        before = digest()
        real = cache_module.inspect.getsource

        def getsource(module):
            source = real(module)
            return source + "# fix\n" if module.__name__ == edited else source

        monkeypatch.setattr(cache_module.inspect, "getsource", getsource)
        assert digest() != before

    def test_changed_parser_misses_a_populated_disk_cache(
        self, tmp_path, monkeypatch
    ):
        ParseCache(cache_dir=tmp_path).parse(DDL)
        same_parser = ParseCache(cache_dir=tmp_path)
        same_parser.parse(DDL)
        assert same_parser.stats.disk_hits == 1
        monkeypatch.setattr(
            cache_module, "parser_source_digest", lambda: "edited parser"
        )
        reader = ParseCache(cache_dir=tmp_path)
        result = reader.parse(DDL)
        # re-parsed from the text, not read back from the old pickle
        assert reader.stats == CacheStats(
            hits=0, misses=1, statement_misses=1, unit_misses=2
        )
        assert result.schema == parse_schema(DDL).schema
        assert len(list(tmp_path.glob("*.pkl"))) == 2


class TestStats:
    def test_arithmetic(self):
        a = CacheStats(hits=3, misses=1, disk_hits=2)
        b = CacheStats(hits=1, misses=1, disk_hits=1)
        assert a - b == CacheStats(hits=2, misses=0, disk_hits=1)
        assert a + b == CacheStats(hits=4, misses=2, disk_hits=3)

    def test_empty_hit_rate_is_zero(self):
        assert CacheStats().hit_rate == 0.0

    def test_as_dict(self):
        stats = CacheStats(hits=3, misses=1).as_dict()
        assert stats["hits"] == 3
        assert stats["hit_rate"] == 0.75

    def test_as_dict_from_dict_roundtrip(self):
        stats = CacheStats(
            hits=3, misses=1, disk_hits=2, statement_hits=40,
            statement_misses=4, fallback_parses=1, unit_hits=360,
            unit_misses=12,
        )
        assert CacheStats.from_dict(stats.as_dict()) == stats

    def test_from_dict_tolerates_old_records(self):
        # pre-statement-cache payloads have no "statements" block
        old = {"hits": 5, "misses": 2, "disk_hits": 1, "hit_rate": 0.71}
        stats = CacheStats.from_dict(old)
        assert stats.hits == 5
        assert stats.statement_lookups == 0
        assert stats.statement_reuse_rate == 0.0


class TestGlobalCache:
    def test_cached_parse_schema_uses_active_cache(self):
        before = current().cache.stats
        cached_parse_schema(DDL)
        cached_parse_schema(DDL)
        delta = current().cache.stats - before
        assert delta.hits == 1
        assert delta.misses == 1

    def test_cache_dir_reaches_workers_without_the_env(self, tmp_path):
        environ = dict(os.environ)
        ctx = RunContext(cache_dir=tmp_path)
        assert ctx.cache.cache_dir == tmp_path
        assert ctx.worker_config == (False, str(tmp_path))
        assert RunContext().worker_config == (False, None)
        assert dict(os.environ) == environ


class TestWarmPass:
    """A second pass through a filled parse cache is served from it and
    reproduces the cold pass (small corpus)."""

    @pytest.fixture(scope="class")
    def corpus(self):
        from repro.corpus import generate_corpus, scaled_profiles

        return generate_corpus(seed=77, profiles=scaled_profiles(32))

    def test_warm_mine_hits_and_reproduces_the_activity(self, corpus):
        from repro.mining import mine_project

        with RunContext().installed() as ctx:
            cold = [mine_project(p.repository) for p in corpus]
            cold_stats = ctx.cache.stats
            warm = [mine_project(p.repository) for p in corpus]
            warm_stats = ctx.cache.stats - cold_stats
        assert warm_stats.hit_rate > 0.95
        total = sum(h.schema_history.total_activity for h in cold)
        assert total > 0
        assert total == sum(h.schema_history.total_activity for h in warm)

    def test_warm_study_through_a_disk_cache(self, corpus, tmp_path):
        from repro.analysis import run_study

        with RunContext(cache_dir=tmp_path).installed():
            cold = run_study(corpus)
        # a fresh context starts with an empty memory tier: every warm
        # hit comes off the disk the cold pass filled
        with RunContext(cache_dir=tmp_path).installed():
            warm = run_study(corpus)
        assert warm.timings.cache.hit_rate > 0.95
        assert warm.timings.cache.disk_hits > 0
        assert warm.projects == cold.projects
