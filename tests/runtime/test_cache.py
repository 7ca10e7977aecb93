"""Tests for the disk-backed artifact cache."""

from __future__ import annotations

import pickle
import threading
import time

import pytest

from repro.runtime.cache import (
    ArtifactCache,
    default_cache,
    resolve_cache_dir,
    set_default_cache,
)


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(directory=tmp_path / "cache")


class TestHitMiss:
    def test_miss_then_hit(self, cache):
        found, value = cache.get("k")
        assert not found and value is None
        cache.put("k", {"v": 1})
        found, value = cache.get("k")
        assert found and value == {"v": 1}
        assert cache.stats.misses == 1
        assert cache.stats.memory_hits == 1

    def test_get_or_compute_runs_once(self, cache):
        calls = []

        def compute():
            calls.append(1)
            return "artifact"

        assert cache.get_or_compute("k", compute) == "artifact"
        assert cache.get_or_compute("k", compute) == "artifact"
        assert len(calls) == 1

    def test_identity_preserved_in_process(self, cache):
        a = cache.get_or_compute("k", lambda: object())
        b = cache.get_or_compute("k", lambda: object())
        assert a is b

    def test_disk_round_trip_between_instances(self, tmp_path):
        first = ArtifactCache(directory=tmp_path)
        first.put("k", [1, 2, 3])
        second = ArtifactCache(directory=tmp_path)
        found, value = second.get("k")
        assert found and value == [1, 2, 3]
        assert second.stats.disk_hits == 1


class TestSingleFlight:
    THREADS = 8

    def race(self, cache, compute):
        """THREADS callers of one cold key, released by a barrier:
        each one's result or exception."""
        barrier = threading.Barrier(self.THREADS)
        got = [None] * self.THREADS

        def call(index):
            barrier.wait()
            try:
                got[index] = cache.get_or_compute("k", compute)
            except Exception as exc:  # collected, checked below
                got[index] = exc

        workers = [
            threading.Thread(target=call, args=(i,))
            for i in range(self.THREADS)
        ]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
        assert not any(worker.is_alive() for worker in workers)
        return got

    def all_waiting(self, cache):
        """Block until every other caller waits on the computation
        (each is counted as a memory hit before it blocks)."""
        deadline = time.monotonic() + 10.0
        while cache.stats.memory_hits < self.THREADS - 1:
            assert time.monotonic() < deadline, "callers never arrived"
            time.sleep(0.001)

    def test_concurrent_cold_callers_compute_once(self, cache):
        calls = []

        def compute():
            calls.append(1)
            self.all_waiting(cache)
            return object()

        got = self.race(cache, compute)
        assert len(calls) == 1
        assert all(value is got[0] for value in got)
        assert cache.get("k") == (True, got[0])

    def test_failed_compute_wakes_waiters_and_stores_nothing(self, cache):
        calls = []

        def compute():
            calls.append(1)
            self.all_waiting(cache)
            raise ValueError("no artifact")

        got = self.race(cache, compute)
        assert len(calls) == 1
        assert all(isinstance(value, ValueError) for value in got)
        assert all(value is got[0] for value in got)
        assert not cache.get("k")[0]
        assert cache.disk_entries() == 0
        # the key is not stuck: the next caller computes afresh
        assert cache.get_or_compute("k", lambda: "second") == "second"


class TestInvalidation:
    def test_invalidate_removes_both_layers(self, cache):
        cache.put("k", 1)
        assert cache.invalidate("k")
        found, _ = cache.get("k")
        assert not found
        assert cache.stats.invalidations == 1

    def test_invalidate_missing_is_false(self, cache):
        assert not cache.invalidate("absent")

    def test_clear_drops_disk_entries(self, cache):
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.clear() == 2
        assert cache.disk_entries() == 0
        assert len(cache) == 0


class TestCorruptionTolerance:
    def test_truncated_pickle_recomputes(self, tmp_path):
        first = ArtifactCache(directory=tmp_path)
        first.put("k", list(range(1000)))
        path, = tmp_path.glob("*.pkl")
        path.write_bytes(path.read_bytes()[:16])
        second = ArtifactCache(directory=tmp_path)
        value = second.get_or_compute("k", lambda: "recomputed")
        assert value == "recomputed"
        assert second.stats.load_errors == 1
        # the corrupt file was replaced by the fresh store
        fresh = ArtifactCache(directory=tmp_path)
        assert fresh.get("k") == (True, "recomputed")

    def test_garbage_bytes_recomputes(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        cache.put("k", 1)
        path, = tmp_path.glob("*.pkl")
        path.write_bytes(b"not a pickle at all")
        second = ArtifactCache(directory=tmp_path)
        found, _ = second.get("k")
        assert not found
        assert second.stats.load_errors == 1

    def test_unpicklable_value_degrades_to_memory(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path)
        cache.put("k", lambda: None)  # lambdas don't pickle
        assert cache.get("k")[0]  # memory front still serves it
        assert cache.disk_entries() == 0


class TestLRU:
    def test_eviction_order(self, tmp_path):
        cache = ArtifactCache(
            directory=tmp_path, memory_slots=2, persist=False
        )
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")        # refresh a; b is now least recent
        cache.put("c", 3)     # evicts b
        assert cache.stats.evictions == 1
        assert cache.get("a")[0]
        assert not cache.get("b")[0]
        assert cache.get("c")[0]

    def test_memory_only_cache_writes_nothing(self, tmp_path):
        cache = ArtifactCache(directory=tmp_path, persist=False)
        cache.put("k", 1)
        assert cache.disk_entries() == 0
        assert cache.get("k") == (True, 1)


class TestConfiguration:
    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert resolve_cache_dir() == tmp_path / "envcache"

    def test_explicit_dir_beats_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "envcache"))
        assert resolve_cache_dir(tmp_path / "explicit") == \
            tmp_path / "explicit"

    def test_default_cache_is_singleton_and_resettable(self):
        a = default_cache()
        assert default_cache() is a
        set_default_cache(None)
        b = default_cache()
        assert b is not a
        assert default_cache() is b

    def test_stats_as_dict_keys(self, cache):
        stats = cache.stats.as_dict()
        for key in ("hits", "misses", "stores", "evictions",
                    "invalidations", "load_errors", "hit_rate"):
            assert key in stats

    def test_snapshot(self, cache):
        cache.put("k", "v")
        snap = cache.snapshot()
        assert snap.disk_entries == 1
        assert snap.disk_bytes > 0
        assert snap.memory_entries == 1
        assert snap.as_dict()["directory"] == str(cache.directory)
