"""Unit tests for the content-addressed result cache."""

from __future__ import annotations

import json
import os

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.parallel.cache import (
    ENV_CACHE_DIR,
    ResultCache,
    canonical_json,
    code_version_tag,
    config_payload,
    default_cache_dir,
    fingerprint,
    reset_code_version_tag,
)


@pytest.fixture
def cache(tmp_path):
    """A cache isolated in tmp_path with a fixed version tag."""
    return ResultCache(cache_dir=tmp_path / "cache", version_tag="v-test")


class TestFingerprint:
    def test_canonical_json_is_key_sorted_and_compact(self):
        assert canonical_json({"b": 1, "a": [1, 2]}) == '{"a":[1,2],"b":1}'

    def test_fingerprint_stable_across_key_order(self):
        assert fingerprint({"a": 1, "b": 2}) == fingerprint({"b": 2, "a": 1})

    def test_fingerprint_sensitive_to_values(self):
        assert fingerprint({"a": 1}) != fingerprint({"a": 2})

    def test_config_payload_round_trips_all_fields(self):
        config = SystemConfig(4, 8, 6, request_probability=0.5, buffered=True)
        payload = config_payload(config)
        assert payload["processors"] == 4
        assert payload["memories"] == 8
        assert payload["memory_cycle_ratio"] == 6
        assert payload["request_probability"] == 0.5
        assert payload["buffered"] is True
        assert payload["priority"] == "processors"
        # Must be JSON-able as-is.
        json.dumps(payload)

    def test_distinct_configs_distinct_fingerprints(self):
        a = config_payload(SystemConfig(2, 2, 2))
        b = config_payload(SystemConfig(2, 2, 3))
        assert fingerprint(a) != fingerprint(b)


class TestHitMiss:
    def test_miss_then_hit(self, cache):
        key = cache.key({"x": 1})
        assert cache.get(key) is None
        cache.put(key, {"value": 42})
        assert cache.get(key) == {"value": 42}
        assert cache.stats.misses == 1
        assert cache.stats.hits == 1

    def test_float_values_survive_exactly(self, cache):
        value = [0.1 + 0.2, 1e-17, 123456.789012345]
        cache.put("k" * 64, value)
        assert cache.get("k" * 64) == value

    def test_none_values_rejected(self, cache):
        with pytest.raises(ConfigurationError, match="miss"):
            cache.put("k" * 64, None)

    def test_len_and_clear(self, cache):
        for i in range(3):
            cache.put(cache.key({"i": i}), i)
        assert len(cache) == 3
        assert cache.clear() == 3
        assert len(cache) == 0

    def test_get_many_returns_only_the_hits(self, cache):
        keys = [cache.key({"x": i}) for i in range(4)]
        cache.put(keys[1], {"value": 1})
        cache.put(keys[3], {"value": 3})
        found = cache.get_many(keys)
        assert found == {keys[1]: {"value": 1}, keys[3]: {"value": 3}}
        assert cache.stats.hits == 2
        assert cache.stats.misses == 2

    def test_get_many_probes_duplicate_keys_once(self, cache):
        key = cache.key({"x": 1})
        cache.put(key, {"value": 7})
        found = cache.get_many([key, key, key])
        assert found == {key: {"value": 7}}
        assert cache.stats.hits == 1


class TestInvalidation:
    def test_different_config_misses(self, cache):
        stored = cache.key({"config": config_payload(SystemConfig(2, 2, 2))})
        cache.put(stored, 1.0)
        assert (
            cache.get(cache.key({"config": config_payload(SystemConfig(2, 2, 3))}))
            is None
        )

    def test_different_seed_misses(self, cache):
        cache.put(cache.key({"seed": 1}), 1.0)
        assert cache.get(cache.key({"seed": 2})) is None

    def test_version_tag_change_invalidates(self, tmp_path):
        old = ResultCache(cache_dir=tmp_path, version_tag="v1")
        new = ResultCache(cache_dir=tmp_path, version_tag="v2")
        payload = {"experiment_id": "demo"}
        old.put(old.key(payload), "old-value")
        assert new.get(new.key(payload)) is None
        assert old.get(old.key(payload)) == "old-value"

    def test_default_version_tag_tracks_source(self):
        tag = code_version_tag()
        assert isinstance(tag, str) and len(tag) == 16
        # Deterministic within a process.
        assert code_version_tag() == tag

    def test_reset_code_version_tag_forces_recompute(self, monkeypatch):
        """Long-lived processes can drop the memoized tag explicitly."""
        from repro.parallel import cache as cache_module

        tag = code_version_tag()
        # Simulate a stale memo from before a code edit.
        monkeypatch.setattr(cache_module, "_CODE_VERSION", "stale-tag")
        assert code_version_tag() == "stale-tag"
        reset_code_version_tag()
        assert code_version_tag() == tag


class TestCorruptionRecovery:
    def test_unparseable_file_is_miss_and_removed(self, cache):
        key = cache.key({"x": 1})
        cache.put(key, 1.0)
        cache.path_for(key).write_text("{not json", encoding="utf-8")
        assert cache.get(key) is None
        assert not cache.path_for(key).exists()
        assert cache.stats.evictions == 1

    def test_integrity_mismatch_is_miss(self, cache):
        key_a = cache.key({"x": 1})
        key_b = cache.key({"x": 2})
        cache.put(key_a, 1.0)
        # Simulate a renamed/moved entry: contents claim a different key.
        cache.path_for(key_b).parent.mkdir(parents=True, exist_ok=True)
        os.replace(cache.path_for(key_a), cache.path_for(key_b))
        assert cache.get(key_b) is None
        assert not cache.path_for(key_b).exists()

    def test_wrong_schema_is_miss(self, cache):
        key = cache.key({"x": 1})
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text('["a", "list"]', encoding="utf-8")
        assert cache.get(key) is None

    def test_recovers_by_restoring_after_eviction(self, cache):
        key = cache.key({"x": 1})
        path = cache.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("garbage", encoding="utf-8")
        assert cache.get(key) is None
        cache.put(key, "fresh")
        assert cache.get(key) == "fresh"

    def test_transient_read_error_is_miss_without_eviction(
        self, cache, monkeypatch
    ):
        """A healthy entry must survive a transient I/O failure.

        Before the fix, *any* OSError on read deleted the entry - so an
        NFS hiccup evicted work another process had just paid to
        compute.  Now only proven corruption evicts.
        """
        import pathlib

        key = cache.key({"x": 1})
        cache.put(key, {"value": 7})
        real_read_text = pathlib.Path.read_text

        def flaky_read_text(self, *args, **kwargs):
            if self.name.endswith(".json"):
                raise PermissionError("transient NFS glitch")
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "read_text", flaky_read_text)
        assert cache.get(key) is None
        monkeypatch.undo()
        # The entry is still there and readable.
        assert cache.get(key) == {"value": 7}
        assert cache.stats.evictions == 0
        assert cache.stats.transient_errors == 1


class TestCrashSafety:
    def test_put_failure_never_leaks_tmp_files(self, cache, monkeypatch):
        """A write that dies mid-store must clean up its staging file."""
        import pathlib

        key = cache.key({"x": 1})
        real_write_text = pathlib.Path.write_text

        def exploding_write_text(self, *args, **kwargs):
            if self.name.endswith(".tmp"):
                real_write_text(self, *args, **kwargs)  # partial progress
                raise OSError(28, "No space left on device")
            return real_write_text(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", exploding_write_text)
        with pytest.raises(OSError):
            cache.put(key, [1, 2, 3])
        monkeypatch.undo()
        leaked = list(cache.cache_dir.rglob("*.tmp"))
        assert leaked == []
        assert cache.get(key) is None  # nothing half-stored

    def test_tmp_names_are_unique_within_one_pid(self, cache, monkeypatch):
        """Two stores in one process (or two containers sharing a pid
        namespace) must stage under different names; the random token
        beyond the pid guarantees it."""
        import pathlib

        seen = []
        real_write_text = pathlib.Path.write_text

        def recording_write_text(self, *args, **kwargs):
            if self.name.endswith(".tmp"):
                seen.append(self.name)
            return real_write_text(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "write_text", recording_write_text)
        key = cache.key({"x": 1})
        cache.put(key, 1)
        cache.put(key, 1)
        assert len(seen) == 2 and seen[0] != seen[1]
        assert all(str(os.getpid()) in name for name in seen)

    def test_clear_sweeps_orphaned_tmp_files(self, cache):
        key = cache.key({"x": 1})
        cache.put(key, 1)
        orphan = cache.path_for(key).with_name(".dead.12345.abcd.tmp")
        orphan.write_text("partial", encoding="utf-8")
        root_orphan = cache.cache_dir / ".old.999.tmp"
        root_orphan.write_text("partial", encoding="utf-8")
        assert cache.clear() == 1  # orphans are not entries
        assert not orphan.exists()
        assert not root_orphan.exists()
        assert list(cache.cache_dir.rglob("*.tmp")) == []

    def test_sweep_orphans_counts(self, cache):
        (cache.cache_dir / ".a.1.tmp").write_text("x", encoding="utf-8")
        shard = cache.cache_dir / "ab"
        shard.mkdir()
        (shard / ".b.2.tmp").write_text("y", encoding="utf-8")
        assert cache.sweep_orphans() == 2


class TestShardedLayout:
    def test_entries_fan_out_into_two_hex_shards(self, cache):
        key = cache.key({"x": 1})
        cache.put(key, 1)
        path = cache.path_for(key)
        assert path.parent.name == key[:2]
        assert path.parent.parent == cache.cache_dir
        assert path.exists()


class TestDirectories:
    def test_env_var_overrides_default_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv(ENV_CACHE_DIR, str(tmp_path / "via-env"))
        assert default_cache_dir() == tmp_path / "via-env"

    def test_default_dir_without_env(self, monkeypatch):
        monkeypatch.delenv(ENV_CACHE_DIR, raising=False)
        assert default_cache_dir().name == "repro-single-bus"

    def test_cache_creates_directory(self, tmp_path):
        target = tmp_path / "a" / "b"
        ResultCache(cache_dir=target, version_tag="v")
        assert target.is_dir()

    def test_unwritable_directory_raises_configuration_error(self, tmp_path):
        blocker = tmp_path / "blocker"
        blocker.write_text("file, not dir")
        with pytest.raises(ConfigurationError):
            ResultCache(cache_dir=blocker / "sub", version_tag="v")
