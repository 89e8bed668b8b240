"""Concurrent-store contract tests for :class:`ResultCache`.

The sweep service points any number of worker processes at one shared
cache directory, so the store must guarantee, under real multi-process
concurrency:

* a reader never observes a torn or corrupt entry, even mid-
  ``os.replace`` (atomic rename semantics);
* writers racing on one key are idempotent (content-addressed keys
  make the bytes identical, so last-writer-wins changes nothing);
* a writer killed between temp-file write and rename leaves no
  readable corruption and no permanent litter (``clear`` sweeps the
  orphan).

The stress tests drive real subprocesses (not threads) because the
bugs these protect against - torn reads, leaked temp files, eviction
of healthy entries - only manifest across process boundaries.
"""

from __future__ import annotations

import subprocess
import sys
import textwrap

from repro.parallel.cache import ResultCache


def _run_python(source: str, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", textwrap.dedent(source), *args],
        capture_output=True,
        text=True,
        timeout=120,
    )


_HAMMER_SOURCE = """
    import sys

    from repro.parallel.cache import ResultCache

    cache_dir, worker_id, rounds, keys = (
        sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), int(sys.argv[4])
    )
    cache = ResultCache(cache_dir=cache_dir, version_tag="stress")

    def expected(slot):
        # Deterministic value per key: every writer writes identical
        # content, so any successful read has exactly one legal answer.
        return {"slot": slot, "payload": [slot * 0.5, "x" * 64]}

    for round_number in range(rounds):
        slot = (worker_id + round_number) % keys
        key = cache.key({"slot": slot})
        value = cache.get(key)
        if value is not None and value != expected(slot):
            print(f"CORRUPT READ: slot {slot} gave {value!r}")
            sys.exit(1)
        cache.put(key, expected(slot))
        value = cache.get(key)
        if value != expected(slot):
            print(f"CORRUPT READ-AFTER-WRITE: slot {slot} gave {value!r}")
            sys.exit(1)
    sys.exit(0)
"""


class TestMultiprocessStress:
    def test_overlapping_writers_and_readers_never_corrupt(self, tmp_path):
        """>= 4 processes hammering overlapping keys: zero corrupt
        reads, zero evictions, zero leaked temp files."""
        cache_dir = tmp_path / "shared"
        workers = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    textwrap.dedent(_HAMMER_SOURCE),
                    str(cache_dir),
                    str(worker_id),
                    "120",
                    "7",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for worker_id in range(5)
        ]
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=120)
            assert worker.returncode == 0, f"worker failed: {stdout}{stderr}"
        # No staging litter, and every entry left behind is readable
        # and exact.
        assert list(cache_dir.rglob("*.tmp")) == []
        survivor = ResultCache(cache_dir=cache_dir, version_tag="stress")
        for slot in range(7):
            key = survivor.key({"slot": slot})
            value = survivor.get(key)
            assert value == {"slot": slot, "payload": [slot * 0.5, "x" * 64]}
        assert survivor.stats.evictions == 0

    def test_reader_mid_replace_sees_old_or_new_never_torn(self, tmp_path):
        """One writer rewrites a key in a tight loop while a reader
        polls it; the reader must only ever see a complete entry."""
        cache_dir = tmp_path / "shared"
        cache = ResultCache(cache_dir=cache_dir, version_tag="stress")
        key = cache.key({"slot": 0})
        cache.put(key, {"slot": 0, "payload": [0.0, "x" * 64]})
        writer = subprocess.Popen(
            [
                sys.executable,
                "-c",
                textwrap.dedent(_HAMMER_SOURCE),
                str(cache_dir),
                "0",
                "400",
                "1",
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
        )
        torn = 0
        while writer.poll() is None:
            value = cache.get(key)
            if value is not None and value != {
                "slot": 0,
                "payload": [0.0, "x" * 64],
            }:
                torn += 1
        stdout, stderr = writer.communicate(timeout=60)
        assert writer.returncode == 0, f"writer failed: {stdout}{stderr}"
        assert torn == 0
        assert cache.stats.evictions == 0


class TestCrashInjection:
    def test_writer_killed_between_temp_write_and_replace(self, tmp_path):
        """Kill a worker in the narrowest window - temp file fully
        written, rename not yet issued.  No corrupt entry may ever be
        readable, and the orphan is swept by clear()."""
        cache_dir = tmp_path / "shared"
        crash = _run_python(
            """
            import os
            import sys

            from repro.parallel.cache import ResultCache

            cache = ResultCache(cache_dir=sys.argv[1], version_tag="stress")
            key = cache.key({"slot": "crash"})

            def killed_mid_store(src, dst):
                os._exit(9)  # SIGKILL-equivalent: no cleanup runs

            os.replace = killed_mid_store
            cache.put(key, {"big": "value"})
            """,
            str(cache_dir),
        )
        assert crash.returncode == 9
        cache = ResultCache(cache_dir=cache_dir, version_tag="stress")
        key = cache.key({"slot": "crash"})
        # The orphaned temp file exists but is invisible to readers.
        orphans = list(cache_dir.rglob("*.tmp"))
        assert len(orphans) == 1
        assert cache.get(key) is None
        assert cache.stats.evictions == 0  # nothing to destroy
        # Maintenance sweeps the litter; the key stores cleanly after.
        cache.clear()
        assert list(cache_dir.rglob("*.tmp")) == []
        cache.put(key, {"big": "value"})
        assert cache.get(key) == {"big": "value"}

    def test_writer_killed_mid_temp_write_leaves_no_readable_entry(
        self, tmp_path
    ):
        """Kill during the temp write itself (partial JSON on disk)."""
        cache_dir = tmp_path / "shared"
        crash = _run_python(
            """
            import os
            import pathlib
            import sys

            from repro.parallel.cache import ResultCache

            cache = ResultCache(cache_dir=sys.argv[1], version_tag="stress")
            key = cache.key({"slot": "partial"})
            real_write_text = pathlib.Path.write_text

            def killed_mid_write(self, text, **kwargs):
                real_write_text(self, text[: len(text) // 2], **kwargs)
                os._exit(9)

            pathlib.Path.write_text = killed_mid_write
            cache.put(key, {"big": "value"})
            """,
            str(cache_dir),
        )
        assert crash.returncode == 9
        cache = ResultCache(cache_dir=cache_dir, version_tag="stress")
        key = cache.key({"slot": "partial"})
        assert cache.get(key) is None
        assert cache.stats.evictions == 0
        assert cache.sweep_orphans() == 1


class TestGetManyFailureEdges:
    """The planner's bulk probe inherits ``get``'s per-key semantics:
    a proven-corrupt entry is evicted and counted a miss, a transient
    I/O failure is counted a miss *without* eviction (the entry another
    process just paid for stays on disk for the next reader)."""

    def test_corrupt_entry_mid_probe_is_a_miss_with_one_eviction(
        self, tmp_path
    ):
        cache = ResultCache(cache_dir=tmp_path, version_tag="stress")
        keys = [cache.key({"slot": slot}) for slot in range(4)]
        for slot, key in enumerate(keys):
            cache.put(key, {"slot": slot})
        cache.path_for(keys[2]).write_text("{torn", encoding="utf-8")
        probe = ResultCache(cache_dir=tmp_path, version_tag="stress")
        found = probe.get_many(keys)
        assert set(found) == {keys[0], keys[1], keys[3]}
        assert probe.stats.hits == 3
        assert probe.stats.misses == 1
        assert probe.stats.evictions == 1
        assert probe.stats.transient_errors == 0
        # Proven corruption is destroyed, so the recompute stores clean.
        assert not probe.path_for(keys[2]).exists()

    def test_transient_oserror_mid_probe_is_a_miss_not_an_eviction(
        self, tmp_path, monkeypatch
    ):
        import pathlib

        cache = ResultCache(cache_dir=tmp_path, version_tag="stress")
        keys = [cache.key({"slot": slot}) for slot in range(3)]
        for slot, key in enumerate(keys):
            cache.put(key, {"slot": slot})
        target = cache.path_for(keys[1])
        real_read_text = pathlib.Path.read_text
        fired = []

        def flaky_read_text(self, *args, **kwargs):
            if self == target and not fired:
                fired.append(True)
                raise PermissionError("transient probe failure")
            return real_read_text(self, *args, **kwargs)

        monkeypatch.setattr(pathlib.Path, "read_text", flaky_read_text)
        probe = ResultCache(cache_dir=tmp_path, version_tag="stress")
        found = probe.get_many(keys)
        assert keys[1] not in found
        assert set(found) == {keys[0], keys[2]}
        assert probe.stats.hits == 2
        assert probe.stats.misses == 1
        assert probe.stats.transient_errors == 1
        assert probe.stats.evictions == 0
        # The entry was left alone; the next probe serves it intact.
        assert target.exists()
        assert probe.get(keys[1]) == {"slot": 1}

    def test_get_many_under_write_hammer_never_evicts(self, tmp_path):
        """Bulk probes racing real writer processes: a mid-replace read
        may miss but must never destroy or misreport an entry."""
        cache_dir = tmp_path / "shared"
        workers = [
            subprocess.Popen(
                [
                    sys.executable,
                    "-c",
                    textwrap.dedent(_HAMMER_SOURCE),
                    str(cache_dir),
                    str(worker_id),
                    "120",
                    "7",
                ],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                text=True,
            )
            for worker_id in range(3)
        ]
        probe = ResultCache(cache_dir=cache_dir, version_tag="stress")
        slot_keys = [probe.key({"slot": slot}) for slot in range(7)]
        while any(worker.poll() is None for worker in workers):
            found = probe.get_many(slot_keys)
            for key, value in found.items():
                slot = value["slot"]
                assert key == slot_keys[slot]
                assert value == {"slot": slot, "payload": [slot * 0.5, "x" * 64]}
        for worker in workers:
            stdout, stderr = worker.communicate(timeout=120)
            assert worker.returncode == 0, f"worker failed: {stdout}{stderr}"
        assert probe.stats.evictions == 0
        final = probe.get_many(slot_keys)
        assert set(final) == set(slot_keys)
