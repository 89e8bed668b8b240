"""Content-addressed result cache for experiments and sweeps.

Repeated sweeps and benchmark runs recompute identical seeded
simulations; because every run in this library is deterministic in
``(configuration, seed, code version)``, those recomputations are pure
waste.  This cache keys a JSON-serializable value on the SHA-256 of a
canonical encoding of that triple:

* the *payload* - an arbitrary JSON-able mapping describing the work
  (a work unit's config fields, workload, method, cycles, seed, ...);
* the *version tag* - by default a digest over the library's own source
  files, so any code change invalidates every cached entry.

Concurrent store layout
-----------------------
Entries are single JSON files under a configurable directory (the
``REPRO_CACHE_DIR`` environment variable, defaulting to
``~/.cache/repro-single-bus``), fanned out into 256 two-hex-prefix
shard subdirectories (``ab/<key>.json`` for a key starting ``ab``) so a
fleet of workers hammering one shared cache never serializes on a
single directory's inode lock and directory listings stay tractable at
millions of entries.

The store is safe for any number of concurrent readers and writers on
one filesystem:

* **Writes are crash-safe**: a unique temp file (pid plus a random
  token, so containerized workers sharing a pid namespace cannot
  collide) is fully written, then atomically renamed over the entry via
  ``os.replace``; a writer killed at any point leaves either the old
  entry, the new entry, or an orphaned ``*.tmp`` file - never a
  half-written entry.  Temp files are removed on any write failure, and
  :meth:`ResultCache.clear` sweeps orphans left by killed writers.
* **Same-key races are idempotent**: keys are content hashes, so two
  writers racing on one key write identical bytes and last-writer-wins
  is a no-op.
* **Reads never destroy healthy entries**: only a *proven-corrupt*
  entry (unparseable JSON or a failed integrity check) is evicted;
  transient I/O errors (NFS hiccups, permission races) count as plain
  misses and leave the entry alone for the next reader.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from typing import Any, Iterator, Mapping

from repro.core.errors import ConfigurationError

ENV_CACHE_DIR = "REPRO_CACHE_DIR"
"""Environment variable overriding the default cache directory."""

SHARD_PREFIX_LENGTH = 2
"""Hex characters of the key that name an entry's shard subdirectory."""

_SHARD_GLOB = "[0-9a-f]" * SHARD_PREFIX_LENGTH
_CODE_VERSION: str | None = None


def default_cache_dir() -> pathlib.Path:
    """The cache directory: ``$REPRO_CACHE_DIR`` or ``~/.cache/repro-single-bus``."""
    env = os.environ.get(ENV_CACHE_DIR)
    if env:
        return pathlib.Path(env)
    return pathlib.Path.home() / ".cache" / "repro-single-bus"


def canonical_json(payload: Any) -> str:
    """A canonical, whitespace-free, key-sorted JSON encoding."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )


def fingerprint(payload: Any) -> str:
    """SHA-256 hex digest of the canonical encoding of ``payload``."""
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


def config_payload(config) -> dict[str, Any]:
    """A stable JSON-able description of a :class:`SystemConfig`."""
    return {
        "processors": config.processors,
        "memories": config.memories,
        "memory_cycle_ratio": config.memory_cycle_ratio,
        "request_probability": config.request_probability,
        "priority": str(config.priority),
        "buffered": config.buffered,
        "buffer_depth": config.buffer_depth,
        "tie_break": str(config.tie_break),
    }


def case_payload(request) -> dict[str, Any]:
    """A stable JSON-able description of a simulation
    :class:`~repro.engine.base.EvalRequest`.

    Covers every field that influences the simulated bytes - including
    the workload spec, so a hot-spot or trace run can never collide with
    a uniform-workload entry for the same configuration and seed
    (``workload=None`` and an explicit uniform spec intentionally share
    a key: they execute identically).

    A latency-collecting request additionally carries a **versioned
    metrics field** (``"metrics": ["latency@1"]``): its cached value
    holds latency-distribution payloads a metric-less entry lacks, so
    the two must never share a key - and a future change to the latency
    payload format bumps the version token, which retires every older
    metric-bearing entry instead of misreading it.  Requests without
    metrics keep the exact pre-metrics payload shape (no ``metrics``
    key at all).  Geometric access times add
    ``"geometric_access_times": true``, and only when set, so every
    constant-access key stays as it was.
    """
    from repro.workloads.spec import workload_payload

    payload = {
        "config": config_payload(request.config),
        "cycles": request.cycles,
        "seed": request.seed,
        "warmup": request.warmup,
        "workload": workload_payload(request.workload),
    }
    if request.collects_latency:
        from repro.metrics import LATENCY_METRICS_TOKEN

        payload["metrics"] = [LATENCY_METRICS_TOKEN]
    if request.geometric_access_times:
        payload["geometric_access_times"] = True
    return payload


def code_version_tag() -> str:
    """A digest over the ``repro`` package sources (computed once).

    Any edit to any module under :mod:`repro` changes the tag, which
    changes every cache key, which turns every lookup into a miss - the
    conservative invalidation rule for a reproduction whose numbers are
    supposed to track the code exactly.

    Lifetime contract: the digest is computed on first call and cached
    for the life of the process, which is correct for batch runs (the
    code cannot change under a running sweep's feet without also
    changing its results) but *stale* for long-lived processes - a
    sweep coordinator or test harness that outlives a source edit keeps
    stamping the old tag.  Such processes must call
    :func:`reset_code_version_tag` after any event that may have
    changed the installed sources (and the service coordinator does so
    on startup, so every serve run re-reads the tree).
    """
    global _CODE_VERSION
    if _CODE_VERSION is None:
        import repro

        digest = hashlib.sha256()
        package_root = pathlib.Path(repro.__file__).parent
        for path in sorted(package_root.rglob("*.py")):
            digest.update(str(path.relative_to(package_root)).encode("utf-8"))
            digest.update(b"\0")
            digest.update(path.read_bytes())
            digest.update(b"\0")
        _CODE_VERSION = digest.hexdigest()[:16]
    return _CODE_VERSION


def reset_code_version_tag() -> None:
    """Drop the memoized :func:`code_version_tag` digest.

    The next :func:`code_version_tag` call re-hashes the package
    sources.  Call this from long-lived processes (coordinators, test
    harnesses, notebook kernels) whenever the installed code may have
    changed, so freshly-constructed caches never stamp a stale tag.
    """
    global _CODE_VERSION
    _CODE_VERSION = None


@dataclasses.dataclass
class CacheStats:
    """Hit/miss counters for one :class:`ResultCache` instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    evictions: int = 0
    """Proven-corrupt entries deleted on read."""
    transient_errors: int = 0
    """Reads that failed on I/O (counted as misses, entry left alone)."""
    put_errors: int = 0
    """Writes that failed on I/O (full disk, read-only store); the
    caller decides whether the failure is fatal."""


class ResultCache:
    """Content-addressed JSON store for deterministic computation results.

    Safe for concurrent multi-process readers and writers sharing one
    directory; see the module docstring for the layout and the
    crash-safety contract.
    """

    def __init__(
        self,
        cache_dir: str | os.PathLike | None = None,
        version_tag: str | None = None,
    ) -> None:
        self.cache_dir = pathlib.Path(
            cache_dir if cache_dir is not None else default_cache_dir()
        )
        self.version_tag = (
            version_tag if version_tag is not None else code_version_tag()
        )
        self.stats = CacheStats()
        try:
            self.cache_dir.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create cache directory {self.cache_dir}: {exc}"
            ) from exc

    # ------------------------------------------------------------------
    def key(self, payload: Mapping[str, Any]) -> str:
        """The cache key for ``payload`` under this cache's version tag."""
        return fingerprint({"payload": payload, "version": self.version_tag})

    def path_for(self, key: str) -> pathlib.Path:
        """The sharded-layout file that does or would hold ``key``'s entry."""
        return self.cache_dir / key[:SHARD_PREFIX_LENGTH] / f"{key}.json"

    def _entry_paths(self) -> Iterator[pathlib.Path]:
        """Every entry file."""
        return self.cache_dir.glob(f"{_SHARD_GLOB}/*.json")

    # ------------------------------------------------------------------
    def get(self, key: str) -> Any | None:
        """The stored value for ``key``, or ``None`` on a miss.

        Only a *proven-corrupt* file (bad JSON, failed integrity check)
        is evicted; a file that merely cannot be read right now
        (transient I/O error) is left for the next reader and counted
        as a miss - deleting it would throw away work another process
        just paid for.
        """
        path = self.path_for(key)
        try:
            raw = path.read_text(encoding="utf-8")
        except FileNotFoundError:
            raw = None
        except OSError:
            self.stats.transient_errors += 1
            raw = None
        if raw is not None:
            try:
                entry = json.loads(raw)
                if not isinstance(entry, dict) or entry.get("key") != key:
                    raise ValueError("cache entry fails integrity check")
                value = entry["value"]
            except (ValueError, KeyError, TypeError):
                self._evict(path)
            else:
                self.stats.hits += 1
                return value
        self.stats.misses += 1
        return None

    def put(self, key: str, value: Any) -> pathlib.Path:
        """Atomically store a JSON-serializable ``value`` under ``key``.

        Crash-safe and race-safe: the entry is staged in a uniquely
        named temp file (pid + random token) inside the target shard
        directory and renamed into place with ``os.replace``; the temp
        file is removed on any failure, so a full disk or a killed
        worker can leak at worst an empty ``*.tmp`` that
        :meth:`clear` sweeps.  Two processes racing on one key write
        identical content (keys are content hashes), so whichever
        rename lands last changes nothing.

        ``None`` is rejected: :meth:`get` returns ``None`` for a miss,
        so a stored null could never be distinguished from one.
        """
        if value is None:
            raise ConfigurationError(
                "cannot cache None: a stored null is indistinguishable "
                "from a cache miss"
            )
        path = self.path_for(key)
        entry = {"key": key, "version": self.version_tag, "value": value}
        encoded = json.dumps(entry, sort_keys=True, indent=None)
        token = os.urandom(4).hex()
        temp = path.with_name(f".{path.name}.{os.getpid()}.{token}.tmp")
        try:
            path.parent.mkdir(parents=True, exist_ok=True)
            temp.write_text(encoded, encoding="utf-8")
            os.replace(temp, path)
        except OSError:
            self.stats.put_errors += 1
            raise
        finally:
            temp.unlink(missing_ok=True)
        self.stats.stores += 1
        return path

    def get_many(self, keys) -> dict[str, Any]:
        """Probe many keys at once; returns ``{key: value}`` for hits only.

        The bulk front door for sweep planners: one call resolves every
        already-cached unit of a compiled sweep before any dispatch.
        Repeated keys (replication-deduplicated analytic units) are
        probed once - one hit or one miss in :attr:`stats` per *unique*
        key, matching what the per-unit loop it replaces would have
        charged after its own dedup.  Misses are simply absent from the
        result; per-key semantics (corrupt eviction, transient-as-miss)
        are exactly those of :meth:`get`.
        """
        found: dict[str, Any] = {}
        probed: set[str] = set()
        for key in keys:
            if key in probed:
                continue
            probed.add(key)
            value = self.get(key)
            if value is not None:
                found[key] = value
        return found

    # ------------------------------------------------------------------
    def clear(self) -> int:
        """Delete every entry; returns the number removed.

        Also sweeps orphaned ``*.tmp`` staging files left behind by
        writers killed mid-store (orphans do not count toward the
        returned total - they were never entries).
        """
        removed = 0
        for path in self._entry_paths():
            try:
                path.unlink()
                removed += 1
            except OSError:  # pragma: no cover - racing deleters
                pass
        self.sweep_orphans()
        return removed

    def sweep_orphans(self) -> int:
        """Remove ``*.tmp`` staging files abandoned by killed writers.

        Safe to run while other processes are writing only in the sense
        that an *in-flight* temp file swept here cleanly fails that
        writer's ``os.replace`` (the entry is simply not stored, never
        corrupted); intended for maintenance points such as
        :meth:`clear` or service startup, not for hot loops.
        """
        swept = 0
        for pattern in (".*.tmp", f"{_SHARD_GLOB}/.*.tmp"):
            for orphan in self.cache_dir.glob(pattern):
                try:
                    orphan.unlink()
                    swept += 1
                except OSError:  # pragma: no cover - racing deleters
                    pass
        return swept

    def __len__(self) -> int:
        return sum(1 for _ in self._entry_paths())

    def _evict(self, path: pathlib.Path) -> None:
        self.stats.evictions += 1
        try:
            path.unlink()
        except OSError:  # pragma: no cover - racing deleters
            pass
