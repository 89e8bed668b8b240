"""Simulation tasks, batch fleets and result caching.

This subsystem holds the pieces every execution path shares, without
giving up the reproduction's core guarantee: *the numbers do not depend
on how they were scheduled*.

* :mod:`repro.parallel.workers` supplies :func:`run_case`, the one
  seeded simulator invocation of an
  :class:`~repro.engine.base.EvalRequest`, plus the seed-to-estimate
  tasks (:class:`EbwTask`, :class:`LatencyTask`) that
  :func:`repro.des.replications.replicate` and
  :func:`~repro.des.replications.replicate_latency` loop over;
* :class:`ResultCache` (:mod:`repro.parallel.cache`) is a
  content-addressed JSON store keyed on a canonical hash of each work
  unit plus a code-version tag, so repeated sweeps and experiment runs
  skip already-computed units;
* :mod:`repro.parallel.fleet` aggregates batch-kernel requests into
  lockstep fleets (:func:`~repro.parallel.fleet.run_fleet`), handing
  whole replication blocks to one vectorized
  :class:`~repro.bus.batch.BatchBusKernel` call.

Parallel execution lives elsewhere: one executor, the sweep service
(:mod:`repro.service`), runs a unit list on N forked workers through
:func:`run_scenarios(specs, workers=N) <repro.scenarios.execute.run_scenarios>`
- one scenario for ``repro-experiments scenario --workers N``, every
experiment's declared specs for ``repro-experiments all --workers N``.

Determinism guarantee
---------------------
Each item's randomness derives solely from its own seed via
:mod:`repro.des.rng`, so a request computes the same bytes in whichever
process runs it, and cached values are the bytes a fresh run would
produce.

The names above load their modules on first use.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.parallel.cache": (
            "ENV_CACHE_DIR",
            "CacheStats",
            "ResultCache",
            "canonical_json",
            "case_payload",
            "code_version_tag",
            "config_payload",
            "default_cache_dir",
            "fingerprint",
            "reset_code_version_tag",
        ),
        "repro.parallel.fleet": ("run_fleet",),
        "repro.parallel.workers": ("EbwTask", "LatencyTask", "run_case"),
    },
)

__all__ = [
    "ResultCache",
    "run_fleet",
    "CacheStats",
    "EbwTask",
    "LatencyTask",
    "run_case",
    "canonical_json",
    "fingerprint",
    "config_payload",
    "case_payload",
    "code_version_tag",
    "reset_code_version_tag",
    "default_cache_dir",
    "ENV_CACHE_DIR",
]
