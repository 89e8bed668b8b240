"""The lease protocol between sweep coordinator and workers.

One protocol, any transport.  Messages are single-line canonical JSON
objects with a ``"type"`` tag, so any byte pipe that can carry newline
delimited text - a subprocess's stdio, an ssh channel, a spool
directory of numbered files, a message queue - can carry the protocol
unchanged.  The conversation is deliberately tiny:

== ==================== ============================================
→  ``hello``             coordinator → worker: the list of scenario
                         specs (file-schema mappings), the kernel,
                         the optional shard designator (one spec only),
                         the shared cache configuration and the
                         coordinator's
                         :func:`~repro.parallel.cache.code_version_tag`
                         (a worker on other code answers ``error``).
                         The worker compiles the *same* deterministic
                         unit list locally (each spec's units in turn),
                         so leases can name positions instead of
                         shipping units.
←  ``ready``             worker → coordinator: unit count (checked
                         against the coordinator's own compile - a
                         mismatch means version skew) and the worker
                         pid.
→  ``lease``             an explicit list of positions into the
                         compiled unit list, with a lease id.  The
                         planner composes each list (fleet-affine
                         grouping, cost-weighted sizing), so positions
                         need not be contiguous; the worker evaluates
                         them in the order given.
←  ``result``            one evaluated unit: lease id, position,
                         global unit index, the evaluator's JSON
                         metrics payload (exact float round-trip, so
                         merged output is byte-identical to a serial
                         run) and whether it was served from cache.
←  ``lease_done``        the whole lease has been streamed; carries how
                         many of its results the worker could not
                         store in the shared cache.
←  ``error``             the worker failed; the message is diagnostic
                         and the coordinator re-leases remaining work.
→  ``shutdown``          coordinator → worker: drain and exit.
== ==================== ============================================

Every constructor validates its fields; :func:`decode_message` rejects
anything that is not a JSON object with a known ``type`` so a corrupt
transport fails loudly instead of silently dropping work.
"""

from __future__ import annotations

import json
from typing import Any, Mapping, Sequence

from repro.core.errors import ConfigurationError
from repro.parallel.cache import code_version_tag
from repro.scenarios.spec import ScenarioSpec, spec_from_mapping

PROTOCOL_VERSION = 5
"""Bumped on any incompatible message-shape change; ``hello`` carries
it and workers reject mismatches, so mixed-version fleets fail fast.
Version 2 replaced the contiguous ``[start, stop)`` range lease with an
explicit position list, so planners can compose fleet-affine leases.
Version 3 made ``hello``'s ``code_version`` field required.  Version 4
replaced ``hello``'s one ``spec`` with a ``specs`` list, so one
coordinator runs several scenarios as one unit list.  Version 5 dropped
``hello``'s ``backend`` field: the batch kernel runs on numpy only."""

MESSAGE_TYPES = frozenset(
    {"hello", "ready", "lease", "result", "lease_done", "error", "shutdown"}
)


def encode_message(message: Mapping[str, Any]) -> str:
    """One protocol message as one newline-free JSON line."""
    encoded = json.dumps(
        message, sort_keys=True, separators=(",", ":"), ensure_ascii=True
    )
    if "\n" in encoded:  # pragma: no cover - ensure_ascii forbids this
        raise ConfigurationError("protocol message encodes to multiple lines")
    return encoded


def decode_message(line: str) -> dict[str, Any]:
    """Parse and validate one protocol line."""
    try:
        message = json.loads(line)
    except ValueError as exc:
        raise ConfigurationError(
            f"undecodable protocol line: {line[:200]!r}"
        ) from exc
    if not isinstance(message, dict) or "type" not in message:
        raise ConfigurationError(
            f"protocol messages are JSON objects with a 'type', got "
            f"{line[:200]!r}"
        )
    if message["type"] not in MESSAGE_TYPES:
        raise ConfigurationError(
            f"unknown protocol message type {message['type']!r}"
        )
    return message


# ----------------------------------------------------------------------
# Scenario specs on the wire.
# ----------------------------------------------------------------------
def spec_to_mapping(spec: ScenarioSpec) -> dict[str, Any]:
    """Encode ``spec`` in the TOML/JSON file schema.

    The inverse of :func:`repro.scenarios.spec.spec_from_mapping`, so a
    worker rebuilds an *identical* spec (hence, by compiler determinism,
    an identical unit list) from the ``hello`` message alone - no shared
    filesystem or registry state required.
    """
    payload = spec.payload()
    mapping: dict[str, Any] = {
        "name": payload["name"],
        "description": spec.description,
        "method": payload["method"],
        "cycles": payload["cycles"],
        "base": payload["base"],
        "grid": payload["grid"],
        "workload": payload["workload"],
        "replications": {
            "count": spec.plan.replications,
            "base_seed": spec.plan.base_seed,
        },
        "metrics": payload["metrics"],
    }
    if payload["warmup"] is not None:
        mapping["warmup"] = payload["warmup"]
    if spec.geometric_access_times:
        mapping["geometric_access_times"] = True
    return mapping


def spec_from_wire(mapping: Mapping[str, Any]) -> ScenarioSpec:
    """Rebuild the scenario spec a ``hello`` message carries."""
    return spec_from_mapping(mapping)


# ----------------------------------------------------------------------
# Message constructors.
# ----------------------------------------------------------------------
def hello_message(
    specs: Sequence[ScenarioSpec],
    kernel: str,
    shard: tuple[int, int] | None = None,
    cache_dir: str | None = None,
    cache_enabled: bool = True,
    cache_version: str | None = None,
) -> dict[str, Any]:
    """The coordinator's opening message.

    ``cache_version`` is the shared store's version tag; without one,
    workers key their entries on their own code version.
    """
    cache: dict[str, Any] = {"enabled": bool(cache_enabled), "dir": cache_dir}
    if cache_version is not None:
        cache["version"] = cache_version
    return {
        "type": "hello",
        "protocol": PROTOCOL_VERSION,
        "code_version": code_version_tag(),
        "specs": [spec_to_mapping(spec) for spec in specs],
        "kernel": kernel,
        "shard": list(shard) if shard is not None else None,
        "cache": cache,
    }


def ready_message(units: int, pid: int) -> dict[str, Any]:
    """The worker's handshake reply: how many units it compiled."""
    return {"type": "ready", "units": int(units), "pid": int(pid)}


def lease_message(lease_id: int, positions) -> dict[str, Any]:
    """Lease an explicit list of positions into the compiled unit list."""
    cleaned = [int(position) for position in positions]
    if not cleaned:
        raise ConfigurationError("a lease must name at least one position")
    if any(position < 0 for position in cleaned):
        raise ConfigurationError(
            f"lease positions must be non-negative, got {cleaned!r}"
        )
    if len(set(cleaned)) != len(cleaned):
        raise ConfigurationError(
            f"lease positions must be unique, got {cleaned!r}"
        )
    return {
        "type": "lease",
        "lease_id": int(lease_id),
        "positions": cleaned,
    }


def result_message(
    lease_id: int,
    position: int,
    index: int,
    metrics: Mapping[str, Any],
    cached: bool,
) -> dict[str, Any]:
    """One evaluated unit's metrics payload."""
    return {
        "type": "result",
        "lease_id": int(lease_id),
        "position": int(position),
        "index": int(index),
        "metrics": dict(metrics),
        "cached": bool(cached),
    }


def lease_done_message(lease_id: int, put_errors: int = 0) -> dict[str, Any]:
    """Every position of the lease has been streamed; ``put_errors`` of
    its results could not be stored in the shared cache."""
    return {
        "type": "lease_done",
        "lease_id": int(lease_id),
        "put_errors": int(put_errors),
    }


def error_message(message: str) -> dict[str, Any]:
    """A worker-side failure report."""
    return {"type": "error", "message": str(message)}


def shutdown_message() -> dict[str, Any]:
    """The coordinator's drain-and-exit request."""
    return {"type": "shutdown"}
