"""Pluggable array backends for the batch kernel.

The batch kernel is a pure array program over ``(lanes, fleet)`` state;
this package supplies the substrates it can execute on, selected the
way kernels are today - by name, validated at compile time against the
:data:`KNOWN_BACKENDS` table, rejected loudly when the substrate is
missing (never a silent fallback):

``numpy``
    The default: the kernel's native vectorized program.  Defines the
    ``simulation-batch@1`` cache namespace.
``numba``
    JIT-compiled scalar cycle loop over the same state arrays
    (``[batch-jit]`` extra).  **Bit-identical** to numpy - proven by
    ``tests/properties/test_backend_equivalence.py`` - so it shares the
    ``simulation-batch@1`` namespace: cached entries are
    interchangeable between the backends.
``numba-parallel``
    The same loop source compiled with ``parallel=True``, so the
    ``prange`` over fleet rows runs on threads (``[batch-jit]`` extra).
    Fleet rows are fully independent, so each thread replays the
    serial statement sequence for its rows exactly: still
    **bit-identical**, still the ``simulation-batch@1`` namespace.
    ``NUMBA_NUM_THREADS`` bounds the pool.

:func:`get_backend` also passes :class:`BatchBackend` instances
through, so callers can inject configured instances (the equivalence
suite runs ``NumbaBackend(jit=False)`` to prove bit-identity without
numba installed).
"""

from __future__ import annotations

from repro._lazy import lazy_exports
from repro.bus.backends.base import BATCH_ENGINE_TOKEN, BatchBackend
from repro.bus.backends.numpy_backend import NumpyBackend
from repro.core.errors import ConfigurationError

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.bus.backends.numba_backend": (
            "NumbaBackend",
            "NumbaParallelBackend",
        ),
    },
)

__all__ = [
    "BATCH_ENGINE_TOKEN",
    "DEFAULT_BACKEND",
    "KNOWN_BACKENDS",
    "BatchBackend",
    "NumbaBackend",
    "NumbaParallelBackend",
    "NumpyBackend",
    "check_backend",
    "get_backend",
]

DEFAULT_BACKEND = "numpy"
"""The backend every batch entry point uses unless told otherwise."""

KNOWN_BACKENDS = ("numpy", "numba", "numba-parallel")
"""Every registered backend name, in documentation order.

The one table of backend names: :func:`check_backend` and both CLIs'
``--backend`` choices read it, so names outside it are rejected before
any work unit exists, mirroring ``KNOWN_KERNELS``."""

_REGISTRY: dict[str, BatchBackend] = {"numpy": NumpyBackend()}
"""Backend instances by name.  A numba backend joins on its first
request, so a run that names none never loads ``numba_backend.py``."""


def get_backend(backend: str | BatchBackend) -> BatchBackend:
    """Resolve a backend name (or pass an instance through).

    Unknown names raise :class:`ConfigurationError` naming the known
    table - resolution never guesses or falls back.
    """
    if isinstance(backend, BatchBackend):
        return backend
    resolved = _REGISTRY.get(backend)
    if resolved is not None:
        return resolved
    if backend not in KNOWN_BACKENDS:
        raise ConfigurationError(
            f"unknown batch backend {backend!r}; "
            f"known backends: {', '.join(KNOWN_BACKENDS)}"
        )
    from repro.bus.backends.numba_backend import (
        NumbaBackend,
        NumbaParallelBackend,
    )

    for cls in (NumbaBackend, NumbaParallelBackend):
        _REGISTRY.setdefault(cls.name, cls())
    return _REGISTRY[backend]


def check_backend(kernel: str, backend: str | BatchBackend) -> None:
    """Compile-time backend validation shared by CLI and compiler.

    Rejects unknown names and a non-default backend on a non-batch
    kernel (backends are the batch kernel's array substrate - other
    kernels have none to swap).
    """
    resolved = get_backend(backend)
    if resolved.name != DEFAULT_BACKEND and kernel != "batch":
        raise ConfigurationError(
            f"backend='{resolved.name}' selects the batch kernel's "
            f"array substrate and requires kernel='batch'; "
            f"got kernel={kernel!r}"
        )
