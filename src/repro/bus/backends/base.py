"""The :class:`BatchBackend` protocol and the batch engine token.

A backend is the *array substrate* the batch kernel's lockstep program
runs on: it supplies the array namespace, the per-row Philox stream
adapter, and - the piece that actually differs between substrates - the
``advance`` strategy that executes the per-cycle loop.

The engine token lives here (not in :mod:`repro.bus.batch`) so the
cache layer can name the batch namespace without importing the kernel.
Every backend is bit-identical to numpy, so they all share
:data:`BATCH_ENGINE_TOKEN` and their cache entries are interchangeable.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import ConfigurationError

BATCH_ENGINE_TOKEN = "simulation-batch@1"
"""Versioned engine token for batch-kernel cache entries.

The batch kernel is reproducible in itself but not bit-identical to the
exact kernels, so - unlike the ``fast`` lever - it owns a cache
namespace: bump the version when the batch kernel's numerical semantics
change, and only batch entries are retired.  The numpy and numba
backends all live here because they are proven bit-identical
(``tests/properties/test_backend_equivalence.py``)."""

_DIST = "repro-single-bus"


class BatchBackend:
    """One array substrate the batch kernel can execute on.

    Subclasses declare:

    ``name``
        The registry key (``--backend`` value).
    ``extra``
        The pip extra that installs an optional substrate, named in the
        :class:`ConfigurationError` raised when it is missing - never a
        silent fallback to another backend.  numpy is a runtime
        dependency, so the default backend has none.
    ``draw_chunk``
        Uniform draws buffered per row and stream between Philox
        refills.  Each row consumes its stream strictly in sequence, so
        the size never changes a draw, only how often a row refills.
        The numba driver ends a compiled segment whenever a buffer nears
        its end, so it keeps this large default.
    """

    name: str = ""
    extra: str = ""
    draw_chunk: int = 2048

    # -- availability ---------------------------------------------------
    def available(self) -> bool:
        """Whether every module this substrate needs is importable."""
        return True

    def require(self):
        """Import and return the array namespace, or raise naming the extra."""
        raise NotImplementedError

    def _missing(self, module: str):
        """The loud rejection every backend raises for an absent module."""
        raise ConfigurationError(
            f"backend='{self.name}' requires {module}, an optional "
            "dependency of this package; install it with "
            f"pip install '{_DIST}[{self.extra}]' "
            "(or use backend='numpy', the default)"
        ) from None

    # -- randomness -----------------------------------------------------
    def philox_generators(self, keys: Sequence[int]):
        """One counter-based Philox generator per fleet row."""
        xp = self.require()
        return [
            xp.random.Generator(xp.random.Philox(key=int(key)))
            for key in keys
        ]

    # -- execution ------------------------------------------------------
    def advance(self, kernel, count: int) -> None:
        """Advance ``kernel`` by ``count`` cycles on this substrate.

        The default runs the kernel's own vectorized array program;
        the numba backends override this with their compiled scalar
        loop.
        """
        if kernel._buffered:
            kernel._advance_buffered(count)
        else:
            kernel._advance_unbuffered(count)
