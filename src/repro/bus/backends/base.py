"""The :class:`BatchBackend` protocol and the batch engine-token registry.

A backend is the *array substrate* the batch kernel's lockstep program
runs on: it supplies the array namespace (`numpy`, or a drop-in like
`cupy`), the per-row Philox stream adapter, capability declarations
(can this substrate feed the host-side latency sketches?), and - the
piece that actually differs between substrates - the ``advance``
strategy that executes the per-cycle loop.

Engine tokens live here (not in :mod:`repro.bus.batch`) so the cache
layer can map a backend name to its namespace without importing the
kernel: **bit-identical backends share a token** (numpy and numba both
produce the exact bytes of ``simulation-batch@1``, so their cache
entries are interchangeable), while a backend that is only
statistically equivalent (cupy's Philox variant draws different bits)
owns a separate namespace and can never collide.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.errors import ConfigurationError

BATCH_ENGINE_TOKEN = "simulation-batch@1"
"""Versioned engine token for bit-identical batch-kernel cache entries.

The batch kernel is reproducible in itself but not bit-identical to the
exact kernels, so - unlike the ``fast`` lever - it owns a cache
namespace: bump the version when the batch kernel's numerical semantics
change, and only batch entries are retired.  The numpy and numba
backends both live here because they are proven bit-identical
(``tests/properties/test_backend_equivalence.py``)."""

CUPY_ENGINE_TOKEN = "simulation-batch-cupy@1"
"""Engine token for the GPU backend's cache entries.

CuPy's counter-based Philox generator is not the bit generator numpy
ships, so cupy results are only statistically equivalent to
``simulation-batch@1`` bytes - they get their own namespace instead of
polluting the bit-identical one."""

_DIST = "repro-single-bus"


class BatchBackend:
    """One array substrate the batch kernel can execute on.

    Subclasses declare:

    ``name``
        The registry key (``--backend`` value).
    ``extra``
        The pip extra that installs the substrate, named in the
        :class:`ConfigurationError` raised when it is missing - never a
        silent fallback to another backend.
    ``bitwise``
        Whether results are bit-identical to the numpy backend.
        Bit-identical backends share :data:`BATCH_ENGINE_TOKEN`;
        others must declare their own ``engine_token``.
    ``engine_token``
        The cache namespace results land in.
    ``supports_latency``
        Whether the backend can feed the host-side
        :class:`~repro.metrics.FleetQuantileSketch` histograms.
    ``draw_chunk``
        Uniform draws buffered per row and stream between Philox
        refills.  Each row consumes its stream strictly in sequence, so
        the size never changes a draw, only how often a row refills.
        The numba drivers end a compiled segment whenever a buffer nears
        its end, so they keep this large default.
    """

    name: str = ""
    extra: str = ""
    bitwise: bool = True
    engine_token: str = BATCH_ENGINE_TOKEN
    supports_latency: bool = True
    draw_chunk: int = 2048

    # -- availability ---------------------------------------------------
    def available(self) -> bool:
        """Whether every module this substrate needs is importable."""
        raise NotImplementedError

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
        """One counter-based Philox generator per fleet row.

        The default builds them from the backend's own array namespace,
        which works for any namespace exposing numpy's
        ``random.Generator``/``random.Philox`` pair.
        """
        xp = self.require()
        return [
            xp.random.Generator(xp.random.Philox(key=int(key)))
            for key in keys
        ]

    # -- capabilities ---------------------------------------------------
    def check_features(self, *, metrics: Sequence[str] = ()) -> None:
        """Reject requests this substrate cannot serve, loudly."""
        if "latency" in metrics and not self.supports_latency:
            raise ConfigurationError(
                f"backend='{self.name}' cannot collect latency "
                "distributions (the per-row quantile sketches are "
                "host-side); use backend='numpy' or backend='numba'"
            )

    # -- host transfer --------------------------------------------------
    def asnumpy(self, array):
        """Bring a backend array to host memory (identity on CPU)."""
        return array

    # -- execution ------------------------------------------------------
    def advance(self, kernel, count: int) -> None:
        """Advance ``kernel`` by ``count`` cycles on this substrate.

        The default runs the kernel's own vectorized array program,
        which is substrate-agnostic; backends with a faster execution
        strategy (numba's compiled scalar loop) override this.
        """
        if kernel._buffered:
            kernel._advance_buffered(count)
        else:
            kernel._advance_unbuffered(count)
