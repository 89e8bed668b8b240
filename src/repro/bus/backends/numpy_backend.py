"""The default batch backend: numpy's own vectorized array program."""

from __future__ import annotations

from repro.bus.backends.base import BatchBackend


class NumpyBackend(BatchBackend):
    """CPU reference substrate - the batch kernel's native execution.

    Bit-identical by definition (it *is* the kernel's array program) and
    therefore the anchor of the ``simulation-batch@1`` namespace every
    bit-identical backend must reproduce.
    """

    name = "numpy"
    # 2 KB per row and stream.  A sweep worker running the whole 70-row
    # Table 4 super-fleet peaked at 40.1 MB, against 41.9 MB with 2048,
    # and 512-row fleets ran no slower.
    draw_chunk = 256

    def require(self):
        import numpy

        return numpy
