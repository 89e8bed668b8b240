"""The fast kernel's direct uniform draws equal ``randrange``'s.

:class:`~repro.bus.kernel.FastBusKernel` draws uniform targets and
random tie-breaks with the stream's own ``getrandbits``, in the loop
``Random.randrange(n)`` runs (:func:`repro.bus.kernel._randbelow`), so
the values and the streams' final states must match ``randrange``'s
exactly.  The copies of that loop inlined in ``advance`` are held to
the reference machine, which still calls ``randrange``, by
``tests/properties/test_kernel_equivalence.py`` and the scenario
goldens.
"""

from __future__ import annotations

import random

from repro.bus.kernel import _randbelow


class TestRandbelow:
    def test_values_and_state_equal_randrange(self):
        for n in range(1, 65):
            for seed in range(100):
                direct = random.Random(seed)
                expected = random.Random(seed)
                drawn = [_randbelow(direct.getrandbits, n) for _ in range(5)]
                assert drawn == [expected.randrange(n) for _ in range(5)]
                assert direct.getstate() == expected.getstate()
