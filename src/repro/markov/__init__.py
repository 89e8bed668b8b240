"""Finite Markov-chain substrate.

Generic DTMC machinery (:mod:`repro.markov.chain`), reachability-driven
chain construction (:mod:`repro.markov.builder`) and the shared sorted
occupancy-vector chain (:mod:`repro.markov.occupancy`) that underlies the
crossbar, multiple-bus and Section 3.1.1 exact models.  The exact chain
of the simulated machine itself, the simulators' independent oracle for
tiny configurations, is :mod:`repro.markov.machine`; import it from
there (it is not re-exported, so loading this package stays cheap).
"""

from repro.markov.builder import build_chain
from repro.markov.chain import DiscreteTimeMarkovChain
from repro.markov.occupancy import OccupancyChain, OccupancyState, canonical
from repro.markov.transient import (
    expected_hitting_steps,
    mixing_steps,
    step_distribution,
    total_variation_distance,
)

__all__ = [
    "DiscreteTimeMarkovChain",
    "build_chain",
    "OccupancyChain",
    "OccupancyState",
    "canonical",
    "step_distribution",
    "total_variation_distance",
    "mixing_steps",
    "expected_hitting_steps",
]
