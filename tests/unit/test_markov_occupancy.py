"""Unit tests for :mod:`repro.markov.occupancy`.

The hand-solvable cases in these tests were worked out from the paper's
own construction; they pin the chain's transition semantics exactly.
"""

from __future__ import annotations

import pytest

from repro.core.errors import ConfigurationError
from repro.markov.occupancy import OccupancyChain, canonical


class TestCanonical:
    def test_sorts_descending_and_drops_zeros(self):
        assert canonical([0, 2, 1, 0, 3]) == (3, 2, 1)

    def test_accepts_mapping(self):
        assert canonical({0: 2, 1: 0, 2: 1}) == (2, 1)

    def test_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            canonical([1, -1])

    def test_empty(self):
        assert canonical([]) == ()


class TestTransitions:
    def test_rows_are_distributions(self):
        chain = OccupancyChain(4, 3, service_width=2)
        for state in chain.chain.states:
            row = chain.transition(state)
            assert sum(row.values()) == pytest.approx(1.0)
            assert all(p > 0 for p in row.values())

    def test_mass_conserved(self):
        chain = OccupancyChain(5, 4, service_width=3)
        for state in chain.chain.states:
            for successor in chain.transition(state):
                assert sum(successor) == 5

    def test_two_processors_two_modules_unlimited(self):
        # Hand-solved: from (1,1) both complete and re-draw:
        # collide w.p. 1/2; from (2,) one completes, re-draws: (2,) w.p. 1/2.
        chain = OccupancyChain(2, 2, service_width=None)
        assert chain.transition((1, 1)) == pytest.approx({(2,): 0.5, (1, 1): 0.5})
        assert chain.transition((2,)) == pytest.approx({(2,): 0.5, (1, 1): 0.5})

    def test_four_processors_two_modules(self):
        # Hand-solved: from (3,1) both busy modules complete, 2 re-draw.
        chain = OccupancyChain(4, 2, service_width=None)
        assert chain.transition((3, 1)) == pytest.approx(
            {(4,): 0.25, (3, 1): 0.5, (2, 2): 0.25}
        )
        assert chain.transition((2, 2)) == pytest.approx(
            {(3, 1): 0.5, (2, 2): 0.5}
        )

    def test_service_width_limits_completions(self):
        # With b=1 only one of the two busy modules completes.
        chain = OccupancyChain(2, 2, service_width=1)
        row = chain.transition((1, 1))
        # One module completes (chosen 50/50, symmetric), freed processor
        # re-draws uniformly: state (1,1) w.p. 1/2 (to the empty one) or
        # (2,) w.p. 1/2 (collides with the still-busy one).
        assert row == pytest.approx({(1, 1): 0.5, (2,): 0.5})

    def test_completions_in(self):
        chain = OccupancyChain(8, 8, service_width=3)
        assert chain.completions_in((1, 1, 1, 1, 1, 1, 1, 1)) == 3
        assert chain.completions_in((4, 4)) == 2
        assert chain.completions_in((8,)) == 1

    def test_invalid_state_rejected(self):
        chain = OccupancyChain(4, 2, service_width=None)
        with pytest.raises(ConfigurationError):
            chain.transition((3,))  # wrong total
        with pytest.raises(ConfigurationError):
            chain.transition((2, 1, 1))  # too many modules


class TestStateSpace:
    @pytest.mark.parametrize(
        "n,m,expected",
        [
            (2, 2, 2),   # partitions of 2 into <=2 parts
            (4, 2, 3),   # (4),(3,1),(2,2)
            (4, 4, 5),   # partitions of 4
            (8, 8, 22),  # partitions of 8
        ],
    )
    def test_state_count_equals_partition_count(self, n, m, expected):
        chain = OccupancyChain(n, m, service_width=None)
        assert chain.chain.size == expected

    def test_states_fewer_when_modules_limit_parts(self):
        # Partitions of 6 into <= 2 parts: (6),(5,1),(4,2),(3,3).
        chain = OccupancyChain(6, 2, service_width=None)
        assert chain.chain.size == 4


class TestStationaryQuantities:
    def test_two_by_two_busy_distribution(self):
        # Hand solve: pi(2,0) = pi(1,1) = 1/2.
        chain = OccupancyChain(2, 2, service_width=None)
        busy = chain.busy_distribution()
        assert busy[1] == pytest.approx(0.5)
        assert busy[2] == pytest.approx(0.5)

    def test_two_processors_four_modules_busy_distribution(self):
        # Hand solve: pi(2,...) = 1/4, pi(1,1,..) = 3/4.
        chain = OccupancyChain(2, 4, service_width=None)
        busy = chain.busy_distribution()
        assert busy[1] == pytest.approx(0.25)
        assert busy[2] == pytest.approx(0.75)

    def test_busy_distribution_sums_to_one(self):
        chain = OccupancyChain(6, 4, service_width=2)
        assert sum(chain.busy_distribution().values()) == pytest.approx(1.0)

    def test_expected_busy_crossbar_bandwidth(self):
        # Bhandarkar 2x2 exact bandwidth = 1.5 accepted requests/cycle.
        chain = OccupancyChain(2, 2, service_width=None)
        assert chain.expected_busy() == pytest.approx(1.5)

    def test_expected_completions_capped_by_width(self):
        chain = OccupancyChain(8, 8, service_width=2)
        assert chain.expected_completions() <= 2.0

    def test_single_processor(self):
        chain = OccupancyChain(1, 4, service_width=None)
        assert chain.chain.size == 1
        assert chain.expected_busy() == pytest.approx(1.0)

    def test_single_module(self):
        chain = OccupancyChain(4, 1, service_width=None)
        assert chain.expected_busy() == pytest.approx(1.0)

    def test_near_symmetry_of_expected_busy(self):
        # The paper notes Table 1 is symmetric in n and m.  The chain is
        # only *approximately* symmetric: the printed 3 decimals agree
        # but machine-precision values do not (Table 1 itself is pinned
        # digit-exact in tests/integration/test_paper_tables.py).
        a = OccupancyChain(6, 4, service_width=None).expected_busy()
        b = OccupancyChain(4, 6, service_width=None).expected_busy()
        assert a == pytest.approx(b, abs=1e-3)


class TestValidation:
    def test_rejects_bad_sizes(self):
        with pytest.raises(ConfigurationError):
            OccupancyChain(0, 2)
        with pytest.raises(ConfigurationError):
            OccupancyChain(2, 0)
        with pytest.raises(ConfigurationError):
            OccupancyChain(2, 2, service_width=0)
