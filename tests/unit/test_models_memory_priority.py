"""Unit tests for the Section 3 models (exact and combinational)."""

from __future__ import annotations

import pytest

from repro.core.config import SystemConfig
from repro.core.errors import ConfigurationError
from repro.core.policy import Priority
from repro.models.approx_memory_priority import approximate_memory_priority_ebw
from repro.models.exact_memory_priority import exact_memory_priority_ebw


def config(n: int, m: int, r: int, **kwargs) -> SystemConfig:
    kwargs.setdefault("priority", Priority.MEMORIES)
    return SystemConfig(n, m, r, **kwargs)


class TestExactModel:
    def test_hand_solved_2x2(self):
        # Hand solve: EBW = 0.5 + 2*(11/12)*0.5 = 1.41666...
        result = exact_memory_priority_ebw(config(2, 2, 9))
        assert result.ebw == pytest.approx(17 / 12)

    def test_hand_solved_4x2(self):
        result = exact_memory_priority_ebw(config(4, 2, 9))
        assert result.ebw == pytest.approx(1.625)

    def test_symmetric_in_n_and_m_at_print_precision(self):
        # Section 5 observes "the results are symmetrical on m and n".
        # Reproduction finding: the symmetry is not exact - it holds to
        # the paper's printed 3 decimals (e.g. 2.761018 vs 2.760959 for
        # (4,8)/(8,4)) but not to machine precision.
        for n, m in [(2, 6), (4, 8), (6, 8)]:
            r = min(n, m) + 7
            a = exact_memory_priority_ebw(config(n, m, r)).ebw
            b = exact_memory_priority_ebw(config(m, n, r)).ebw
            assert a == pytest.approx(b, abs=1e-3)
        # The asymmetry is real (not a solver artifact): exhibit it.
        a = exact_memory_priority_ebw(config(4, 8, 11)).ebw
        b = exact_memory_priority_ebw(config(8, 4, 11)).ebw
        assert abs(a - b) > 1e-6

    def test_bounded_by_max_ebw(self):
        for n, m, r in [(8, 8, 2), (8, 4, 1), (16, 16, 4)]:
            c = config(n, m, r)
            assert exact_memory_priority_ebw(c).ebw <= c.max_ebw + 1e-12

    def test_monotone_in_r(self):
        values = [
            exact_memory_priority_ebw(config(8, 8, r)).ebw for r in range(1, 16)
        ]
        assert values == sorted(values)

    def test_monotone_in_memories(self):
        values = [
            exact_memory_priority_ebw(config(4, m, 11)).ebw for m in (2, 4, 8, 12)
        ]
        assert values == sorted(values)

    def test_details_report_states(self):
        result = exact_memory_priority_ebw(config(4, 4, 9))
        assert result.details["states"] == 5  # partitions of 4
        assert result.method == "exact-memory-priority"

    def test_requires_p_one(self):
        with pytest.raises(ConfigurationError, match="p = 1"):
            exact_memory_priority_ebw(config(2, 2, 2, request_probability=0.5))

    def test_requires_unbuffered(self):
        with pytest.raises(ConfigurationError, match="unbuffered"):
            exact_memory_priority_ebw(config(2, 2, 2, buffered=True))

    def test_requires_memory_priority(self):
        with pytest.raises(ConfigurationError, match="priority"):
            exact_memory_priority_ebw(
                config(2, 2, 2, priority=Priority.PROCESSORS)
            )


class TestApproximateModel:
    def test_hand_solved_4x2(self):
        # distinct-modules pmf (1/8, 7/8) with r=9 weights: 1.729.
        result = approximate_memory_priority_ebw(config(4, 2, 9))
        assert result.ebw == pytest.approx(1 / 8 + 2 * (11 / 12) * 7 / 8)

    def test_agrees_with_exact_for_two_processors(self):
        # With n=2 the memoryless profile coincides with the stationary
        # one, so Table 2's first row equals Table 1's.
        for m in (2, 4, 6, 8):
            c = config(2, m, 9)
            approx = approximate_memory_priority_ebw(c).ebw
            exact = exact_memory_priority_ebw(c).ebw
            assert approx == pytest.approx(exact)

    def test_symmetric_variant_is_symmetric(self):
        a = approximate_memory_priority_ebw(config(8, 4, 11), symmetric=True).ebw
        b = approximate_memory_priority_ebw(config(4, 8, 11), symmetric=True).ebw
        assert a == pytest.approx(b)

    def test_symmetric_variant_closer_to_exact_when_n_exceeds_m(self):
        # The paper suggests symmetrisation because the exact results are
        # symmetric; verify it helps on the n > m half of Table 1.
        c = config(8, 4, 11)
        exact = exact_memory_priority_ebw(c).ebw
        plain = approximate_memory_priority_ebw(c, symmetric=False).ebw
        symmetric = approximate_memory_priority_ebw(c, symmetric=True).ebw
        assert abs(symmetric - exact) < abs(plain - exact)

    def test_disagreement_bounded_as_paper_claims(self):
        # Section 5: "observed numerical disagreements are always less
        # than 9%".
        for n in (2, 4, 6, 8):
            for m in (2, 4, 6, 8):
                c = config(n, m, min(n, m) + 7)
                exact = exact_memory_priority_ebw(c).ebw
                approx = approximate_memory_priority_ebw(c).ebw
                assert abs(approx - exact) / exact < 0.09

    def test_bounded_by_max_ebw(self):
        c = config(16, 4, 2)
        assert approximate_memory_priority_ebw(c).ebw <= c.max_ebw + 1e-12

    def test_method_labels(self):
        c = config(2, 2, 2)
        assert (
            approximate_memory_priority_ebw(c).method == "approx-memory-priority"
        )
        assert (
            approximate_memory_priority_ebw(c, symmetric=True).method
            == "approx-memory-priority-symmetric"
        )

    def test_requires_hypotheses(self):
        with pytest.raises(ConfigurationError):
            approximate_memory_priority_ebw(
                config(2, 2, 2, request_probability=0.5)
            )
        with pytest.raises(ConfigurationError):
            approximate_memory_priority_ebw(config(2, 2, 2, buffered=True))
        with pytest.raises(ConfigurationError):
            approximate_memory_priority_ebw(
                config(2, 2, 2, priority=Priority.PROCESSORS)
            )
