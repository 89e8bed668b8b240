#!/usr/bin/env python3
"""Cross-validation sweep: every analytical model against the simulator.

The paper validates its models in Section 5 by comparing them with
simulations.  This example redoes that validation across a parameter
sweep and prints the per-model error profile, which is how we establish
the tolerances used in tests/integration/test_model_vs_simulation.py.

Run:  python examples/model_validation.py
"""

from repro import Priority, SystemConfig, simulate
from repro.models import (
    approximate_memory_priority_ebw,
    exact_memory_priority_ebw,
    processor_priority_ebw,
)

CYCLES = 60_000


def validate_memory_priority() -> None:
    print("priority to memories (Section 3 models vs simulation)")
    print("n  m  r   sim     exact    err%    approx   err%")
    worst_exact = worst_approx = 0.0
    for n, m, r in [
        (4, 4, 6),
        (6, 8, 8),
        (8, 8, 8),
        (8, 16, 8),
        (8, 16, 12),
        (8, 4, 4),
    ]:
        config = SystemConfig(n, m, r, priority=Priority.MEMORIES)
        sim = simulate(config, cycles=CYCLES, seed=33).ebw
        exact = exact_memory_priority_ebw(config).ebw
        approx = approximate_memory_priority_ebw(config).ebw
        err_exact = 100 * (exact - sim) / sim
        err_approx = 100 * (approx - sim) / sim
        worst_exact = max(worst_exact, abs(err_exact))
        worst_approx = max(worst_approx, abs(err_approx))
        print(
            f"{n:<2} {m:<2} {r:<3} {sim:6.3f}  {exact:6.3f} {err_exact:+6.1f}%"
            f"  {approx:6.3f} {err_approx:+6.1f}%"
        )
    print(
        f"worst |error|: exact {worst_exact:.1f}%  approx {worst_approx:.1f}%"
    )


def validate_processor_priority() -> None:
    print()
    print("priority to processors (Section 4 reduced chain vs simulation)")
    print("m   r   sim     chain    err%")
    worst = 0.0
    for m, r in [(4, 4), (4, 12), (8, 4), (8, 8), (12, 8), (16, 8), (16, 12)]:
        config = SystemConfig(8, m, r, priority=Priority.PROCESSORS)
        sim = simulate(config, cycles=CYCLES, seed=34).ebw
        model = processor_priority_ebw(config).ebw
        err = 100 * (model - sim) / sim
        worst = max(worst, abs(err))
        print(f"{m:<3} {r:<3} {sim:6.3f}  {model:6.3f} {err:+6.1f}%")
    print(f"worst |error|: {worst:.1f}%")
    print(
        "(compare the paper's Section 5 claim of <= 5% 'in almost any "
        "case' for its own chain)"
    )


def main() -> None:
    validate_memory_priority()
    validate_processor_priority()


if __name__ == "__main__":
    main()
