"""The ``sweep-work`` subcommand: one sweep worker on stdio.

Usage::

    # A worker endpoint speaking the lease protocol on stdio (spawned
    # where forking is unavailable; also usable behind ssh or a batch
    # queue):
    repro-experiments sweep-work

The coordinator side is ``repro-experiments scenario <name> --workers
N`` (:mod:`repro.scenarios.cli`) or ``repro-experiments all --workers
N``, which forks its workers where it can and spawns ``sweep-work``
peers where it cannot.
"""

from __future__ import annotations

import argparse
from typing import Sequence


def work_main(argv: Sequence[str] | None = None) -> int:
    """Entry point for ``repro-experiments sweep-work``."""
    parser = argparse.ArgumentParser(
        prog="repro-experiments sweep-work",
        description="Serve one sweep worker over the lease protocol on "
        "stdin/stdout (newline-delimited JSON).  Spawned by 'scenario "
        "--workers' where it cannot fork its workers; run it behind ssh "
        "or a batch queue for remote fleets.",
    )
    parser.add_argument(
        "--exit-after",
        type=int,
        default=None,
        metavar="K",
        help="fault-injection testing hook: die abruptly (no cleanup) "
        "after streaming the K-th result",
    )
    args = parser.parse_args(argv)
    if args.exit_after is not None and args.exit_after < 1:
        parser.error("--exit-after must be a positive integer")
    from repro.service.worker import serve_stdio

    return serve_stdio(exit_after=args.exit_after)
