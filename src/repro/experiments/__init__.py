"""Experiment harness: regenerates every table and figure of the paper.

See :mod:`repro.experiments.registry` for the experiment list and
:mod:`repro.experiments.runner` for the command-line interface.  The
names below load the registry on first use: ``scenario`` runs import
this package only for :mod:`~repro.experiments.paper_data` and
:mod:`~repro.experiments.grids`.
"""

from repro._lazy import lazy_exports

__getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "repro.experiments.registry": (
            "ExperimentResult",
            "ExperimentSpec",
            "all_experiments",
            "get",
        ),
    },
)

__all__ = [
    "ExperimentResult",
    "ExperimentSpec",
    "all_experiments",
    "get",
]
