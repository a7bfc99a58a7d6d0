"""The experiment harness: every table and figure, paper and extension.

:data:`EXPERIMENTS` is the registry and :func:`run` executes one entry
(``repro bench`` is a lookup into it); :mod:`harness` holds the runner
the entries share, :mod:`baseline` the ``BENCH.json`` layer.
"""

from .baseline import (
    compare_figure,
    load_baseline,
    new_baseline,
    save_baseline,
)
from .experiments import EXPERIMENTS, PAPER_EXPERIMENTS, run
from .harness import (
    SCALES,
    Arm,
    BenchPoint,
    BenchScale,
    Clause,
    Column,
    Experiment,
    base_workload,
    figure,
    render,
    run_arm,
    run_experiment,
)

__all__ = [
    "compare_figure",
    "load_baseline",
    "new_baseline",
    "save_baseline",
    "EXPERIMENTS",
    "PAPER_EXPERIMENTS",
    "SCALES",
    "Arm",
    "BenchPoint",
    "BenchScale",
    "Clause",
    "Column",
    "Experiment",
    "base_workload",
    "figure",
    "render",
    "run",
    "run_arm",
    "run_experiment",
]
