"""The experiment harness: every table and figure, paper and extension.

:data:`EXPERIMENTS` is the registry and :func:`run` executes one entry
(``repro bench`` is a lookup into it); :mod:`harness` holds the runner
the entries share, :mod:`baseline` the ``BENCH_*.json`` layer.
"""

from .baseline import (
    compare_figure,
    figure_payload,
    load_baseline,
    new_baseline,
    save_baseline,
)
from .experiments import EXPERIMENTS, format_table2, run
from .harness import (
    SCALES,
    Arm,
    BenchPoint,
    BenchScale,
    Column,
    Experiment,
    base_workload,
    bench_scale,
    format_series,
    render,
    run_arm,
    run_experiment,
    run_point,
    run_three_way,
    save_results,
)

__all__ = [
    "compare_figure",
    "figure_payload",
    "load_baseline",
    "new_baseline",
    "save_baseline",
    "EXPERIMENTS",
    "SCALES",
    "Arm",
    "BenchPoint",
    "BenchScale",
    "Column",
    "Experiment",
    "base_workload",
    "bench_scale",
    "format_series",
    "format_table2",
    "render",
    "run",
    "run_arm",
    "run_experiment",
    "run_point",
    "run_three_way",
    "save_results",
]
