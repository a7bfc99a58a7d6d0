"""Deterministic fault injection and chaos testing.

* :class:`FaultPlan` — declarative, seed-driven description of the
  faults one run will suffer (crashes, targeted kills, transient I/O
  errors, lock-timeout storms).
* :class:`FaultInjector` — threads a plan through a storage engine's
  fault hooks.
* :mod:`repro.faults.chaos` — the crash-point sweep harness asserting
  integrity, graph isomorphism and no-re-migration after every
  crash/recover/resume cycle, plus the silent-corruption dimension
  (``kinds`` of :func:`~repro.faults.chaos.chaos_sweep`): torn
  checkpoint page writes, durable bit flips and torn log tails, with
  zero-silent-corruption accounting.  Every gate answers as a
  :class:`~repro.verify.OracleVerdict`.
"""

from .chaos import (
    CORRUPTION_KINDS,
    ChaosPointResult,
    ChaosReport,
    chaos_sweep,
    count_remigrations,
    probe_run_window,
    run_chaos_point,
)
from .injector import FaultInjector, InjectorStats
from .plan import ALWAYS, FaultPlan

__all__ = [
    "ALWAYS",
    "CORRUPTION_KINDS",
    "ChaosPointResult",
    "ChaosReport",
    "FaultInjector",
    "FaultPlan",
    "InjectorStats",
    "chaos_sweep",
    "count_remigrations",
    "probe_run_window",
    "run_chaos_point",
]
