"""Multi-granularity hierarchical locking (ROADMAP item 4).

``repro.hlock`` provides :class:`HierarchicalLockManager` — IS/IX/S/SIX/X
intention locking over the partition → page → object granule tree with
configurable auto-escalation — as a drop-in replacement for the flat
:class:`~repro.concurrency.locks.LockManager`, selected per engine via
``SystemConfig.lock_manager``.  See CONCURRENCY.md.
"""

from ..concurrency.locks import LockManager
from .granules import (PageGranule, PartitionGranule, descendant_of,
                       page_granule_of, partition_granule_of)
from .manager import HierarchicalLockManager

LOCK_MANAGERS = ("flat", "hier")


def build_lock_manager(sim, config) -> LockManager:
    """Construct the lock manager a :class:`SystemConfig` asks for.

    The engine's one assembly path calls this for fresh boot and
    recovery alike, so the choice survives crash/restart.  The §4.1
    ever-locked history is kept exactly when something can read it:
    IRA consults it only when transactions release read locks early.
    """
    if config.lock_manager == "hier":
        return HierarchicalLockManager(
            sim,
            timeout_ms=config.lock_timeout_ms,
            track_history=not config.strict_transactions,
            detection=config.deadlock_detection,
            escalate_after=config.lock_escalate_after,
            partition_escalate_after=config.lock_partition_escalate_after,
            deescalate_on_conflict=config.lock_deescalate_on_conflict)
    if config.lock_manager != "flat":
        raise ValueError(f"lock_manager={config.lock_manager!r}; "
                         f"choose one of {LOCK_MANAGERS}")
    return LockManager(
        sim,
        timeout_ms=config.lock_timeout_ms,
        track_history=not config.strict_transactions,
        detection=config.deadlock_detection)


__all__ = [
    "HierarchicalLockManager",
    "LOCK_MANAGERS",
    "PageGranule",
    "PartitionGranule",
    "build_lock_manager",
    "descendant_of",
    "page_granule_of",
    "partition_granule_of",
]
