"""Partition Quiesce Reorganization (PQR) — the paper's baseline (§5.1).

PQR quiesces the partition before reorganizing it: it write-locks every
object *outside* the partition that references an object inside it (the
ERT's parents), then keeps locking parents surfacing in the TRT until a
fixpoint — after which no transaction can obtain a reference into the
partition, and the off-line migration can run safely.

No locks are needed on the partition's own objects: any transaction would
have to come in through an external parent (possibly a persistent root),
and those are all locked.

PQR's lock requests never time out (a deadlock cycle through PQR always
contains a user transaction whose own 1-second timeout breaks it) — a
timeout aborting a reorganization transaction holding hundreds of locks
would be far worse than waiting.
"""

from __future__ import annotations

from typing import Any, Generator, Set

from ..concurrency import LockMode
from ..errors import ReorganizationError
from ..storage.oid import Oid
from .offline import OfflineReorganizer
from .reorganizer import Reorganizer


class PartitionQuiesceReorganizer(OfflineReorganizer):
    """The PQR baseline of §5.1: the off-line migration, behind write
    locks on every external parent of the partition."""

    algorithm_name = "pqr"
    uses_trt = True

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.quiesce_locks = 0

    # Bound here, not inherited: perf/adapter.py traces ``run`` on this
    # class itself.
    run = Reorganizer.run

    def _precondition(self) -> None:
        if not self.engine.config.strict_transactions:
            # Quiescing by locking external parents only works when
            # transactions hold their locks to completion: with short-
            # duration locks a transaction could retain a copied-out
            # reference after PQR locked (and it released) the parent.
            # The paper presents PQR under the strict-2PL model only;
            # use IRA (which does the §4.1 history wait) instead.
            raise ReorganizationError(
                "PQR requires strict 2PL; the engine runs short-duration "
                "locks")

    def _quiesce_partition(self, txn, trt) -> Generator[Any, Any, None]:
        """Quiesce_Partition of §5.1: lock all ERT parents, then all TRT
        parents, repeating until nothing new surfaces."""
        engine = self.engine
        ert = engine.ert_for(self.partition_id)
        locked: Set[Oid] = set()
        while True:
            unlocked = (ert.all_parents() | trt.all_parents()) - locked
            if not unlocked:
                break
            for parent in sorted(unlocked):
                yield from engine.locks.acquire(
                    txn.tid, parent, LockMode.X, timeout_ms=float("inf"))
                locked.add(parent)
                self.quiesce_locks += 1
        self.stats.max_locks_held = engine.locks.object_lock_count(txn.tid)
