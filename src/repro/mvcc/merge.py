"""The merge reorganizer: on-line reorganization under MVCC.

The third arm beside IRA and two-lock IRA.  Where IRA write-locks the
parents of each object it moves — which is exactly what degrades user
response times in Table 2 — the merge never locks anything a user
transaction touches:

1. take a consolidation snapshot (an ordinary begin timestamp, which
   also pins the GC watermark below the cut while the merge reads);
2. for every logical object anchored in the partition, materialize the
   newest version at or below the cut and copy it into a freshly-placed
   base object, in plan order — the same ``RelocationPlan`` /
   ``repro.cluster`` placement policies IRA uses, so clustered-IRA's
   locality gains carry over;
3. log one ``MERGE_INSTALL`` record inside the system transaction and
   commit — the durable flip point;
4. re-anchor the lineage map in one synchronous step (the epoch flip):
   readers resolve to the new bases from that instant, and never
   observed an intermediate state;
5. old bases are freed later, once the GC watermark passes the cut.

A crash before the commit point physically undoes the new bases and
leaves the lineage untouched; a crash after it replays the creates and
re-applies the flip during ``MvccTier.recover`` — crash-resumable in
both directions with no torn state (the recovery tests' twin check).

Parent patching, exact-parent discovery, and the TRT have no
counterpart here: reference slots hold logical OIDs, so relocation is
one lineage-map write per object.  That is the lineage indirection the
tier pays one map lookup per read for.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..config import MvccConfig
from ..core.reorganizer import Reorganizer
from ..errors import ReorganizationError
from ..sim import Delay
from ..storage.oid import Oid
from ..wal.records import MergeInstallRecord


class MergeReorganizer(Reorganizer):
    """Consolidate one partition's versions into relocated fresh bases.

    Footprint: no lock a reader takes.  Constructor signature matches
    the ``REORGANIZERS`` registry so the serving fleet can drive merge
    workers exactly like IRA workers.  The merge is a single atomic
    system transaction; there is no mid-run progress worth carrying in
    the WAL (a crash re-runs it from scratch), so a state store is only
    ever cleared.  The probe fires "merged" (oid, new_oid).
    """

    algorithm_name = "mvcc-merge"

    def __init__(self, engine, partition_id: int, plan=None,
                 reorg_config=None, state_store=None,
                 mvcc_config: Optional[MvccConfig] = None):
        super().__init__(engine, partition_id, plan, reorg_config,
                         state_store)
        self.mvcc_cfg = mvcc_config

    # Bound here, not inherited: perf/adapter.py traces ``run`` on this
    # class itself.
    run = Reorganizer.run

    def _precondition(self) -> None:
        tier = self.engine.mvcc
        if tier is None:
            raise ReorganizationError(
                "merge reorganization needs an attached MVCC tier")
        if self.mvcc_cfg is None:
            self.mvcc_cfg = tier.cfg

    def _migrate_all(self) -> Generator[Any, Any, None]:
        engine = self.engine
        tier = engine.mvcc
        # The consolidation cut: also an active snapshot, pinning the GC
        # watermark so nothing the merge is about to read gets pruned.
        cut_ts = tier.begin_snapshot()
        targets = [loid for loid in sorted(tier.logical_ids)
                   if tier.resolve_physical(loid).partition
                   == self.partition_id]
        order = self.plan.order(targets)
        self.stats.objects_found = len(order)
        batch_size = max(1, self.mvcc_cfg.merge_batch_size)
        txn = engine.txns.begin(system=True)
        flips: Dict[Oid, Oid] = {}
        frees: List[Oid] = []
        try:
            for index, loid in enumerate(order):
                old_physical = tier.resolve_physical(loid)
                image, _ = yield from tier.read(loid, cut_ts)
                yield from engine.cpu.use(engine.config.cpu_migrate_ms)
                new_oid = yield from self._copy(txn, old_physical, image,
                                                fresh_only=True)
                flips[loid] = new_oid
                frees.append(old_physical)
                self._probe("merged", oid=loid, new_oid=new_oid)
                if (index + 1) % batch_size == 0:
                    if self.pacer is not None:
                        yield from self.pacer()
                    else:
                        # Let user transactions breathe between batches —
                        # the merge holds no locks, so this bounds only
                        # its CPU monopolization.
                        yield Delay(0.0)
            # The durable flip point rides inside the system transaction:
            # committed -> the flip happened; undone -> it never did.
            engine.log.append(MergeInstallRecord(
                0, 0, owner_tid=txn.tid, partition_id=self.partition_id,
                merge_ts=cut_ts,
                flips=tuple(sorted(flips.items())),
                frees=tuple(sorted(frees))))
            yield from txn.commit()
        except BaseException:
            if txn.active:
                yield from txn.abort(reason="merge-failed")
            tier.end_snapshot(cut_ts)
            raise
        # The epoch flip: synchronous, between scheduler yields — no
        # reader ever resolves through a half-installed lineage.
        tier.install_merge(flips, cut_ts, frees)
        self.stats.objects_migrated = len(flips)
        # Relocation is invisible at the logical layer, so there is no
        # old->new mapping for layouts/tracers to chase (``mapping``
        # stays empty on purpose — that invariance IS the feature).
        tier.end_snapshot(cut_ts)

    def _reclaim(self) -> Generator[Any, Any, None]:
        freed = yield from self.engine.mvcc.sweep_frees()
        self.stats.garbage_collected = freed
