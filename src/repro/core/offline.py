"""Quiescent-partition reorganization (paper §3.1).

:class:`OfflineReorganizer` is the footprint that locks nothing: it
assumes nothing touches the partition while it runs and migrates *every
allocated object* to its plan-assigned new location, rewriting internal
references via the old→new mapping and patching external parents
through the ERT.  PQR (:mod:`repro.core.pqr`) runs the same migration
once it has locked its way to that quiescence.

Everything is logged inside one system transaction, so the log analyzer
keeps the ERTs consistent and the whole reorganization is atomic: a
crash before the commit undoes it completely.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List

from ..errors import ReorganizationError
from ..sim import CpuMeter
from ..storage.oid import Oid
from .reorganizer import Reorganizer


class OfflineReorganizer(Reorganizer):
    """§3.1: reorganize a partition of a *quiescent* database.

    Refuses to run when user transactions are active — that is the whole
    point of the on-line algorithms this baseline motivates.
    """

    algorithm_name = "offline"

    def _precondition(self) -> None:
        active = set(self.engine.txns.active_tids())
        if active:
            raise ReorganizationError(
                f"database is not quiescent: active txns {sorted(active)}")

    def _migrate_all(self) -> Generator[Any, Any, None]:
        txn = self.engine.txns.begin(system=True,
                                     reorg_partition=self.partition_id)
        yield from self._quiesce_partition(txn, self.trt)
        yield from self._migrate_partition(txn)
        yield from txn.commit()

    def _quiesce_partition(self, txn, trt) -> Generator[Any, Any, None]:
        """Keep transactions out of the partition: nothing to lock, the
        database already is quiescent."""
        yield from ()

    def _migrate_partition(self, txn) -> Generator[Any, Any, None]:
        """Migrate every object of the quiesced partition in four passes,
        charging the CPU in 10 ms chunks."""
        engine = self.engine
        store = engine.store
        cost = engine.config
        cpu = CpuMeter(engine.cpu, chunk_ms=10.0)
        originals: List[Oid] = self.plan.order(
            list(store.live_oids(self.partition_id)))
        self.stats.objects_found = len(originals)

        # Snapshot external parents *before* creating copies: in an
        # evacuation the new copies' still-unpatched references into the
        # old partition would otherwise show up as external parents.
        ert = engine.ert_for(self.partition_id)
        external_parents = {oid: set(ert.parents_of(oid))
                            for oid in originals}

        # Pass 1: allocate every new copy (references still point at the
        # old addresses) and build the complete mapping.
        mapping: Dict[Oid, Oid] = {}
        for oid in originals:
            yield from cpu.charge(cost.cpu_migrate_ms)
            mapping[oid] = yield from self._copy(txn, oid, self._image(oid))

        # Pass 2: rewrite intra-partition references inside the new copies.
        for new_oid in mapping.values():
            for slot, child in store.read_object(new_oid).refs():
                if child in mapping:
                    yield from self._patch(txn, new_oid, child, mapping[child],
                                           slots=(slot,), charge=cpu.charge)

        # Pass 3: patch the external parents recorded in the ERT snapshot.
        for oid, new_oid in mapping.items():
            for parent in sorted(external_parents[oid]):
                if not store.exists(parent):
                    raise ReorganizationError(
                        f"external parent {parent} of {oid} vanished while "
                        f"the partition was supposedly quiescent")
                yield from self._patch(txn, parent, oid, new_oid,
                                       charge=cpu.charge)

        # Pass 4: free the old copies.
        for oid in originals:
            yield from cpu.charge(cost.cpu_update_extra_ms)
            yield from txn.delete_object(oid, cpu_ms=0)
            self.stats.objects_migrated += 1
        yield from cpu.flush()
        self.stats.mapping.update(mapping)
