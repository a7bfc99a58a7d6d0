"""Cross-node IRA: migration batches whose parents span nodes.

The single-node incremental reorganizer already handles every *local*
parent (traversal + ERT, exact-parent locking, logged REF_UPDATEs).
What changes across nodes is only the commit: a batch whose migrated
objects have parents on other nodes commits through presumed-abort 2PC
(:mod:`repro.dist.twopc`), so the remote reference patches land
atomically with the migration itself.

Remote parents surface naturally: ``_find_exact_parents`` drops any
ERT parent whose partition the local store does not hold (the
``store.exists`` check), leaving the local transaction untouched by
them; at commit time this class collects those same ERT entries, groups
them by owner node, and hands them to the coordinator.

Graceful degradation: when a participant is unreachable the coordinator
leaves the batch's transaction to the standard abort path, then *pauses*
on the failure detector until the peer is heard from again before
retrying — a partition stalls cross-node progress, it never corrupts.

The ERT entries for remote parents are fixed up in memory after a
committed 2PC round (the local WAL never carries the remote REF_UPDATEs,
so the log analyzer cannot do it); :func:`repro.dist.verify
.reconcile_remote_ert` rebuilds those fixes from the durable log after
a crash.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Tuple

from ..core.checkpointing import (WalReorgStateStore, resume_reorganization)
from ..core.ira import IncrementalReorganizer
from ..errors import NodeUnreachableError
from ..storage.oid import Oid
from .twopc import RemoteCommitAbort


class DistReorganizer(IncrementalReorganizer):
    """IRA whose batch commit spans nodes when the parents do."""

    algorithm_name = "dist-ira"

    def __init__(self, node, partition_id: int, plan=None,
                 reorg_config=None, state_store=None, transform=None):
        super().__init__(node.engine, partition_id, plan=plan,
                         reorg_config=reorg_config,
                         state_store=state_store, transform=transform)
        self.node = node
        self.cluster = node.cluster
        #: Remote parent slots patched through 2PC.
        self.remote_patches = 0
        #: Batches that needed a 2PC round.
        self.tpc_rounds = 0
        #: Simulated time spent paused on the failure detector.
        self.paused_ms = 0.0

    # A durable checkpoint right after discovery pins the migration
    # order before the first batch can commit, so *any* later crash
    # resumes the same deterministic sequence instead of re-discovering
    # (and re-migrating) a partially-reorganized partition.
    def _discover(self) -> Generator[Any, Any, None]:
        yield from super()._discover()
        if self.state_store is not None and self.cfg.checkpoint_every:
            self._checkpoint_state()

    def _remote_patches_for(self, batch_mapping: Dict[Oid, Oid]
                            ) -> Dict[int, List[Tuple[Oid, Oid, Oid]]]:
        ert = self.engine.ert_for(self.partition_id)
        by_node: Dict[int, List[Tuple[Oid, Oid, Oid]]] = {}
        for old in sorted(batch_mapping):
            new = batch_mapping[old]
            for parent in sorted(ert.parents_of(old)):
                if self.engine.store.has_partition(parent.partition):
                    continue  # local parent: already patched in the txn
                owner = self.cluster.owner(parent.partition)
                by_node.setdefault(owner, []).append((parent, old, new))
        return by_node

    def _commit_batch(self, txn, batch_mapping: Dict[Oid, Oid]
                      ) -> Generator[Any, Any, None]:
        by_node = self._remote_patches_for(batch_mapping)
        if not by_node:
            yield from txn.commit()
            return
        self.tpc_rounds += 1
        try:
            yield from self.node.twopc.coordinate_commit(txn, by_node)
        except NodeUnreachableError as exc:
            # The peer is gone; don't spin RPC timeouts through the
            # batch retry budget.  Pause until the detector hears from
            # it, then funnel into the standard abort-and-retry path
            # (coordinate_commit left the transaction active).
            started = self.engine.sim.now
            peer = exc.node if exc.node >= 0 else None
            if peer is not None:
                yield from self.node.detector.await_up(peer)
            self.paused_ms += self.engine.sim.now - started
            raise RemoteCommitAbort(
                f"2PC participant node {peer} was unreachable; "
                f"peer is back, retrying the batch") from exc
        # Committed everywhere: move the remote parents' ERT entries to
        # the new addresses (in-memory; see module docstring).
        ert = self.engine.ert_for(self.partition_id)
        for patches in by_node.values():
            for parent, old, new in patches:
                ert.remove(old, parent)
                ert.add(new, parent)
                self.remote_patches += 1


def start_reorg(node, reorg_config) -> None:
    """Spawn a fresh distributed reorganization of ``node``'s data
    partition (WAL-checkpointed so a crash can resume it)."""
    store = WalReorgStateStore(node.engine, node.data_partition)
    reorg = DistReorganizer(node, node.data_partition,
                            reorg_config=reorg_config, state_store=store)
    _spawn_runner(node, reorg)


def resume_reorg(node, reorg_config) -> bool:
    """Continue a crashed node's reorganization from its WAL progress
    records.  Returns True when there was anything to do (resumed or
    already complete); False means no durable checkpoint survived and
    the caller should start afresh."""
    store = WalReorgStateStore(node.engine, node.data_partition)
    if store.completed():
        node.reorg_done = True
        return True

    def factory(engine, partition_id, plan, cfg, state_store):
        return DistReorganizer(node, partition_id, plan=plan,
                               reorg_config=cfg, state_store=state_store)

    reorg = resume_reorganization(node.engine, store,
                                  reorg_config=reorg_config,
                                  factory=factory)
    if reorg is None:
        return False
    _spawn_runner(node, reorg)
    return True


def _spawn_runner(node, reorg) -> None:
    node.reorg = reorg
    node.reorg_done = False

    def runner():
        stats = yield from reorg.run()
        node.reorg_stats = stats
        node.reorg_done = True

    node.cluster.sim.spawn(runner(), name=node.proc_name("reorg"))
