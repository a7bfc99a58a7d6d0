"""The simulated multi-node cluster: sharding, directory, lifecycle.

Partitions are sharded across N nodes over one shared DES kernel; node
``i`` owns data partition ``10*i + 1`` (the one its reorganizer works
on) and hub partition ``10*i + 2``.  The directory is the trivial
``partition // 10`` map — partition placement is static; what moves are
objects *within* their partition.

Cross-node references follow one topology rule (documented in DIST.md):
they originate only in hub partitions — which are never reorganized —
and point into other nodes' data partitions.  So a migrating object's
remote parents are never themselves mid-migration, and a migrated
object never has remote children whose owner-side ERT entries the
migration would strand.  The scheduling constraint, not the protocol,
carries that guarantee.

Every data-partition object sits on a circular intra-partition chain,
so each migration patches at least one *local* parent — the invariant
:func:`repro.core.checkpointing.committed_migrations_from_log` (and
with it crash-resume and remote-ERT reconciliation) relies on.

Node crashes come in two shapes:

* :meth:`crash_node` — from outside the node (a chaos timer): captures
  the crash image, detaches the node from the fabric, and kills its
  processes synchronously.
* :meth:`crash_node_in_process` — from *inside* one of the node's own
  processes (a 2PC fault hook): the currently-running generator cannot
  be ``throw()``-n into, so the image is captured, the sibling kill is
  scheduled via ``call_soon``, and :class:`~repro.sim.ProcessKilled` is
  raised in-line to take down the calling process itself.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Dict, List, Optional, Tuple

from ..config import DistConfig, ReorgConfig, SystemConfig
from ..engine import StorageEngine
from ..sim import ProcessKilled, Simulator
from ..storage.objects import ObjectImage
from ..storage.oid import Oid
from ..workload.graphgen import random_bytes
from .net import Interconnect
from .node import DistNode, data_partition, hub_partition
from .reorg import resume_reorg, start_reorg
from .verify import reconcile_remote_ert


class DistCluster:
    """N engines, one interconnect, one simulated clock."""

    def __init__(self, config: Optional[DistConfig] = None,
                 system: Optional[SystemConfig] = None,
                 sim: Optional[Simulator] = None):
        self.config = config or DistConfig()
        self.sim = sim or Simulator()
        self._system = system or SystemConfig()
        self.net = Interconnect(self.sim, seed=self.config.seed,
                                delay_min_ms=self.config.link_delay_min_ms,
                                delay_max_ms=self.config.link_delay_max_ms)
        self.nodes: List[DistNode] = []
        self._reorg_config: Optional[ReorgConfig] = None
        #: Chaos hook installed on every node's 2PC manager (re-armed
        #: after restarts): ``hook(stage, gid, node_id)``.
        self.twopc_fault_hook = None

    # -- directory ---------------------------------------------------------------

    def owner(self, partition_id: int) -> int:
        return partition_id // 10

    def node_for(self, partition_id: int) -> DistNode:
        return self.nodes[self.owner(partition_id)]

    def exists(self, oid: Oid) -> bool:
        """Directory-backed existence check — the omniscient oracle the
        per-node integrity verifier uses for cross-node references."""
        return self.node_for(oid.partition).engine.store.exists(oid)

    def remote_ert_expected(self, node_id: int, partition_id: int
                            ) -> List[Tuple[Oid, Oid]]:
        """Every (child, parent) pair where the child lives in
        ``partition_id`` and the parent lives on another node — what the
        owner's ERT should contain beyond what its local scan can see."""
        pairs: List[Tuple[Oid, Oid]] = []
        for node in self.nodes:
            if node.node_id == node_id or node.down:
                continue
            store = node.engine.store
            for parent in store.all_live_oids():
                for child in store.children_of(parent):
                    if child.partition == partition_id:
                        pairs.append((child, parent))
        return pairs

    # -- build -------------------------------------------------------------------

    def build(self) -> "DistCluster":
        """Create the engines, bulk-load the sharded graph, checkpoint
        each node, and start the distributed runtime."""
        cfg = self.config
        rng = random.Random(f"dist/{cfg.seed}")
        for i in range(cfg.node_count):
            engine = StorageEngine(replace(self._system), sim=self.sim)
            engine.create_partition(data_partition(i))
            engine.create_partition(hub_partition(i))
            self.nodes.append(DistNode(self, i, engine))

        per_node: Dict[int, List[Oid]] = {}
        for node in self.nodes:
            store = node.engine.store
            oids = []
            for _ in range(cfg.objects_per_partition):
                image = ObjectImage.new(
                    2, payload=random_bytes(rng, cfg.payload_bytes))
                oids.append(store.allocate_object(node.data_partition,
                                                  image))
            # Circular chain: every object has exactly one local parent.
            for j, oid in enumerate(oids):
                store.set_ref(oid, 0, oids[(j + 1) % len(oids)])
            per_node[node.node_id] = oids

        for node in self.nodes:
            oids = per_node[node.node_id]
            count = len(oids)
            remote_k = int(round(cfg.remote_ref_fraction * count))
            if cfg.node_count > 1 and remote_k:
                step = max(1, count // remote_k)
                targets = oids[::step][:remote_k]
                hub_owner = self.nodes[(node.node_id + 1) % cfg.node_count]
                self._add_hub_parents(hub_owner, node, targets, rng)
            local_k = int(round(cfg.local_hub_fraction * count))
            if local_k:
                self._add_hub_parents(node, node, oids[-local_k:], rng)

        for node in self.nodes:
            node.engine.unlogged_base = True
            node.engine.take_checkpoint()
            node.start()
            if self.twopc_fault_hook is not None:
                node.twopc.fault_hook = self.twopc_fault_hook
        return self

    def _add_hub_parents(self, hub_node: DistNode, child_node: DistNode,
                         targets: List[Oid], rng: random.Random) -> None:
        cfg = self.config
        store = hub_node.engine.store
        ert = child_node.engine.ert_for(child_node.data_partition)
        for start in range(0, len(targets), cfg.hub_fanout):
            group = targets[start:start + cfg.hub_fanout]
            image = ObjectImage.new(
                cfg.hub_fanout,
                payload=random_bytes(rng, cfg.payload_bytes))
            hub_oid = store.allocate_object(hub_node.hub_partition, image)
            for slot, child in enumerate(group):
                store.set_ref(hub_oid, slot, child)
                ert.add(child, hub_oid)

    # -- reorganization ----------------------------------------------------------

    def default_reorg_config(self) -> ReorgConfig:
        # checkpoint_every == batch size: a durable progress record per
        # batch, which is what makes crash-resume byte-exact.
        return ReorgConfig(
            migration_batch_size=self.config.migration_batch_size,
            checkpoint_every=self.config.migration_batch_size)

    def reorganize_all(self) -> None:
        self._reorg_config = self.default_reorg_config()
        for node in self.nodes:
            start_reorg(node, self._reorg_config.copy())

    @property
    def reorgs_done(self) -> bool:
        return all(node.reorg_done for node in self.nodes if not node.down)

    @property
    def all_reorgs_done(self) -> bool:
        return all(node.reorg_done for node in self.nodes)

    def _quiesced(self) -> bool:
        """Reorgs finished, every node up (scheduled restarts included),
        and no participant branch still awaiting a 2PC decision — a lost
        decision push resolves through the pull path, which needs sim
        time beyond the last migration."""
        return (self.all_reorgs_done
                and not any(n.down for n in self.nodes)
                and not any(n.twopc.prepared or n.twopc.settling
                            for n in self.nodes))

    def run_until_reorgs_done(self) -> bool:
        """Advance the shared clock until the cluster quiesces or the
        config's horizon passes.  Heartbeats never drain the queue, so
        this steps in bounded increments rather than running to empty."""
        horizon = self.config.horizon_ms
        while self.sim.now < horizon:
            if self._quiesced():
                return True
            self.sim.run(until=min(self.sim.now + 200.0, horizon))
        return self._quiesced()

    def run(self, for_ms: float) -> None:
        self.sim.run(until=self.sim.now + for_ms)

    # -- crash / restart ---------------------------------------------------------

    def _begin_crash(self, node: DistNode) -> None:
        node.crash_image = node.engine.crash_image()
        node.down = True
        node.crash_count += 1
        node.rpc.close()
        self.net.set_down(node.node_id, True)

    def crash_node(self, node_id: int) -> None:
        """Fail-stop a node from outside it (chaos timer context)."""
        node = self.nodes[node_id]
        if node.down:
            return
        self._begin_crash(node)
        self.sim.kill_matching(f"n{node_id}/")

    def crash_node_in_process(self, node_id: int) -> None:
        """Fail-stop a node from within one of its own processes; raises
        :class:`ProcessKilled` to take the caller down with it."""
        node = self.nodes[node_id]
        if node.down:
            raise ProcessKilled(f"node {node_id} is already down")
        self._begin_crash(node)
        self.sim.call_soon(
            lambda: self.sim.kill_matching(f"n{node_id}/"),
            label=f"crash-n{node_id}")
        raise ProcessKilled(f"node {node_id} crashed")

    def restart_node(self, node_id: int) -> None:
        """Recover a crashed node from its crash image: ARIES restart,
        in-doubt adoption, remote-ERT reconciliation, reorg resume."""
        node = self.nodes[node_id]
        if not node.down or node.crash_image is None:
            raise RuntimeError(f"node {node_id} is not down")
        engine = StorageEngine.recover(node.crash_image, sim=self.sim)
        node.engine = engine
        node.down = False
        self.net.set_down(node_id, False)
        node.start()
        if self.twopc_fault_hook is not None:
            node.twopc.fault_hook = self.twopc_fault_hook
        node.twopc.recover_in_doubt()
        reconcile_remote_ert(engine, node.data_partition)
        if self._reorg_config is not None and not node.reorg_done:
            if not resume_reorg(node, self._reorg_config.copy()):
                # Crashed before the post-discovery checkpoint became
                # durable: nothing committed, start the identical
                # deterministic run afresh.
                start_reorg(node, self._reorg_config.copy())
