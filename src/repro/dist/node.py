"""One simulated node: a storage engine plus its distributed runtime.

A node wraps a full :class:`~repro.engine.StorageEngine` (own CPU, data
disk, log disk and WAL) with the cross-node stack: RPC endpoint, 2PC
manager, failure detector, background scrubber and — on nodes that own a
data partition — the distributed reorganizer.

Every process a node spawns is named ``n{id}/<suffix>``, which is what
makes a node crash precise: ``kill_matching("n{id}/")`` reaps exactly
this node's processes (reorganizer, scrubber, detector, RPC servers,
decision waiters) while the rest of the cluster keeps running.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional

from ..storage.oid import Oid
from ..storage.scrub import Scrubber
from .detector import FailureDetector
from .rpc import RPC_RETRY, RpcEndpoint
from .twopc import TwoPhaseManager

OBJ_READ = "obj.read"
_SINGLE_TRY = RPC_RETRY.copy(max_retries=0)

#: node id -> (data partition, hub partition); see DistConfig.
def data_partition(node_id: int) -> int:
    return 10 * node_id + 1


def hub_partition(node_id: int) -> int:
    return 10 * node_id + 2


class DistNode:
    """A cluster member; created and driven by :class:`DistCluster`."""

    def __init__(self, cluster, node_id: int, engine):
        self.cluster = cluster
        self.node_id = node_id
        self.engine = engine
        self.data_partition = data_partition(node_id)
        self.hub_partition = hub_partition(node_id)
        self.down = False
        self.crash_count = 0
        self.crash_image = None
        self.rpc: Optional[RpcEndpoint] = None
        self.twopc: Optional[TwoPhaseManager] = None
        self.detector: Optional[FailureDetector] = None
        self.scrubber: Optional[Scrubber] = None
        self.reorg = None
        self.reorg_stats = None
        self.reorg_done = False
        self._rpc_rng = RPC_RETRY.rng(
            f"rpc/{cluster.config.seed}/n{node_id}")

    def proc_name(self, suffix: str) -> str:
        return f"n{self.node_id}/{suffix}"

    # -- lifecycle --------------------------------------------------------------

    def start(self) -> None:
        """Wire the distributed runtime onto the current engine (called
        at cluster boot and again after every restart)."""
        cfg = self.cluster.config
        self.rpc = RpcEndpoint(self.cluster.net, self.node_id,
                               self.cluster.sim)
        self.twopc = TwoPhaseManager(
            self, decision_timeout_ms=cfg.decision_timeout_ms)
        self.detector = FailureDetector(
            self.rpc, self.node_id, range(cfg.node_count),
            self.cluster.sim, heartbeat_ms=cfg.heartbeat_ms,
            suspect_after_ms=cfg.suspect_after_ms)
        self.detector.start()
        self.rpc.serve(OBJ_READ, self._handle_obj_read)
        # Omniscient verification hooks: the integrity oracle may consult
        # the directory directly — it checks state, it is not a runtime
        # communication path (those go through RPC above).
        self.engine.remote_resolver = self.cluster.exists
        self.engine.remote_ert_expected = self._remote_ert_expected
        if cfg.scrub_interval_ms > 0:
            self.scrubber = Scrubber(
                self.engine, interval_ms=cfg.scrub_interval_ms,
                pages_per_sweep=cfg.scrub_pages_per_sweep)
            self.cluster.sim.spawn(self.scrubber.run(),
                                   name=self.proc_name("scrubber"))

    def _remote_ert_expected(self, pid: int):
        return self.cluster.remote_ert_expected(self.node_id, pid)

    # -- RPC client -------------------------------------------------------------

    def call(self, dst: int, method: str, payload: dict,
             attempts: Optional[int] = None) -> Generator[Any, Any, dict]:
        """Call a peer under the cluster's deadline and retry policy.

        ``attempts=1`` makes a single try (best-effort pushes whose loss
        something else already guarantees against).
        """
        policy = _SINGLE_TRY if attempts == 1 else RPC_RETRY
        reply = yield from self.rpc.call(
            dst, method, payload,
            deadline_ms=self.cluster.config.rpc_deadline_ms,
            policy=policy, rng=self._rpc_rng)
        return reply

    def read_remote(self, oid: Oid) -> Generator[Any, Any, dict]:
        """Read an object on its owner node; raises
        :class:`~repro.errors.NodeUnreachableError` when the owner is
        gone — the typed fail-fast the serving layer retries or sheds."""
        owner = self.cluster.owner(oid.partition)
        reply = yield from self.call(owner, OBJ_READ, {"oid": oid.pack()})
        return reply

    def _handle_obj_read(self, payload: dict) -> dict:
        oid = Oid.unpack(payload["oid"])
        if not self.engine.store.exists(oid):
            # Transient during a migration window or a genuinely bad ref;
            # the caller distinguishes by retrying.
            return {"ok": False}
        image = self.engine.store.read_object(oid)
        return {"ok": True, "payload": bytes(image.payload),
                "children": [c.pack() for c in image.children()]}

    def __repr__(self) -> str:
        state = "down" if self.down else "up"
        return (f"<DistNode {self.node_id} {state} "
                f"crashes={self.crash_count}>")
