"""Seeded chaos sweep for the distributed store (``repro chaos --dist``).

Every scenario runs a full cluster reorganization with exactly one fault
armed — a node crash at a specific 2PC protocol boundary, a timed node
kill, a link partition window, or a message-loss window — and gates the
outcome on four invariants:

* **completed** — every node finished reorganizing (crashed nodes after
  their restart) before the horizon;
* **no problems** — per-node deep verification is clean, the per-node
  scrubbers found nothing, and no participant branch is left with a
  durable ``TPC_PREPARE`` and no ``END`` (zero orphaned in-doubt
  patches);
* **signature** — the payload-level graph signature equals the
  pre-reorganization one (transparency across nodes);
* **twin** — every node's final state digest is byte-identical to the
  same node in an unkilled twin run of the identical configuration.

The 2PC stage crashes use the managers' ``fault_hook`` to fail-stop the
node *executing* the stage, between that exact pair of protocol steps —
coordinator and participant crashes between every message pair of the
protocol.  Each stage is hit twice (first and a later occurrence), so
both the cold path and a mid-reorg state get exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from ..config import DistConfig
from .cluster import DistCluster
from .twopc import COORDINATOR_STAGES, PARTICIPANT_STAGES
from .verify import (cluster_deep_verify, cluster_digests,
                     cluster_graph_signature)

#: Default delay between a fault-hook crash and the scheduled restart.
RESTART_DELAY_MS = 120.0


@dataclass
class ChaosResult:
    scenario: str
    fired: bool
    completed: bool
    signature_ok: bool
    twin_identical: bool
    problems: List[str] = field(default_factory=list)
    crashes: int = 0
    sim_ms: float = 0.0

    @property
    def ok(self) -> bool:
        return (self.fired and self.completed and not self.problems
                and self.signature_ok and self.twin_identical)

    def to_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "ok": self.ok,
            "fired": self.fired,
            "completed": self.completed,
            "signature_ok": self.signature_ok,
            "twin_identical": self.twin_identical,
            "problems": list(self.problems),
            "crashes": self.crashes,
            "sim_ms": self.sim_ms,
        }


@dataclass
class ChaosReport:
    results: List[ChaosResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    @property
    def passed(self) -> int:
        return sum(1 for r in self.results if r.ok)

    def failures(self) -> List[ChaosResult]:
        return [r for r in self.results if not r.ok]

    def to_dict(self) -> dict:
        return {
            "ok": self.ok,
            "scenarios": len(self.results),
            "passed": self.passed,
            "results": [r.to_dict() for r in self.results],
        }


class _StageCrash:
    """Fault hook: fail-stop the node executing ``stage`` the Nth time
    that stage is reached anywhere in the cluster."""

    def __init__(self, cluster: DistCluster, stage: str, occurrence: int,
                 restart_delay_ms: float = RESTART_DELAY_MS):
        self.cluster = cluster
        self.stage = stage
        self.occurrence = occurrence
        self.restart_delay_ms = restart_delay_ms
        self.seen = 0
        self.fired = False

    def __call__(self, stage: str, gid: str, node_id: int) -> None:
        if stage != self.stage or self.fired:
            return
        self.seen += 1
        if self.seen != self.occurrence:
            return
        self.fired = True
        sim = self.cluster.sim
        sim.call_later(self.restart_delay_ms,
                       lambda: self.cluster.restart_node(node_id),
                       label=f"chaos/restart-n{node_id}")
        self.cluster.crash_node_in_process(node_id)  # raises ProcessKilled


def _arm_stage_crash(stage: str, occurrence: int
                     ) -> Callable[[DistCluster], _StageCrash]:
    def arm(cluster: DistCluster) -> _StageCrash:
        hook = _StageCrash(cluster, stage, occurrence)
        cluster.twopc_fault_hook = hook
        for node in cluster.nodes:
            node.twopc.fault_hook = hook
        return hook
    return arm


def _arm_node_kill(at_ms: float, node_id: int, down_ms: float
                   ) -> Callable[[DistCluster], None]:
    def arm(cluster: DistCluster) -> None:
        cluster.sim.call_later(
            at_ms, lambda: cluster.crash_node(node_id),
            label=f"chaos/kill-n{node_id}")
        cluster.sim.call_later(
            at_ms + down_ms, lambda: cluster.restart_node(node_id),
            label=f"chaos/restart-n{node_id}")
    return arm


def _arm_link_partition(a: int, b: int, at_ms: float, heal_ms: float
                        ) -> Callable[[DistCluster], None]:
    def arm(cluster: DistCluster) -> None:
        cluster.sim.call_later(
            at_ms, lambda: cluster.net.partition_link(a, b),
            label=f"chaos/cut-{a}-{b}")
        cluster.sim.call_later(
            heal_ms, lambda: cluster.net.heal_link(a, b),
            label=f"chaos/heal-{a}-{b}")
    return arm


def _arm_message_loss(rate: float, at_ms: float, until_ms: float
                      ) -> Callable[[DistCluster], None]:
    def arm(cluster: DistCluster) -> None:
        cluster.sim.call_later(
            at_ms, lambda: cluster.net.set_loss(rate),
            label="chaos/loss-on")
        if until_ms != float("inf"):
            cluster.sim.call_later(
                until_ms, lambda: cluster.net.set_loss(0.0),
                label="chaos/loss-off")
    return arm


def arm_fault_plan(cluster: DistCluster, plan) -> None:
    """Install a :class:`repro.faults.FaultPlan`'s distributed faults
    (``kill_node``, ``partition_link``, ``message_drop_rate``) onto a
    built cluster; the plan's single-node fields are ignored here."""
    if plan.kill_node is not None:
        node_id, at_ms, down_ms = plan.kill_node
        _arm_node_kill(at_ms, node_id, down_ms)(cluster)
    if plan.partition_link is not None:
        a, b, cut_ms, heal_ms = plan.partition_link
        _arm_link_partition(a, b, cut_ms, heal_ms)(cluster)
    if plan.message_drop_rate > 0.0:
        _arm_message_loss(plan.message_drop_rate,
                          *plan.message_drop_window_ms)(cluster)


def default_scenarios(quick: bool = False) -> List[tuple]:
    """(name, arm) pairs; ``arm(cluster)`` installs the fault and may
    return a hook object whose ``fired`` attribute is checked after."""
    scenarios: List[tuple] = []
    occurrences = (1,) if quick else (1, 7)
    for occurrence in occurrences:
        for stage in COORDINATOR_STAGES + PARTICIPANT_STAGES:
            scenarios.append((f"tpc-crash/{stage}#{occurrence}",
                              _arm_stage_crash(stage, occurrence)))
    kills = [(60.0, 1), (150.0, 2)] if quick else \
        [(60.0, 1), (150.0, 2), (250.0, 0), (350.0, 1)]
    for at_ms, node_id in kills:
        scenarios.append((f"node-kill/n{node_id}@{at_ms:g}",
                          _arm_node_kill(at_ms, node_id, down_ms=140.0)))
    cuts = [(0, 1, 50.0, 170.0)] if quick else \
        [(0, 1, 50.0, 170.0), (1, 2, 120.0, 260.0), (0, 2, 200.0, 330.0)]
    for a, b, at_ms, heal_ms in cuts:
        scenarios.append((f"link-cut/{a}-{b}@{at_ms:g}",
                          _arm_link_partition(a, b, at_ms, heal_ms)))
    losses = [(0.3, 40.0, 400.0)] if quick else \
        [(0.3, 40.0, 400.0), (0.6, 100.0, 300.0)]
    for rate, at_ms, until_ms in losses:
        scenarios.append((f"msg-loss/{rate:g}@{at_ms:g}",
                          _arm_message_loss(rate, at_ms, until_ms)))
    return scenarios


def run_dist_chaos(config: Optional[DistConfig] = None,
                   scenarios: Optional[List[tuple]] = None,
                   quick: bool = False,
                   progress: Optional[Callable[[str, ChaosResult], None]]
                   = None) -> ChaosReport:
    """Run the fault-point sweep; every scenario compares against one
    unkilled twin run of the same configuration."""
    config = config or DistConfig()
    scenarios = scenarios if scenarios is not None \
        else default_scenarios(quick=quick)

    twin_cluster = DistCluster(config.copy()).build()
    twin_sig = cluster_graph_signature(twin_cluster)
    twin_cluster.reorganize_all()
    if not twin_cluster.run_until_reorgs_done():
        raise RuntimeError("twin (fault-free) run did not complete")
    twin_problems = cluster_deep_verify(twin_cluster)
    if twin_problems:
        raise RuntimeError(f"twin run is not clean: {twin_problems}")
    if cluster_graph_signature(twin_cluster) != twin_sig:
        raise RuntimeError("twin run broke the graph signature")
    twin = cluster_digests(twin_cluster)

    report = ChaosReport()
    for name, arm in scenarios:
        cluster = DistCluster(config.copy()).build()
        sig0 = cluster_graph_signature(cluster)
        cluster.reorganize_all()
        hook = arm(cluster)
        completed = cluster.run_until_reorgs_done()
        result = ChaosResult(
            scenario=name,
            fired=getattr(hook, "fired", True),
            completed=completed,
            signature_ok=cluster_graph_signature(cluster) == sig0,
            twin_identical=cluster_digests(cluster) == twin,
            problems=cluster_deep_verify(cluster),
            crashes=sum(n.crash_count for n in cluster.nodes),
            sim_ms=cluster.sim.now,
        )
        report.results.append(result)
        if progress is not None:
            progress(name, result)
    return report
