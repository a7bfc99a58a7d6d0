"""Seeded chaos sweep for the distributed store (``repro chaos --dist``).

Every scenario runs a full cluster reorganization with exactly one fault
armed — a node crash at a specific 2PC protocol boundary, a timed node
kill, a link partition window, or a message-loss window — and answers
in five verdicts (:class:`~repro.verify.OracleVerdict`):

* ``fired`` — the armed fault actually happened;
* ``completed`` — every node finished reorganizing (crashed nodes after
  their restart) before the horizon;
* ``deep_verify`` — per-node deep verification is clean, the per-node
  scrubbers found nothing, and no participant branch is left with a
  durable ``TPC_PREPARE`` and no ``END`` (zero orphaned in-doubt
  patches);
* ``transparency`` — the payload-level graph signature equals the
  pre-reorganization one (across nodes);
* ``twin_identical`` — every node's final state digest is byte-identical
  to the same node in an unkilled twin run of the identical
  configuration.

Node kills, link cuts and message loss are :class:`~repro.faults.FaultPlan`
values armed by :func:`arm_fault_plan`.  The 2PC stage crashes are the
one hook-armed fault: they use the managers' ``fault_hook`` to
fail-stop the node *executing* the stage, between that exact pair of
protocol steps — coordinator and participant crashes between every
message pair of the protocol.  Each stage is hit twice (first and a
later occurrence), so both the cold path and a mid-reorg state get
exercised.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional

from ..config import DistConfig
from ..faults.plan import FaultPlan
from ..verify import Judged, OracleVerdict, graph_signature
from .cluster import DistCluster
from .twopc import COORDINATOR_STAGES, PARTICIPANT_STAGES
from .verify import cluster_deep_verify, cluster_digests

#: Default delay between a fault-hook crash and the scheduled restart.
RESTART_DELAY_MS = 120.0


@dataclass
class ChaosResult(Judged):
    """One scenario's verdicts, plus what the run cost."""

    scenario: str
    verdicts: List[OracleVerdict] = field(default_factory=list)
    crashes: int = 0
    sim_ms: float = 0.0


class _StageCrash:
    """The one hook-armed fault.  ``fault(cluster)`` installs it as every
    2PC manager's ``fault_hook``; it then fail-stops the node executing
    ``stage`` the Nth time that stage is reached anywhere in the
    cluster, and restarts it :data:`RESTART_DELAY_MS` later."""

    def __init__(self, stage: str, occurrence: int):
        self.stage = stage
        self.occurrence = occurrence

    def __call__(self, cluster: DistCluster) -> "_StageCrash":
        self.cluster, self.seen, self.fired = cluster, 0, False
        cluster.twopc_fault_hook = self.on_stage
        for node in cluster.nodes:
            node.twopc.fault_hook = self.on_stage
        return self

    def on_stage(self, stage: str, gid: str, node_id: int) -> None:
        if stage != self.stage or self.fired:
            return
        self.seen += 1
        if self.seen != self.occurrence:
            return
        self.fired = True
        self.cluster.sim.call_later(
            RESTART_DELAY_MS, lambda: self.cluster.restart_node(node_id),
            label=f"chaos/restart-n{node_id}")
        self.cluster.crash_node_in_process(node_id)  # raises ProcessKilled


def arm_fault_plan(cluster: DistCluster, plan: FaultPlan) -> None:
    """Install a :class:`~repro.faults.FaultPlan`'s distributed faults
    (``kill_node``, ``partition_link``, ``message_drop_rate``) onto a
    built cluster; the plan's single-node fields are ignored here.  Every
    chaos scenario but the 2PC stage crashes is armed this way."""
    later = cluster.sim.call_later
    if plan.kill_node is not None:
        node_id, at_ms, down_ms = plan.kill_node
        later(at_ms, lambda: cluster.crash_node(node_id),
              label=f"chaos/kill-n{node_id}")
        later(at_ms + down_ms, lambda: cluster.restart_node(node_id),
              label=f"chaos/restart-n{node_id}")
    if plan.partition_link is not None:
        a, b, cut_ms, heal_ms = plan.partition_link
        later(cut_ms, lambda: cluster.net.partition_link(a, b),
              label=f"chaos/cut-{a}-{b}")
        later(heal_ms, lambda: cluster.net.heal_link(a, b),
              label=f"chaos/heal-{a}-{b}")
    if plan.message_drop_rate > 0.0:
        at_ms, until_ms = plan.message_drop_window_ms
        later(at_ms, lambda: cluster.net.set_loss(plan.message_drop_rate),
              label="chaos/loss-on")
        if until_ms != float("inf"):
            later(until_ms, lambda: cluster.net.set_loss(0.0),
                  label="chaos/loss-off")


def default_scenarios(quick: bool = False) -> List[tuple]:
    """(name, fault) pairs: a fault is a :class:`FaultPlan`, or an
    ``arm(cluster)`` callable that installs a hook whose ``fired``
    attribute is checked after the run (the 2PC stage crashes)."""
    scenarios: List[tuple] = []
    occurrences = (1,) if quick else (1, 7)
    for occurrence in occurrences:
        for stage in COORDINATOR_STAGES + PARTICIPANT_STAGES:
            scenarios.append((f"tpc-crash/{stage}#{occurrence}",
                              _StageCrash(stage, occurrence)))
    kills = [(60.0, 1), (150.0, 2)] if quick else \
        [(60.0, 1), (150.0, 2), (250.0, 0), (350.0, 1)]
    for at_ms, node_id in kills:
        scenarios.append((f"node-kill/n{node_id}@{at_ms:g}",
                          FaultPlan.kill_node_at(node_id, at_ms,
                                                 down_ms=140.0)))
    cuts = [(0, 1, 50.0, 170.0)] if quick else \
        [(0, 1, 50.0, 170.0), (1, 2, 120.0, 260.0), (0, 2, 200.0, 330.0)]
    for a, b, at_ms, heal_ms in cuts:
        scenarios.append((f"link-cut/{a}-{b}@{at_ms:g}",
                          FaultPlan.cut_link(a, b, at_ms, heal_ms)))
    losses = [(0.3, 40.0, 400.0)] if quick else \
        [(0.3, 40.0, 400.0), (0.6, 100.0, 300.0)]
    for rate, at_ms, until_ms in losses:
        scenarios.append((f"msg-loss/{rate:g}@{at_ms:g}",
                          FaultPlan(message_drop_rate=rate,
                                    message_drop_window_ms=(at_ms,
                                                            until_ms))))
    return scenarios


def _signature(cluster: DistCluster):
    return graph_signature(*(node.engine for node in cluster.nodes))


def run_dist_chaos(config: Optional[DistConfig] = None,
                   scenarios: Optional[List[tuple]] = None,
                   quick: bool = False,
                   progress: Optional[Callable[[str, ChaosResult], None]]
                   = None) -> List[ChaosResult]:
    """Run the fault-point sweep, one result per scenario; every
    scenario compares against one unkilled twin run of the same
    configuration."""
    config = config or DistConfig()
    scenarios = scenarios if scenarios is not None \
        else default_scenarios(quick=quick)

    twin_cluster = DistCluster(config.copy()).build()
    twin_sig = _signature(twin_cluster)
    twin_cluster.reorganize_all()
    if not twin_cluster.run_until_reorgs_done():
        raise RuntimeError("twin (fault-free) run did not complete")
    twin_problems = cluster_deep_verify(twin_cluster)
    if twin_problems:
        raise RuntimeError(f"twin run is not clean: {twin_problems}")
    if _signature(twin_cluster) != twin_sig:
        raise RuntimeError("twin run broke the graph signature")
    twin = cluster_digests(twin_cluster)

    results: List[ChaosResult] = []
    for name, fault in scenarios:
        cluster = DistCluster(config.copy()).build()
        sig0 = _signature(cluster)
        cluster.reorganize_all()
        hook = (arm_fault_plan(cluster, fault)
                if isinstance(fault, FaultPlan) else fault(cluster))
        completed = cluster.run_until_reorgs_done()
        at_ms = cluster.sim.now
        transparent = _signature(cluster) == sig0
        identical = cluster_digests(cluster) == twin
        problems = cluster_deep_verify(cluster)
        result = ChaosResult(scenario=name, verdicts=[
            OracleVerdict.gate("fired", getattr(hook, "fired", True), at_ms,
                               "fault never fired"),
            OracleVerdict.gate("completed", completed, at_ms,
                               "did not quiesce"),
            OracleVerdict("deep_verify", not problems, at_ms, problems),
            OracleVerdict.gate("transparency", transparent, at_ms,
                               "graph signature changed"),
            OracleVerdict.gate("twin_identical", identical, at_ms,
                               "state differs from unkilled twin")],
            crashes=sum(n.crash_count for n in cluster.nodes),
            sim_ms=at_ms)
        results.append(result)
        if progress is not None:
            progress(name, result)
    return results
