"""Cross-node reorganization and its 2PC: happy path, crash recovery,
address-reuse aliasing, FaultPlan-driven faults.

The stage-crash tests install a fault hook on every node's 2PC manager
(the same mechanism the chaos sweep uses) and fail-stop the node that is
executing a chosen protocol stage, then require the run to finish with
state byte-identical to a fault-free twin of the same configuration.
"""

import pytest

from repro.config import WorkloadConfig
from repro.database import Database
from repro.dist import DistCluster, cluster_digests
from repro.dist.chaos import RESTART_DELAY_MS, arm_fault_plan
from repro.faults import FaultPlan
from repro.storage.oid import Oid
from repro.verify import graph_signature


# Cluster setup lives in conftest.py: ``small_dist_config`` builds the
# 3-node configuration, ``run_clean_cluster`` reorganizes a cluster to
# a quiesced, deep-verified end state.


def cluster_graph_signature(cluster):
    """The transparency oracle across nodes: one signature over every
    node's engine."""
    return graph_signature(*(node.engine for node in cluster.nodes))

# -- happy path ---------------------------------------------------------------

def test_cross_node_reorg_preserves_graph_and_needs_tpc(small_dist_config):
    from repro.dist import cluster_deep_verify
    cluster = DistCluster(small_dist_config()).build()
    signature = cluster_graph_signature(cluster)
    cluster.reorganize_all()
    assert cluster.run_until_reorgs_done()
    assert cluster_deep_verify(cluster) == []
    assert cluster_graph_signature(cluster) == signature
    assert sum(n.reorg.tpc_rounds for n in cluster.nodes) > 0
    assert sum(n.reorg.remote_patches for n in cluster.nodes) > 0


def test_zero_remote_fraction_commits_without_tpc(small_dist_config,
                                                  run_clean_cluster):
    cluster = run_clean_cluster(small_dist_config(remote_ref_fraction=0.0))
    assert sum(n.reorg.tpc_rounds for n in cluster.nodes) == 0


def test_runs_are_deterministic_per_seed(small_dist_config,
                                         run_clean_cluster):
    a = run_clean_cluster(small_dist_config())
    b = run_clean_cluster(small_dist_config())
    assert cluster_digests(a) == cluster_digests(b)
    assert cluster_digests(a) != cluster_digests(
        run_clean_cluster(small_dist_config(seed=12)))


# -- crash at protocol stages -------------------------------------------------

class _CrashOnce:
    """Fail-stop the node executing ``stage`` on its first occurrence,
    scheduling its restart — the public fault-hook contract."""

    def __init__(self, cluster, stage):
        self.cluster = cluster
        self.stage = stage
        self.fired = False

    def __call__(self, stage, gid, node_id):
        if stage != self.stage or self.fired:
            return
        self.fired = True
        self.cluster.sim.call_later(
            RESTART_DELAY_MS,
            lambda: self.cluster.restart_node(node_id))
        self.cluster.crash_node_in_process(node_id)


@pytest.mark.parametrize("stage", [
    "coord-after-decision-log",   # decision durable, push never sent
    "part-after-prepare-log",     # participant in doubt, vote lost
])
def test_stage_crash_recovers_to_twin_state(small_dist_config,
                                            run_clean_cluster, stage):
    from repro.dist import cluster_deep_verify
    config = small_dist_config()
    twin = run_clean_cluster(config.copy())

    cluster = DistCluster(config.copy()).build()
    signature = cluster_graph_signature(cluster)
    cluster.reorganize_all()
    hook = _CrashOnce(cluster, stage)
    cluster.twopc_fault_hook = hook
    for node in cluster.nodes:
        node.twopc.fault_hook = hook
    assert cluster.run_until_reorgs_done()
    assert hook.fired, f"stage {stage} was never reached"
    assert cluster_deep_verify(cluster) == []
    assert cluster_graph_signature(cluster) == signature
    assert cluster_digests(cluster) == cluster_digests(twin)


def test_gids_carry_crash_epoch_across_restart(small_dist_config):
    """A restarted coordinator must not reuse pre-crash gids: the
    participant's duplicate-prepare memo would answer for the old round
    without applying the new patches."""
    config = small_dist_config()
    cluster = DistCluster(config).build()
    cluster.reorganize_all()
    hook = _CrashOnce(cluster, "coord-after-decision-log")
    cluster.twopc_fault_hook = hook
    for node in cluster.nodes:
        node.twopc.fault_hook = hook
    assert cluster.run_until_reorgs_done()
    assert hook.fired
    gids = {gid for node in cluster.nodes for gid in node.twopc.resolved}
    epochs = {gid.split("/")[1] for gid in gids}
    assert "e0" in epochs and "e1" in epochs
    assert len(gids) == len(set(gids))


# -- FaultPlan-driven distributed faults --------------------------------------

def test_fault_plan_kill_node_restarts_and_matches_twin(small_dist_config,
                                                        run_clean_cluster):
    from repro.dist import cluster_deep_verify
    config = small_dist_config()
    twin = run_clean_cluster(config.copy())
    plan = FaultPlan.kill_node_at(1, ms=60.0, down_ms=140.0)
    assert plan.wants_dist
    cluster = DistCluster(config.copy()).build()
    cluster.reorganize_all()
    arm_fault_plan(cluster, plan)
    assert cluster.run_until_reorgs_done()
    assert cluster.nodes[1].crash_count == 1
    assert cluster_deep_verify(cluster) == []
    assert cluster_digests(cluster) == cluster_digests(twin)


def test_fault_plan_link_cut_heals_and_completes(small_dist_config):
    from repro.dist import cluster_deep_verify
    config = small_dist_config()
    plan = FaultPlan.cut_link(0, 1, ms=30.0, heal_ms=150.0)
    cluster = DistCluster(config).build()
    cluster.reorganize_all()
    arm_fault_plan(cluster, plan)
    assert cluster.run_until_reorgs_done()
    assert cluster_deep_verify(cluster) == []
    assert cluster.net.stats.dropped_partition > 0


def test_fault_plan_validates_dist_fields():
    with pytest.raises(ValueError):
        FaultPlan(kill_node=(0, -1.0, 100.0))
    with pytest.raises(ValueError):
        FaultPlan(partition_link=(1, 1, 0.0, 10.0))
    with pytest.raises(ValueError):
        FaultPlan(partition_link=(0, 1, 50.0, 50.0))
    with pytest.raises(ValueError):
        FaultPlan(message_drop_rate=1.5)
    assert not FaultPlan().wants_dist


# -- address-reuse aliasing (regression) --------------------------------------

def test_translate_never_retranslates_a_migration_target():
    """Slot reuse can make one address both a source (key) and a later
    migration's target (value).  ``_translate`` must treat a known
    target as final — re-translating it corrupts the parent sets."""
    workload = WorkloadConfig(num_partitions=1, objects_per_partition=85,
                              mpl=1, seed=1)
    db, _ = Database.with_workload(workload)
    reorg = db.reorganizer(1, "ira")
    reused = Oid(1, 3, 0)       # freed by migration A, reused as B's target
    elsewhere = Oid(1, 9, 9)
    reorg._mapping[reused] = elsewhere
    reorg._new_targets.add(reused)
    assert reorg._translate(reused, {}) == reused
    # A genuine source address still translates, through both layers.
    src = Oid(1, 4, 0)
    reorg._mapping[src] = reused
    assert reorg._translate(src, {}) == reused
    staged = Oid(1, 5, 0)
    assert reorg._translate(staged, {staged: elsewhere}) == elsewhere
