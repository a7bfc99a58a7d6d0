"""Tests for the §5.2 workload: graph generator, walks, driver, metrics."""

import random

import pytest

from repro import (
    Database,
    ExperimentConfig,
    LockTimeoutError,
    WorkloadConfig,
)
from repro.workload import (
    ROOT_PARTITION,
    WorkloadDriver,
    build_database,
    glue_slot,
    node_ref_capacity,
    random_walk_transaction,
)
from repro.workload.metrics import ExperimentMetrics, TransactionRecord


@pytest.fixture
def db_layout():
    return Database.with_workload(
        WorkloadConfig(num_partitions=3, objects_per_partition=170,
                       mpl=3, seed=51))


class TestGraphGenerator:
    def test_partition_population(self, db_layout):
        db, layout = db_layout
        for pid in (1, 2, 3):
            assert db.partition_stats(pid).live_objects == 170
        # Root partition: one stub per cluster (170/85 = 2 per partition).
        assert db.partition_stats(ROOT_PARTITION).live_objects == 6

    def test_cluster_structure(self, db_layout):
        db, layout = db_layout
        cfg = layout.config
        root = layout.cluster_roots[1][0]
        image = db.read_object(root)
        # Root has `branching` tree children plus a glue edge.
        assert len(image.children()) == cfg.branching + 1
        assert image.get_ref(glue_slot(cfg)) is not None
        assert image.ref_capacity == node_ref_capacity(cfg)

    def test_clusters_are_complete_trees_under_persistent_roots(
            self, db_layout):
        """§5.2: 85-object clusters, each a complete 4-ary tree of depth
        3 whose root is a persistent root (a stub in the root partition
        is its one external parent at load)."""
        db, layout = db_layout
        cfg = layout.config
        assert (cfg.branching, cfg.cluster_size, cfg.tree_depth) == (4, 85, 3)
        members = set()
        for pid in layout.data_partitions:
            for stub, root in zip(layout.root_stubs[pid],
                                  layout.cluster_roots[pid]):
                assert stub.partition == ROOT_PARTITION
                assert db.read_object(stub).children() == [root]
                level, sizes = [root], []
                for _ in range(cfg.tree_depth + 1):
                    sizes.append(len(level))
                    members.update(level)
                    images = [db.read_object(node) for node in level]
                    level = [image.get_ref(slot) for image in images
                             for slot in range(cfg.branching)
                             if image.get_ref(slot) is not None]
                assert sizes == [1, 4, 16, 64]
        # The clusters partition the data: no node shared, none left over.
        assert len(members) == 3 * 170

    def test_every_node_has_glue_edge(self, db_layout):
        db, layout = db_layout
        cfg = layout.config
        for oid in db.store.live_oids(1):
            assert db.store.get_ref(oid, glue_slot(cfg)) is not None

    def test_glue_edges_leave_the_cluster(self, db_layout):
        db, layout = db_layout
        cfg = layout.config
        # A glue target is never inside the same 85-object cluster; since
        # clusters are allocated contiguously this is checkable by
        # position: same partition => different cluster root subtree.
        clusters = {}
        for pid, roots in layout.cluster_roots.items():
            for index, root in enumerate(roots):
                clusters[(pid, index)] = root
        # Spot-check determinism and shape instead of full membership:
        glue_targets = [db.store.get_ref(oid, glue_slot(cfg))
                        for oid in list(db.store.live_oids(1))[:50]]
        assert all(t is not None for t in glue_targets)

    def test_glue_factor_controls_cross_partition_fraction(self):
        def cross_fraction(glue_factor):
            db, layout = Database.with_workload(WorkloadConfig(
                num_partitions=4, objects_per_partition=340, mpl=2,
                glue_factor=glue_factor, seed=5))
            cfg = layout.config
            total = cross = 0
            for pid in (1, 2, 3, 4):
                for oid in db.store.live_oids(pid):
                    target = db.store.get_ref(oid, glue_slot(cfg))
                    total += 1
                    if target.partition != pid:
                        cross += 1
            return cross / total

        low = cross_fraction(0.05)
        high = cross_fraction(0.5)
        assert 0.02 < low < 0.09
        assert 0.4 < high < 0.6

    def test_ert_matches_graph_after_load(self, db_layout):
        db, _ = db_layout
        assert db.verify_integrity().ok

    def test_checkpoint_taken_at_load(self, db_layout):
        db, _ = db_layout
        assert len(db.engine.snapshots) == 1

    def test_invalid_cluster_configuration_rejected(self):
        with pytest.raises(ValueError):
            WorkloadConfig(objects_per_partition=100)  # not a multiple of 85
        with pytest.raises(ValueError):
            WorkloadConfig(cluster_size=80)  # not a complete 4-ary tree

    def test_determinism(self):
        cfg = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                             mpl=2, seed=99)
        db1, l1 = Database.with_workload(cfg)
        db2, l2 = Database.with_workload(cfg)
        refs1 = {oid: db1.store.read_object(oid).children()
                 for oid in db1.store.all_live_oids()}
        refs2 = {oid: db2.store.read_object(oid).children()
                 for oid in db2.store.all_live_oids()}
        assert refs1 == refs2


class TestRandomWalk:
    def test_walk_commits_and_touches_ops(self, db_layout):
        db, layout = db_layout
        rng = random.Random(1)

        def go():
            outcome = yield from random_walk_transaction(
                db.engine, layout, layout.config, rng, home_partition=1)
            return outcome
        outcome = db.run(go())
        assert outcome.committed
        assert outcome.ops == layout.config.ops_per_trans

    def test_update_probability_zero_means_read_only(self, db_layout):
        db, layout = db_layout
        cfg = layout.config.copy(update_prob=0.0)
        rng = random.Random(2)
        lsn_before = db.engine.log.last_lsn

        def go():
            return (yield from random_walk_transaction(
                db.engine, layout, cfg, rng, home_partition=1))
        outcome = db.run(go())
        assert outcome.updates == 0
        # Only BEGIN/COMMIT/END control records were written.
        kinds = {r.kind for r in db.engine.log.records(lsn_before + 1)}
        assert kinds <= {1, 2, 4}

    def test_ref_rewires_move_glue_edges(self, db_layout):
        db, layout = db_layout
        cfg = layout.config.copy(update_prob=1.0, ref_update_prob=1.0)
        rng = random.Random(3)

        def go():
            total = 0
            for _ in range(10):
                outcome = yield from random_walk_transaction(
                    db.engine, layout, cfg, rng, home_partition=1)
                total += outcome.ref_updates
            return total
        total = db.run(go())
        assert total > 0
        assert db.verify_integrity().ok


class TestDriverAndMetrics:
    def test_nr_run_produces_metrics(self, db_layout):
        db, layout = db_layout
        driver = WorkloadDriver(db.engine, layout,
                                ExperimentConfig(workload=layout.config))
        metrics = driver.run(horizon_ms=3000.0)
        assert metrics.algorithm == "nr"
        assert metrics.window_ms == pytest.approx(3000.0)
        assert metrics.completed > 0
        assert metrics.throughput_tps > 0
        assert metrics.avg_response_ms > 0
        assert db.verify_integrity().ok

    def test_missing_horizon_and_reorg_rejected(self, db_layout):
        db, layout = db_layout
        driver = WorkloadDriver(db.engine, layout,
                                ExperimentConfig(workload=layout.config))
        with pytest.raises(ValueError):
            driver.run()

    def test_metrics_statistics(self):
        metrics = ExperimentMetrics(algorithm="nr", mpl=1, window_ms=1000.0)
        for i, resp in enumerate([10.0, 20.0, 30.0]):
            metrics.records.append(TransactionRecord(
                thread_id=0, started_ms=0.0, finished_ms=resp, retries=0))
        assert metrics.completed == 3
        assert metrics.throughput_tps == pytest.approx(3.0)
        assert metrics.avg_response_ms == pytest.approx(20.0)
        assert metrics.max_response_ms == pytest.approx(30.0)
        assert metrics.std_response_ms == pytest.approx(10.0)
        assert metrics.percentile_response_ms(50) == pytest.approx(20.0)
        assert metrics.top_responses(2) == [30.0, 20.0]

    def test_throughput_excludes_post_window_completions(self):
        metrics = ExperimentMetrics(algorithm="nr", mpl=1, window_ms=100.0)
        metrics.records.append(TransactionRecord(0, 0.0, 50.0, 0))
        metrics.records.append(TransactionRecord(0, 90.0, 150.0, 0))
        assert metrics.throughput_tps == pytest.approx(10.0)  # 1 in 0.1 s
        # ...but the straggler still contributes to response times.
        assert metrics.max_response_ms == pytest.approx(60.0)

    def test_reproducible_experiment(self):
        def once():
            wl = WorkloadConfig(num_partitions=2,
                                objects_per_partition=170, mpl=3, seed=77)
            db, layout = Database.with_workload(wl)
            driver = WorkloadDriver(db.engine, layout,
                                    ExperimentConfig(workload=wl))
            metrics = driver.run(horizon_ms=2000.0)
            return (metrics.completed, metrics.avg_response_ms,
                    metrics.aborts)
        assert once() == once()


# -- random_bytes: fast path must be stream-identical to the reference --------


@pytest.mark.parametrize("seed", [0, 7, 12345])
@pytest.mark.parametrize("count", [0, 1, 2, 7, 64, 257])
def test_random_bytes_matches_per_byte_reference(seed, count):
    """``random_bytes`` is an optimization of the original per-byte loop.

    It must produce the same *values* from the same Mersenne-Twister
    stream AND leave the generator at the same stream position, so every
    downstream draw in a seeded workload is unchanged — this is what
    keeps old seeds reproducing byte-identical databases.
    """
    from repro.workload.graphgen import random_bytes

    fast_rng = random.Random(seed)
    ref_rng = random.Random(seed)
    assert random_bytes(fast_rng, count) == \
        bytes(ref_rng.getrandbits(8) for _ in range(count))
    # Stream position identical: the next draws agree too.
    assert fast_rng.random() == ref_rng.random()
    assert fast_rng.getrandbits(32) == ref_rng.getrandbits(32)
