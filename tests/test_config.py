"""Tests for the configuration dataclasses."""

import pytest

from repro import ExperimentConfig, ReorgConfig, SystemConfig, WorkloadConfig
from repro.config import RetryPolicy, ServeConfig


class TestWorkloadConfig:
    def test_defaults_are_table1(self):
        cfg = WorkloadConfig()
        assert (cfg.num_partitions, cfg.objects_per_partition, cfg.mpl,
                cfg.ops_per_trans, cfg.update_prob, cfg.glue_factor) == \
            (10, 4080, 30, 8, 0.5, 0.05)

    def test_cluster_arithmetic(self):
        cfg = WorkloadConfig()
        assert cfg.clusters_per_partition == 48
        assert cfg.tree_depth == 3
        assert sum(cfg.branching ** d for d in range(4)) == 85

    def test_objects_must_be_cluster_multiple(self):
        with pytest.raises(ValueError, match="multiple"):
            WorkloadConfig(objects_per_partition=100)

    def test_cluster_size_must_be_complete_tree(self):
        with pytest.raises(ValueError, match="complete"):
            WorkloadConfig(cluster_size=84, objects_per_partition=84)

    def test_other_branching_factors_work(self):
        cfg = WorkloadConfig(branching=2, cluster_size=31,
                             objects_per_partition=62)
        assert cfg.tree_depth == 4

    def test_copy_overrides(self):
        base = WorkloadConfig()
        variant = base.copy(mpl=60)
        assert variant.mpl == 60
        assert base.mpl == 30
        assert variant.objects_per_partition == base.objects_per_partition


class TestSystemConfig:
    def test_paper_constants(self):
        cfg = SystemConfig()
        assert cfg.lock_timeout_ms == 1000.0  # §5: one second
        assert cfg.cpu_count == 1             # uniprocessor
        assert cfg.strict_transactions        # §2 default
        assert not cfg.disk_resident          # §5.3: memory-resident

    def test_copy_overrides(self):
        relaxed = SystemConfig().copy(strict_transactions=False)
        assert not relaxed.strict_transactions
        assert relaxed.lock_timeout_ms == 1000.0


class TestReorgAndExperiment:
    def test_reorg_defaults(self):
        cfg = ReorgConfig()
        assert cfg.migration_batch_size == 1   # paper's basic IRA
        assert not cfg.collect_garbage
        assert cfg.checkpoint_every == 0

    def test_experiment_composition(self):
        exp = ExperimentConfig()
        assert exp.workload.mpl == 30
        assert exp.horizon_ms is None


class _CountingRng:
    """Counts the draws a policy makes (callers share their RNG with
    other draws and rely on the exact consumption pattern)."""

    def __init__(self):
        self.calls = []

    def random(self):
        self.calls.append("random")
        return 0.5

    def uniform(self, low, high):
        self.calls.append("uniform")
        return (low + high) / 2.0


class TestRetryPolicy:
    def test_exponential_draws_once_per_retry(self):
        policy = RetryPolicy.exponential(8.0, max_ms=1000.0, jitter=0.5)
        rng = _CountingRng()
        delays = [policy.delay_ms(attempt, rng) for attempt in range(9)]
        assert rng.calls == ["random"] * 9
        # min(8 * 2**n, 1000) scaled by 1 - 0.5 * 0.5.
        assert delays[:3] == [6.0, 12.0, 24.0]
        assert delays[-1] == 750.0

    def test_exponential_without_an_rng_is_the_unjittered_delay(self):
        policy = RetryPolicy.exponential(5.0, jitter=0.5)
        assert [policy.delay_ms(n) for n in range(3)] == [5.0, 10.0, 20.0]

    def test_zero_base_retries_immediately_and_draws_nothing(self):
        rng = _CountingRng()
        policy = RetryPolicy.exponential(0.0, jitter=0.5)
        assert policy.delay_ms(3, rng) == 0.0
        assert rng.calls == []

    def test_uniform_draws_one_uniform(self):
        rng = _CountingRng()
        policy = RetryPolicy.uniform(1.0, 50.0)
        assert policy.delay_ms(0, rng) == 25.5
        assert policy.delay_ms(7, rng) == 25.5      # attempt plays no part
        assert rng.calls == ["uniform", "uniform"]
        assert policy.delay_ms(0) == 25.5           # no rng: the midpoint

    def test_exhausted_at_and_around_the_budget(self):
        policy = RetryPolicy.uniform(max_retries=8)
        assert [policy.exhausted(n) for n in (0, 7, 8, 9)] == \
            [False, False, True, True]
        assert RetryPolicy.exponential(1.0, max_retries=0).exhausted(0)

    def test_no_budget_retries_forever(self):
        policy = RetryPolicy.exponential(1.0, max_retries=None)
        assert not policy.exhausted(10 ** 9)

    def test_a_labelled_rng_repeats(self):
        label = "backoff/0/1"
        assert RetryPolicy.rng(label).random() == \
            RetryPolicy.rng(label).random()

    def test_policies_compare_by_value_and_so_do_their_configs(self):
        # Database.with_workload keys its load image on SystemConfig
        # equality; a policy field must not make equal configs differ.
        assert RetryPolicy.exponential(5.0, max_retries=4) == \
            RetryPolicy.exponential(5.0, max_retries=4)
        assert SystemConfig() == SystemConfig()
        assert SystemConfig() != SystemConfig(
            io_retry=RetryPolicy.exponential(5.0, max_retries=5))
        assert SystemConfig().io_retry.copy(max_retries=1).max_retries == 1

    def test_the_three_policy_fields_default_to_the_historical_values(self):
        assert SystemConfig().io_retry == \
            RetryPolicy.exponential(5.0, max_retries=4)
        assert ReorgConfig().deadlock_retry == RetryPolicy.exponential(
            8.0, max_ms=1000.0, jitter=0.5, max_retries=50)
        assert ServeConfig().abort_retry == RetryPolicy.uniform(max_retries=8)
