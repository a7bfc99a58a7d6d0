"""Crash recovery of the MVCC tier.

Two crash families, both driven by ``FaultPlan`` triggers:

* **mid-tail-append** — the crash lands inside the stream of
  ``TAIL_DELTA`` commits.  A tail delta's single record *is* its commit
  point and the tier force-flushes it before publishing, so the
  recovered tier must equal exactly the pre-crash *published* state:
  nothing a reader ever saw is lost, nothing unpublished survives.
* **mid-merge** — the crash lands inside the merge reorganizer's copy
  stream or around its ``MERGE_INSTALL`` record.  The install is
  honored only if its owning system transaction committed; either way
  the logical state is byte-identical to a fault-free twin, because
  the epoch flip is invisible at the logical layer by design.

Every recovery is checked for silent corruption (tier verify, full
integrity sweep, injector accounting) and for idempotence — crashing
the freshly recovered engine and recovering again changes nothing.
"""

import random

import pytest

from repro.config import MvccConfig, WorkloadConfig
from repro.core import CompactionPlan
from repro.database import Database
from repro.faults import FaultInjector, FaultPlan
from repro.mvcc import MergeReorganizer, MvccTier, mvcc_random_walk


def _build(seed=13):
    workload = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                              mpl=4, seed=seed)
    db, layout = Database.with_workload(workload)
    tier = MvccTier.attach(db.engine, MvccConfig())
    return db, layout, tier


def _run_walks(db, layout, n=8, seed=5):
    """A deterministic scripted workload: n committed snapshot walks."""
    rng = random.Random(seed)
    for index in range(n):
        home = 1 + index % layout.config.num_partitions
        db.run(mvcc_random_walk(db.engine, layout, layout.config,
                                random.Random(rng.getrandbits(48)), home),
               name=f"walk-{index}")


def _spawn_walks(db, layout, n=8, seed=5):
    """The same walks as concurrent processes (for mid-run crashes),
    retried on first-committer-wins conflicts like any real submitter."""
    from repro.errors import WriteConflictError
    from repro.sim import Delay

    rng = random.Random(seed)

    def submit(txn_seed, home, backoff):
        while True:
            try:
                yield from mvcc_random_walk(
                    db.engine, layout, layout.config,
                    random.Random(txn_seed), home)
                return
            except WriteConflictError:
                yield Delay(backoff.uniform(1.0, 10.0))

    for index in range(n):
        home = 1 + index % layout.config.num_partitions
        db.sim.spawn(
            submit(rng.getrandbits(48), home,
                   random.Random(f"{seed}/backoff-{index}")),
            name=f"walk-{index}")


def _recover(crash_image):
    recovered = Database.recover(crash_image)
    tier = MvccTier.recover(recovered.engine, MvccConfig())
    return recovered, tier


def _assert_clean(db, tier, injector):
    assert tier.verify() == []
    assert db.verify_integrity().ok
    # Replay grows chains; recovery's closing GC pass walks only those
    # replay marked as grown, and with no snapshot active leaves one
    # entry on every chain.
    assert not tier._grown
    assert all(len(chain) == 1 for chain in tier._chains.values())
    # Zero-silent-corruption accounting: the plan injected a crash and
    # nothing else; no page was torn, no bit flipped, no checksum lied.
    assert injector.stats.crashes_fired == 1
    assert injector.stats.corruptions_injected == 0


def _twin_signature(seed=13, merge=True):
    """Final signature of a fault-free run of the same script."""
    db, layout, tier = _build(seed)
    _run_walks(db, layout)
    if merge:
        reorg = MergeReorganizer(db.engine, 1, plan=CompactionPlan())
        db.run(reorg.run(), name="merge")
        db.run(tier.sweep_frees(), name="sweep")
        assert tier.verify() == []
    return tier.signature()


# -- mid-tail-append ----------------------------------------------------------

@pytest.mark.parametrize("lsn_offset", [4, 11, 19])
def test_mid_tail_append_crash_keeps_exactly_the_published_state(lsn_offset):
    # A snapshot commit is a single TAIL_DELTA record, so 24 walks give
    # the trigger a ~24-record stream to land in.
    db, layout, tier = _build()
    plan = FaultPlan(crash_at_lsn=db.engine.log.last_lsn + lsn_offset)
    injector = FaultInjector(plan, db.engine).attach()
    _spawn_walks(db, layout, n=24)
    db.sim.run()
    assert injector.crashed, "the crash trigger never fired"

    published = tier.signature()
    published_ts = tier.last_commit_ts
    recovered, rtier = _recover(injector.crash_image)
    _assert_clean(recovered, rtier, injector)
    assert rtier.signature() == published
    assert rtier.last_commit_ts == published_ts


def test_mid_tail_append_recovery_is_idempotent():
    db, layout, tier = _build()
    plan = FaultPlan(crash_at_lsn=db.engine.log.last_lsn + 11)
    injector = FaultInjector(plan, db.engine).attach()
    _spawn_walks(db, layout, n=24)
    db.sim.run()
    assert injector.crashed

    recovered, rtier = _recover(injector.crash_image)
    once = rtier.signature()
    # Crash the freshly recovered engine before it does any new work:
    # the second recovery must land on the same state.
    again, atier = _recover(recovered.engine.crash())
    assert atier.signature() == once
    assert atier.last_commit_ts == rtier.last_commit_ts
    assert atier.verify() == []
    assert again.verify_integrity().ok


def test_recovered_engine_serves_walks_and_merges():
    """Recovery is a working database, not a read-only autopsy: the
    recovered tier runs new snapshot walks and a full merge cycle."""
    db, layout, tier = _build()
    plan = FaultPlan(crash_at_lsn=db.engine.log.last_lsn + 11)
    injector = FaultInjector(plan, db.engine).attach()
    _spawn_walks(db, layout, n=24)
    db.sim.run()
    assert injector.crashed

    recovered, rtier = _recover(injector.crash_image)
    before = rtier.stats.commits
    rng = random.Random(99)
    for index in range(4):
        recovered.run(
            mvcc_random_walk(recovered.engine, layout, layout.config,
                             random.Random(rng.getrandbits(48)),
                             1 + index % 2),
            name=f"post-walk-{index}")
    assert rtier.stats.commits == before + 4
    reorg = MergeReorganizer(recovered.engine, 1, plan=CompactionPlan())
    stats = recovered.run(reorg.run(), name="merge")
    assert stats.objects_migrated > 0
    recovered.run(rtier.sweep_frees(), name="sweep")
    assert rtier.verify() == []
    assert recovered.verify_integrity().ok


# -- mid-merge ----------------------------------------------------------------

@pytest.mark.parametrize("lsn_offset", [5, 60, 150])
def test_mid_merge_crash_recovers_to_fault_free_twin(lsn_offset):
    twin = _twin_signature()

    db, layout, tier = _build()
    _run_walks(db, layout)
    committed = tier.signature()
    plan = FaultPlan(crash_at_lsn=db.engine.log.last_lsn + lsn_offset)
    injector = FaultInjector(plan, db.engine).attach()
    reorg = MergeReorganizer(db.engine, 1, plan=CompactionPlan())
    db.sim.spawn(reorg.run(), name="merge")
    db.sim.run()
    assert injector.crashed, "the merge finished before the trigger"

    recovered, rtier = _recover(injector.crash_image)
    _assert_clean(recovered, rtier, injector)
    # The merge — whether it died before or after its install became
    # durable — is invisible in the logical state.
    assert rtier.signature() == committed == twin

    # Resume: a fresh merge on the recovered engine completes the
    # relocation; the logical state still never moves.
    resume = MergeReorganizer(recovered.engine, 1, plan=CompactionPlan())
    stats = recovered.run(resume.run(), name="resume-merge")
    assert stats.objects_migrated > 0
    recovered.run(rtier.sweep_frees(), name="sweep")
    assert rtier.signature() == twin
    assert rtier.verify() == []
    assert recovered.verify_integrity().ok


def test_crash_after_install_commit_keeps_the_flip():
    """Crash *after* the merge commits: recovery must honor the install
    (the lineage names the relocated bases) and complete the pending
    frees on the next sweep."""
    db, layout, tier = _build()
    _run_walks(db, layout)
    committed = tier.signature()
    reorg = MergeReorganizer(db.engine, 1, plan=CompactionPlan())
    db.run(reorg.run(), name="merge")
    moved = [loid for loid in tier.logical_ids
             if tier.resolve_physical(loid) != loid]
    assert moved, "merge relocated nothing"

    recovered, rtier = _recover(db.engine.crash())
    assert rtier.signature() == committed
    assert rtier.verify() == []
    assert recovered.verify_integrity().ok
    # The flip survived: lineage agrees with the pre-crash tier.
    for loid in moved:
        assert rtier.resolve_physical(loid) == tier.resolve_physical(loid)
    # The merge swept its superseded bases before the crash, and those
    # deletes were transactional: nothing is left pending, and no old
    # address survived recovery.
    assert rtier.pending_free_count == 0
    for loid in moved:
        assert not recovered.engine.store.exists(loid)
    assert recovered.run(rtier.sweep_frees(), name="sweep") == 0
    assert rtier.signature() == committed
    assert rtier.verify() == []
    assert recovered.verify_integrity().ok
