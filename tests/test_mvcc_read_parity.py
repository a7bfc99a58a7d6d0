"""The snapshot tier's read and GC paths against the code they replaced.

Three oracles, kept here and nowhere in ``src/``:

* ``copying_read`` / ``copying_walk`` — the previous ``MvccTier.read``
  (an image copy per tail read, the page-fix generator even when
  memory-resident, a CPU charge through ``cpu.use``) and the previous
  ``mvcc_random_walk``, which read each
  step with ``SnapshotTransaction.read`` and took ``image.children()``.
  A twin run of the same seeded walks and merge through them must see,
  step for step, the children ``read_refs`` returns, with the same
  ``_reads`` entry and tail/base counters, and end in the same
  histories, counters and clock.
* ``bisect_version_for`` — the key-bisect lookup, against the
  newest-first one over hypothesis-generated chains.
* ``full_gc_pass`` — a pass without the unchanged-watermark skip.  Before
  every real ``gc_pass`` a shadow copy of the chains runs it; afterwards
  the chains, ``_grown`` (in order), ``versions_pruned`` and the pruned
  versions the subscribers were shown must be equal, under a pinned
  snapshot and after it is released.
"""

import copy
import random
from bisect import bisect_right
from types import MethodType, SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import MvccConfig, SystemConfig, WorkloadConfig
from repro.core import CompactionPlan
from repro.database import Database
from repro.engine import StorageEngine
from repro.errors import WriteConflictError
from repro.explore import SnapshotHistory
from repro.mvcc import (MergeReorganizer, MvccTier, SnapshotTransaction,
                        begin_snapshot_txn, mvcc_random_walk)
from repro.mvcc.versions import VersionEntry
from repro.sim import Delay
from repro.storage.oid import Oid
from repro.workload.graphgen import glue_slot, random_bytes
from repro.workload.transactions import WalkOutcome


# -- the oracles ------------------------------------------------------------------

def bisect_version_for(tier, loid, ts):
    chain = tier._chains.get(loid)
    if chain is None:
        raise KeyError(f"{loid} is not under version control")
    index = bisect_right(chain, ts, key=lambda entry: entry.ts) - 1
    if index < 0:
        raise KeyError(f"{loid} has no version at or below ts {ts}")
    return chain[index]


def copying_read(tier, loid, ts):
    entry = tier.version_for(loid, ts)
    if entry.is_base:
        yield from tier.engine.fix_page(entry.physical)
        entry = tier.version_for(loid, ts)
    if entry.is_base:
        tier.stats.base_reads += 1
        image = tier.engine.store.read_object(entry.physical)
    else:
        tier.stats.tail_reads += 1
        image = entry.image.copy()
    return image, entry.ts


def full_gc_pass(tier):
    tier._commits_since_gc = 0
    watermark = tier.watermark()
    shrunk = []
    for loid, chain in tier._grown.items():
        if chain[1].ts > watermark:
            continue
        keep = bisect_right(chain, watermark,
                            key=lambda entry: entry.ts) - 1
        successor = chain[keep].ts
        for probe in tier.engine.probes:
            for entry in chain[:keep]:
                probe.version_pruned(loid, entry.ts, successor, watermark)
        tier.stats.versions_pruned += keep
        del chain[:keep]
        if len(chain) == 1:
            shrunk.append(loid)
    for loid in shrunk:
        del tier._grown[loid]


def copying_walk(engine, layout, config, rng, home_partition):
    txn = begin_snapshot_txn(engine)
    ops = updates = ref_updates = 0
    try:
        stub_oids = layout.root_stubs[home_partition]
        stub = stub_oids[rng.randrange(len(stub_oids))]
        stub_image = yield from txn.read(stub)
        current = stub_image.children()[0]
        visited = []
        for _ in range(config.ops_per_trans):
            is_update = rng.random() < config.update_prob
            image = yield from txn.read(current, for_update=is_update)
            ops += 1
            if is_update:
                updates += 1
                rewire = (rng.random() < config.ref_update_prob
                          and len(visited) >= 1)
                if rewire:
                    candidates = [oid for oid in visited if oid != current]
                    if candidates:
                        target = candidates[rng.randrange(len(candidates))]
                        yield from txn.update_ref(
                            current, glue_slot(config), target)
                        ref_updates += 1
                        image = txn._writes[current].copy()
                else:
                    offset = rng.randrange(max(1, config.payload_bytes - 4))
                    poke = random_bytes(rng, 4)
                    yield from txn.write_payload(current, offset, poke)
            visited.append(current)
            children = image.children()
            if not children:
                break
            current = children[rng.randrange(len(children))]
        yield from txn.commit()
        return WalkOutcome(True, ops, updates, ref_updates)
    except WriteConflictError:
        raise
    except BaseException:
        yield from txn.abort()
        raise


# -- the twin run -----------------------------------------------------------------

def _build(system):
    db, layout = Database.with_workload(
        WorkloadConfig(num_partitions=2, objects_per_partition=170, mpl=4,
                       seed=7), system=system)
    tier = MvccTier.attach(db.engine, MvccConfig(gc_every_commits=4))
    return db, layout, tier, db.engine.subscribe(SnapshotHistory())


def _race(db, layout, walk, seed, walks_per_thread=6):
    """Four walk threads (retrying conflicts) against a merge of
    partition 1 that starts once tails have grown."""
    engine = db.engine
    workload = layout.config
    outcomes = []

    def thread(thread_id):
        rng = random.Random(f"{seed}/t{thread_id}")
        home = 1 + thread_id % workload.num_partitions
        for _ in range(walks_per_thread):
            txn_seed = rng.getrandbits(48)
            while True:
                try:
                    outcome = yield from walk(
                        engine, layout, workload,
                        random.Random(txn_seed), home)
                    outcomes.append((outcome.committed, outcome.ops,
                                     outcome.updates, outcome.ref_updates))
                    break
                except WriteConflictError:
                    yield Delay(rng.uniform(1.0, 10.0))

    def merge():
        yield Delay(200.0)
        yield from MergeReorganizer(engine, 1, plan=CompactionPlan()).run()

    for thread_id in range(4):
        engine.sim.spawn(thread(thread_id), name=f"walker-{thread_id}")
    engine.sim.spawn(merge(), name="merge")
    engine.sim.run()
    return outcomes


def _step(txn, loid, children, own):
    stats = txn.tier.stats
    return (txn.begin_ts, loid, tuple(children), own, len(txn._reads),
            tuple(txn._reads[-1:]), stats.tail_reads, stats.base_reads,
            txn.tier.epoch)


@pytest.mark.parametrize("system", [
    SystemConfig(),
    SystemConfig(disk_resident=True, buffer_pool_pages=8),
], ids=["memory", "disk"])
def test_read_refs_walk_equals_the_copying_walk(monkeypatch, system):
    new_steps, old_steps = [], []
    read_refs = SnapshotTransaction.read_refs
    read = SnapshotTransaction.read

    def recording_read_refs(self, loid, for_update=False):
        own = loid in self._writes
        children = yield from read_refs(self, loid, for_update)
        new_steps.append(_step(self, loid, children, own))
        return children

    def recording_read(self, loid, for_update=False):
        own = loid in self._writes
        image = yield from read(self, loid, for_update)
        old_steps.append(_step(self, loid, image.children(), own))
        return image

    db, layout, tier, recorded = _build(system)
    with monkeypatch.context() as patch:
        patch.setattr(SnapshotTransaction, "read_refs", recording_read_refs)
        new_outcomes = _race(db, layout, mvcc_random_walk, seed=5,
                             walks_per_thread=30)

    old_db, old_layout, old_tier, old_recorded = _build(system)
    old_tier.read = MethodType(copying_read, old_tier)
    old_tier.version_for = MethodType(bisect_version_for, old_tier)
    old_tier.gc_pass = MethodType(full_gc_pass, old_tier)
    with monkeypatch.context() as patch:
        patch.setattr(SnapshotTransaction, "read", recording_read)
        old_outcomes = _race(old_db, old_layout, copying_walk, seed=5,
                             walks_per_thread=30)

    assert new_steps == old_steps
    assert new_outcomes == old_outcomes
    assert recorded.history == old_recorded.history
    assert tier.stats == old_tier.stats
    assert recorded.commit_log == old_recorded.commit_log
    assert recorded.gc_log == old_recorded.gc_log
    assert tier._lineage == old_tier._lineage
    assert db.sim.now == old_db.sim.now
    # The cases the walk must have met: own writes, rewires, tails,
    # bases, and reads after the flip.
    assert any(step[3] for step in new_steps)
    assert sum(outcome[3] for outcome in new_outcomes) > 0
    assert tier.stats.tail_reads > 0 and tier.stats.base_reads > 0
    assert any(step[-1] >= 1 for step in new_steps)


# -- the newest-first lookup --------------------------------------------------------

@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 40), min_size=1, max_size=8, unique=True),
       st.integers(0, 45))
def test_version_for_matches_the_bisect_oracle(stamps, ts):
    # ``version_for`` reads no engine: a bare one only seeds the tier.
    tier = MvccTier(engine=StorageEngine())
    loid = Oid(1, 0, 0)
    tier._chains[loid] = [VersionEntry(stamp, None, loid)
                          for stamp in sorted(stamps)]
    try:
        expected = bisect_version_for(tier, loid, ts)
    except KeyError:
        with pytest.raises(KeyError):
            tier.version_for(loid, ts)
        return
    assert tier.version_for(loid, ts) is expected


# -- the GC skip ------------------------------------------------------------------

def _shadow(tier, recorded):
    shadow = copy.copy(tier)
    shadow._chains = {loid: list(chain)
                      for loid, chain in tier._chains.items()}
    shadow._grown = {loid: shadow._chains[loid] for loid in tier._grown}
    shadow.stats = copy.copy(tier.stats)
    shadow_recorded = SnapshotHistory()
    shadow_recorded.gc_log = list(recorded.gc_log)
    # The only engine ``full_gc_pass`` reads is its probes.
    stand_in = SimpleNamespace(probes=(shadow_recorded,))
    shadow._engine = lambda: stand_in
    return shadow, shadow_recorded


def test_gc_pass_matches_the_full_pass_oracle(monkeypatch):
    watermarks = []
    real = MvccTier.gc_pass

    def checked(self):
        shadow, shadow_recorded = _shadow(self, recorded)
        full_gc_pass(shadow)
        real(self)
        assert self._chains == shadow._chains
        assert list(self._grown) == list(shadow._grown)
        assert self.stats.versions_pruned == shadow.stats.versions_pruned
        assert recorded.gc_log == shadow_recorded.gc_log
        watermarks.append(self.watermark())

    monkeypatch.setattr(MvccTier, "gc_pass", checked)
    db, layout, tier, recorded = _build(SystemConfig())
    pinned = tier.begin_snapshot()
    _race(db, layout, mvcc_random_walk, seed=9)
    # Under the pin every pass ran at one watermark: all but the first
    # were skipped, and the oracle agrees they could prune nothing.
    assert len(watermarks) > 2 and set(watermarks) == {pinned}
    assert tier.stats.versions_pruned == 0
    tier.end_snapshot(pinned)
    tier.gc_pass()
    assert tier.stats.versions_pruned > 0
    _race(db, layout, mvcc_random_walk, seed=10, walks_per_thread=3)
    db.run(tier.sweep_frees(), name="sweep")
    assert len(set(watermarks)) > 2
    assert tier.verify() == []
