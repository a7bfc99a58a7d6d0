"""``Database.with_workload`` loads the §5.2 graph once per ``(workload,
system)`` and assembles every engine — the loading call's included — by
restart recovery from a private copy of that load's crash image."""

from __future__ import annotations

import dataclasses
import gc

import pytest

import repro.database as database
from repro import Database, StorageEngine, SystemConfig, WorkloadConfig
from repro.bench import EXPERIMENTS, run_experiment
from repro.faults import FaultInjector, FaultPlan
from repro.storage.oid import Oid
from repro.storage.page import Page
from repro.verify import deep_verify
from repro.workload import build_database


def tiny(**overrides) -> WorkloadConfig:
    base = dict(num_partitions=2, objects_per_partition=170, mpl=4, seed=7)
    base.update(overrides)
    return WorkloadConfig(**base)


@pytest.fixture
def builds(monkeypatch):
    """Forget the remembered image and count bulk loads from here on."""
    count = []

    def counting(engine, config):
        count.append(config)
        return build_database(engine, config)

    monkeypatch.setattr(Database, "_load_image", None)
    monkeypatch.setattr(database, "build_database", counting)
    return count


def reference(workload, system=None) -> StorageEngine:
    engine = StorageEngine(system or SystemConfig())
    build_database(engine, workload)
    return engine


def pages(engine):
    """Every page of every partition, by value."""
    return engine.store.snapshot()


def observable(engine):
    """What a run could tell two engines apart by."""
    return {
        "pages": pages(engine),
        "erts": {pid: list(engine.ert_for(pid).entries())
                 for pid in engine.store.partition_ids()},
        "next_tid": engine.txns._next_tid,
        "unlogged_base": engine.unlogged_base,
        "last_lsn": engine.log.last_lsn,
        "flush_count": engine.log.flush_count,
        "records_processed": engine.analyzer.records_processed,
        "now": engine.sim.now,
        "attributes": sorted(vars(engine)),
    }


# -- (a) hit ≡ miss ≡ the loader's content -------------------------------------

def test_a_hit_is_indistinguishable_from_a_miss(builds):
    miss, _ = Database.with_workload(tiny())
    hit, _ = Database.with_workload(tiny())
    assert len(builds) == 1
    assert miss.engine is not hit.engine
    assert observable(miss.engine) == observable(hit.engine)
    assert miss.engine.recovery_stats is not None


def test_an_assembled_engine_holds_what_the_loader_built(builds):
    db, _ = Database.with_workload(tiny())
    loader = reference(tiny())
    ours, theirs = observable(db.engine), observable(loader)
    # The loader's analyzer saw its own load-time CHECKPOINT append; an
    # assembled engine's saw nothing — which is why a miss must not hand
    # the loader itself back.
    assert (theirs.pop("records_processed"),
            ours.pop("records_processed")) == (1, 0)
    # Everything else agrees — the rebuilt ERTs down to iteration order.
    assert ours == theirs
    assert db.verify_integrity().ok


def test_layouts_are_equal_but_not_aliased(builds):
    _, first = Database.with_workload(tiny())
    _, second = Database.with_workload(tiny())
    assert first == second
    assert first.data_partitions == [1, 2]
    moved = first.cluster_roots[1][0]
    first.remap({moved: Oid(9, 9, 9)})
    assert first.cluster_roots[1][0] == Oid(9, 9, 9)
    _, third = Database.with_workload(tiny())
    assert second.cluster_roots[1][0] == third.cluster_roots[1][0] == moved
    assert len(builds) == 1


def test_the_key_is_the_configs_by_value_at_call_time(builds):
    workload, system = tiny(), SystemConfig()
    before, layout = Database.with_workload(workload, system)
    assert layout.config is workload and before.engine.config is system
    workload.seed = 8               # the caller's objects, after the call
    system.page_size = 2048
    same, _ = Database.with_workload(tiny(), SystemConfig())
    assert len(builds) == 1         # the remembered key did not move …
    assert pages(same.engine) == pages(before.engine)
    changed, _ = Database.with_workload(workload, system)
    assert len(builds) == 2         # … and a changed field is not hidden
    assert pages(changed.engine) == \
        pages(reference(tiny(seed=8), SystemConfig(page_size=2048)))
    assert pages(changed.engine) != pages(before.engine)


@pytest.mark.parametrize("workload, system", [
    (tiny(seed=8), SystemConfig()),
    (tiny(glue_factor=0.5), SystemConfig()),
    (tiny(), SystemConfig(page_size=2048)),
], ids=["seed", "glue_factor", "page_size"])
def test_a_graph_shaping_field_is_a_miss(builds, workload, system):
    base, _ = Database.with_workload(tiny(), SystemConfig())
    other, _ = Database.with_workload(workload, system)
    assert len(builds) == 2
    assert pages(other.engine) != pages(base.engine)
    assert pages(other.engine) == pages(reference(workload, system))
    # One entry: going back is a miss again.
    Database.with_workload(tiny(), SystemConfig())
    assert len(builds) == 3


# -- (b) one database's durable corruption stays its own -----------------------

def test_a_durable_bit_flip_does_not_reach_the_next_database(builds):
    victim, _ = Database.with_workload(tiny())
    injector = FaultInjector(
        FaultPlan(bit_flip_at_ms=1.0, bit_flip_target="durable"),
        victim.engine).attach()
    victim.engine.sim.run(until=5.0)
    assert injector.stats.bit_flips == 1
    assert not deep_verify(victim.engine).ok
    clean, _ = Database.with_workload(tiny())
    assert len(builds) == 1
    assert deep_verify(clean.engine).ok
    assert pages(clean.engine) == pages(reference(tiny()))


def test_a_torn_checkpoint_page_does_not_reach_the_next_database(builds):
    victim, _ = Database.with_workload(tiny())
    injector = FaultInjector(FaultPlan(torn_page_write=1),
                             victim.engine).attach()
    victim.reorganize(1)    # a tear shows only where a page has changed
    victim.checkpoint()
    assert injector.stats.torn_page_writes == 1
    assert not deep_verify(victim.engine).ok
    clean, _ = Database.with_workload(tiny())
    assert len(builds) == 1
    assert deep_verify(clean.engine).ok
    assert pages(clean.engine) == pages(reference(tiny()))


# -- (c) the loader is gone before the first engine is assembled ---------------

def live_pages() -> int:
    return sum(1 for obj in gc.get_objects() if type(obj) is Page)


def test_a_miss_leaves_one_store_with_the_collector_off(builds):
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()            # as ``perf/`` and ``repro bench`` run an arm
    try:
        before = live_pages()
        db, _ = Database.with_workload(tiny())
        one_store = sum(db.store.partition(pid).page_count
                        for pid in db.store.partition_ids())
        assert len(builds) == 1
        assert live_pages() - before == one_store
    finally:
        if was_enabled:
            gc.enable()


# -- (d) who loads how often ---------------------------------------------------

def by_value(*configs):
    return tuple(dataclasses.astuple(config) for config in configs)


def test_an_experiment_loads_once_per_distinct_configuration(builds,
                                                             monkeypatch):
    asked = []
    with_workload = Database.with_workload.__func__

    def recording(cls, workload=None, system=None):
        asked.append(by_value(workload or WorkloadConfig(),
                              system or SystemConfig()))
        return with_workload(cls, workload, system)

    monkeypatch.setattr(Database, "with_workload", classmethod(recording))
    run_experiment(EXPERIMENTS["table2"], "quick")
    assert len(asked) == 3          # nr, ira, pqr
    assert len(builds) == len(set(asked)) == 1


#: Per workload: ``(calls, loads)`` of a variant-0 rep (with the extra
#: arms) and of a later variant's rep at smoke size, and the hits of one
#: full-size cycle that follow.  ``scan_hier``'s flat arm has its own
#: ``SystemConfig``; ``crash_recover``'s chaos points (2 at smoke size,
#: 4 at full) pass ``system=None``, equal by value to its arms'.
PERF_REPS = {
    "table2_mem": ((3, 1), (2, 1), 6),
    "disk_walk": ((2, 1), (2, 1), 3),
    "scan_hier": ((3, 2), (2, 1), 5),
    "mvcc_merge": ((2, 1), (2, 1), 3),
    "serve_fleet": ((2, 1), (2, 1), 6),
    "crash_recover": ((4, 1), (2, 1), 12),
}


@pytest.mark.parametrize("name", sorted(PERF_REPS))
def test_a_perf_rep_loads_once_per_distinct_configuration(name, builds,
                                                          monkeypatch):
    from perf import runner
    from perf.workloads import BY_NAME

    calls = []
    with_workload = Database.with_workload.__func__

    def counting(cls, workload=None, system=None):
        calls.append(workload)
        return with_workload(cls, workload, system)

    monkeypatch.setattr(Database, "with_workload", classmethod(counting))
    full = BY_NAME[name]
    smoke = full.smoke()
    seen = []
    for variant in (0, 1):
        del calls[:], builds[:]
        rep = runner.run_rep(smoke, 42, variant, extras=variant == 0,
                             calibrate=False)
        assert rep.problems == []
        seen.append((len(calls), len(builds)))
    first, later, cycle_hits = PERF_REPS[name]
    assert seen == [first, later]
    more_chaos = (full.options.get("chaos_points", 0)
                  - smoke.options.get("chaos_points", 0))
    assert (first[0] - first[1] + more_chaos
            + (full.variants - 1) * (later[0] - later[1])) == cycle_hits
