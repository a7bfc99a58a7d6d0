"""An engine is freed by reference counting alone.

``perf/``'s runner runs an arm with the collector off, so whatever of a
finished run is cyclic garbage stays allocated until the next collection.  Nothing the engine owns
refers back to it (DESIGN.md, "Storage engine"), so a run that drops its
references frees everything it built.  Each scenario below runs once with
the collector off; then one collection under ``DEBUG_SAVEALL`` must find
no object whose type is defined in ``repro``.
"""

from __future__ import annotations

import gc
from collections import Counter

import pytest

from repro import Database
from repro.bench import EXPERIMENTS, base_workload, run_arm
from repro.bench.experiments import disk_closed_loop
from repro.bench.harness import (
    reorganize_alone,
    serve_sweep,
    trace_reorganize_measure,
)
from repro.faults import probe_run_window, run_chaos_point
from tests.test_bench_harness import TINY
from tests.test_cluster_bench import CLUSTERING
from tests.test_cluster_bench import TINY as CLUSTERING_TINY
from tests.test_faults_chaos import SMOKE_REORG, SMOKE_WORKLOAD
from tests.test_load_once import tiny
from tests.test_serve_bench import TINY as SERVE_TINY

# Each scenario runs at the size of the tests it is borrowed from.


def closed(experiment: str, arm: str):
    workload = base_workload(TINY, mpl=2)
    return lambda: run_arm(EXPERIMENTS[experiment].arm(arm), workload)


def disk_resident():
    disk = EXPERIMENTS["disk"]
    disk_closed_loop(disk, disk.arm("ira"), TINY, None, None)


def alone():
    locality = EXPERIMENTS["parent-locality"]
    reorganize_alone(locality, locality.arm("address"), TINY, 1, None)


def traced():
    trace_reorganize_measure(CLUSTERING, CLUSTERING.arm("cluster"),
                             CLUSTERING_TINY, None, None)


def fleet():
    serve_sweep(SERVE_TINY, SERVE_TINY.arm("fleet-gov"),
                SERVE_TINY.scales["tiny"], 4, None)


def load_miss():
    held, Database._load_image = Database._load_image, None
    try:
        Database.with_workload(tiny())
    finally:
        Database._load_image = held


def chaos(corruption):
    def point():
        start, end = probe_run_window("ira", SMOKE_WORKLOAD, SMOKE_REORG)
        result = run_chaos_point((start + end) / 2, workload=SMOKE_WORKLOAD,
                                 reorg_config=SMOKE_REORG, seed=13,
                                 corruption=corruption)
        assert result.ok, result.describe()
    return point


SCENARIOS = {
    "ira-flat": closed("locks", "flat"),
    "ira-hier": closed("locks", "hier"),
    "pqr": closed("table2", "pqr"),
    "mvcc-merge": closed("mvcc", "mvcc"),
    "disk-resident": disk_resident,
    "reorganize-alone": alone,
    "trace-reorganize-measure": traced,
    "serve-fleet": fleet,
    "load-miss": load_miss,
    "chaos-clean": chaos(None),
    "chaos-torn_page": chaos("torn_page"),
    "chaos-bit_flip": chaos("bit_flip"),
    "chaos-torn_log_tail": chaos("torn_log_tail"),
}


def repro_garbage(scenario) -> Counter:
    """Run ``scenario`` with the collector off; count, by type, the
    ``repro`` objects that only a collection could free afterwards."""
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        scenario()
        gc.set_debug(gc.DEBUG_SAVEALL)
        gc.collect()
        return Counter(type(obj).__qualname__ for obj in gc.garbage
                       if type(obj).__module__.split(".")[0] == "repro")
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        if enabled:
            gc.enable()


@pytest.mark.parametrize("name", SCENARIOS)
def test_a_finished_run_leaves_no_cyclic_garbage(name):
    left = repro_garbage(SCENARIOS[name])
    assert not left, (f"{name}: {sum(left.values())} repro objects survive "
                      f"as cyclic garbage: {dict(left.most_common(8))}")
