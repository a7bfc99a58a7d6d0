"""One relocation step, one skeleton: the five algorithms as footprints.

Every reorganizer moves an object through the same three steps of
``repro.core.reorganizer.Reorganizer`` and runs the same ``run``; what
differs is what each locks around the move.  On a quiet database the
footprint cannot change *what* is moved, so every algorithm that moves
physical references must leave the same graph behind, report the same
counts and patch the same number of reference slots.
"""

import ast
import pathlib

import pytest

from repro import (
    CompactionPlan,
    Database,
    EvacuationPlan,
    ReorgConfig,
    WorkloadConfig,
)
from repro.core import Reorganizer
from repro.database import REORGANIZERS
from repro.storage import ObjectImage
from tests.test_core_ira import graph_signature

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "repro"
PHYSICAL = ("offline", "pqr", "ira", "ira-2lock")


def _quiet_db():
    return Database.with_workload(
        WorkloadConfig(num_partitions=2, objects_per_partition=170,
                       mpl=2, seed=11))


def test_every_registered_algorithm_runs_the_one_skeleton():
    for name, cls in REORGANIZERS.items():
        assert issubclass(cls, Reorganizer), name
        assert cls.run is Reorganizer.run, name


@pytest.mark.parametrize("plan", [CompactionPlan, lambda: EvacuationPlan(9)],
                         ids=["compaction", "evacuation"])
def test_the_footprint_does_not_change_what_moves(plan):
    outcomes = {}
    for algorithm in PHYSICAL:
        db, layout = _quiet_db()
        before = graph_signature(db, layout)
        originals = set(db.store.live_oids(1))
        stats = db.reorganize(1, algorithm=algorithm, plan=plan())
        assert stats.algorithm == algorithm
        assert set(stats.mapping) == originals
        assert graph_signature(db, layout) == before
        assert db.verify_integrity().ok
        outcomes[algorithm] = (stats.objects_found, stats.objects_migrated,
                               stats.parent_patches,
                               sorted(db.store.live_oids(1)) == [])
    assert len(set(outcomes.values())) == 1, outcomes
    found, migrated, patches, _ = outcomes["ira"]
    assert found == migrated == 170 and patches >= 170


def widen(oid, image):
    return ObjectImage([image.get_ref(i) for i in range(image.ref_capacity)],
                       image.payload + bytes(8))


@pytest.mark.parametrize("algorithm", PHYSICAL)
def test_every_copying_footprint_applies_the_transform(algorithm):
    db, layout = _quiet_db()
    reorg = db.reorganizer(1, algorithm, plan=CompactionPlan(),
                           reorg_config=ReorgConfig(), transform=widen)
    assert db.run(reorg.run()).objects_migrated == 170
    assert {len(db.store.read_object(oid).payload)
            for oid in db.store.live_oids(1)} == \
        {layout.config.payload_bytes + 8}
    assert db.verify_integrity().ok


def _calls(path, names):
    tree = ast.parse(path.read_text())
    return sorted(node.func.attr for node in ast.walk(tree)
                  if isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in names)


def test_the_move_is_written_once():
    """Only the relocation step allocates a target or re-points a slot;
    the footprints call it.  (``update_ref`` / ``create_object`` are the
    transaction operations the move is made of.)"""
    names = {"create_object", "update_ref"}
    files = sorted((SRC / "core").glob("*.py")) + [SRC / "mvcc" / "merge.py"]
    found = {path.name: _calls(path, names) for path in files}
    assert found.pop("reorganizer.py") == ["create_object", "update_ref"]
    assert {name: calls for name, calls in found.items() if calls} == {}
