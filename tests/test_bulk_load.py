"""The §5.2 bulk load learns every address by a dry-run placement and then
places each object once, with its final references, a page at a time.

Two pins: the load images themselves (golden digests, recorded before
the loader was rebuilt, so every page byte and CRC, every ERT entry in
its order, the layout and the log are what they were), and the placement
they rest on (``allocate_many`` puts each record exactly where
successive ``allocate`` calls would).
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import Database, WorkloadConfig
from repro.config import DistConfig
from repro.dist import DistCluster
from repro.storage import Page, Partition, PartitionFullError


def image_digest(crash, layout=None) -> str:
    digest = hashlib.sha256(crash.durable_log)
    digest.update(repr(crash.snapshots.items()).encode())
    if layout is not None:
        digest.update(repr((sorted(layout.root_stubs.items()),
                            sorted(layout.cluster_roots.items()))).encode())
    return digest.hexdigest()


LOADS = {
    "6x2550": (dict(num_partitions=6, objects_per_partition=2550, mpl=10,
                    seed=42 * 1009),
               "6a82feff260f6c22748b89adb3d4b9c7"
               "ff9c41a8f2b834197cee30414c4af2a1"),
    "6x1020": (dict(num_partitions=6, objects_per_partition=1020, seed=7),
               "9d27601700a74f63888b01d93973da8f"
               "c1e2004355b486b4ddb5f82a4a996b9a"),
    "3x340-glue": (dict(num_partitions=3, objects_per_partition=340,
                        glue_factor=0.5),
                   "35cfb69268753d4b3cbe6b0816e93936"
                   "237d199617f9a384c33784a125d4f5d0"),
    "1x170": (dict(num_partitions=1, objects_per_partition=170),
              "0c3abcef5065769de0b1bbb7bd1c1050"
              "b4ee4ba8251162af1deb4cadfebc6c26"),
}


@pytest.mark.parametrize("name", sorted(LOADS))
def test_load_image_is_byte_identical(name, monkeypatch):
    overrides, golden = LOADS[name]
    monkeypatch.setattr(Database, "_load_image", None)
    Database.with_workload(WorkloadConfig(**overrides))
    held = Database._load_image
    assert image_digest(held.crash, held.layout) == golden


def test_dist_load_is_byte_identical():
    cluster = DistCluster(DistConfig()).build()
    digest = hashlib.sha256()
    for node in cluster.nodes:
        digest.update(image_digest(node.engine.crash_image()).encode())
    assert digest.hexdigest() == ("951d64f006f4d04340ffb48a5775bee9"
                                  "64d41c3f6a1c3386e38de456a888af24")


PAGE = 256

#: A history that leaves holes, a relocation floor and a dropped page
#: recreated at an exact address.
_STEP = st.one_of(
    st.tuples(st.just("alloc"), st.integers(1, 120)),
    st.tuples(st.just("free"), st.integers(0, 10_000)),
    st.tuples(st.just("floor"), st.just(0)),
    st.tuples(st.just("recreate"), st.integers(0, 10_000)),
)


def record(tag: int, size: int) -> bytes:
    return bytes([tag % 251 + 1]) * size


def replay(part: Partition, steps) -> None:
    tag = 0
    for op, arg in steps:
        tag += 1
        live = list(part.live_oids())
        if op == "alloc":
            part.allocate(record(tag, arg))
        elif op == "free" and live:
            part.free(live[arg % len(live)])
        elif op == "floor":
            part.mark_relocation_floor()
        elif op == "recreate" and live:
            # Empty one page, drop it, then redo one record at an address
            # past slot 0, so the recreated page has a padding hole.
            page = live[arg % len(live)].page
            doomed = [oid for oid in live if oid.page == page]
            for oid in doomed:
                part.free(oid)
            part.drop_empty_pages()
            part.allocate_at(doomed[-1]._replace(slot=doomed[-1].slot + 1),
                             record(tag, 16))


@settings(max_examples=150, deadline=None)
@given(st.lists(_STEP, max_size=40),
       st.lists(st.integers(1, 250), max_size=40),
       st.booleans())
def test_allocate_many_places_like_successive_allocates(steps, sizes,
                                                        fresh_only):
    one, many = Partition(1, PAGE), Partition(1, PAGE)
    replay(one, steps)
    replay(many, steps)
    datas = [record(i, size) for i, size in enumerate(sizes)]
    singles = []
    try:
        for data in datas:
            singles.append(one.allocate(data, fresh_only=fresh_only))
    except PartitionFullError:
        # A record larger than a fresh page: the batch refuses it at the
        # same point, after placing the same prefix.
        with pytest.raises(PartitionFullError):
            many.allocate_many(datas, fresh_only=fresh_only)
    else:
        assert many.allocate_many(datas, fresh_only=fresh_only) == singles
    assert many.snapshot() == one.snapshot()
    assert many.verify_pages() == one.verify_pages() == []


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(["insert", "insert", "delete",
                                           "insert_at", "restore"]),
                          st.integers(0, 10_000), st.integers(1, 40)),
                max_size=60))
def test_a_hole_free_page_appends_the_slot_a_scan_would_pick(ops):
    page = Page(512)
    for op, pick, size in ops:
        free = [slot for slot, (offset, _) in enumerate(page._slots)
                if offset < 0]
        live = list(page.slots())
        if op == "insert" and size <= page.free_space:
            expected = free[0] if free else page.slot_count
            assert page.insert(b"r" * size) == expected
        elif op == "delete" and live:
            page.delete(live[pick % len(live)])
        elif op == "insert_at" and size + 8 <= page.free_space:
            page.insert_at(page.slot_count + pick % 3, b"a" * size)
        elif op == "restore":
            page = Page.restore(page.snapshot())
    page.verify()
