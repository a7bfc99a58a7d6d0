#!/usr/bin/env python3
"""On-line garbage collection (§4.6).

"Our algorithm can perform garbage collection and reorganization and yet
allow references to be physical, an ability that to the best of our
knowledge, no previous algorithm in the literature possesses."

Creates garbage (unreachable linked structures), then compares the two
collectors built on the reorganization machinery (both report
``ReorgStats``; the bytes come from the partition's statistics):

* the partitioned copying collector (live objects evacuated, the whole
  source region reclaimed, the database re-clustered as a side effect);
* the partitioned mark-and-sweep baseline (garbage freed in place).

Run:  python examples/garbage_collection.py
"""

from repro import Database, WorkloadConfig
from repro.storage import ObjectImage


def grow_garbage(db: Database, layout, partition_id: int,
                 chains: int = 6, length: int = 15) -> int:
    """Hang a scratch chain off each of several cluster roots (each root
    has one spare reference slot), then cut them all loose."""
    roots = layout.cluster_roots[partition_id][:chains]
    assert len(roots) == chains, "partition has too few clusters"
    attachments = []

    def build(txn):
        for chain_index, root in enumerate(roots):
            yield from txn.read(root)
            prev = None
            for i in range(length):
                payload = b"tmp-%d-%03d" % (chain_index, i)
                oid = yield from txn.create_object(
                    partition_id,
                    ObjectImage.new(2, payload=payload,
                                    refs=[prev] if prev else []))
                prev = oid
            yield from txn.insert_ref(root, prev)
            attachments.append((root, prev))
    db.execute(build)

    def cut(txn):
        for root, head in attachments:
            yield from txn.read(root)
            yield from txn.delete_ref(root, head)
    db.execute(cut)
    return chains * length


def main() -> None:
    workload = WorkloadConfig(num_partitions=2,
                              objects_per_partition=1020, mpl=4, seed=5)

    # --- mark and sweep -------------------------------------------------
    db, layout = Database.with_workload(workload)
    garbage = grow_garbage(db, layout, partition_id=1)
    print(f"created {garbage} unreachable objects in partition 1")

    bytes_before = db.partition_stats(1).live_bytes
    stats = db.collect_garbage(1, method="mark-sweep")
    reclaimed_bytes = bytes_before - db.partition_stats(1).live_bytes
    print("\nmark-and-sweep collector:")
    print(f"  live objects marked {stats.objects_found:6d}")
    print(f"  objects reclaimed   {stats.garbage_collected:6d}")
    print(f"  bytes reclaimed     {reclaimed_bytes:6d}")
    assert stats.garbage_collected == garbage
    assert db.verify_integrity().ok

    # --- copying collector ------------------------------------------------
    db, layout = Database.with_workload(workload)
    garbage = grow_garbage(db, layout, partition_id=1)
    pages_before = db.store.partition(1).page_count

    stats = db.collect_garbage(1, method="copying", target_partition=10)
    print("\ncopying collector (live objects evacuated to partition 10):")
    print(f"  live objects moved  {stats.objects_migrated:6d}")
    print(f"  objects reclaimed   {stats.garbage_collected:6d}")
    print(f"  source pages freed  {pages_before:6d} -> "
          f"{db.store.partition(1).page_count}")
    assert stats.garbage_collected == garbage
    assert db.partition_stats(1).live_objects == 0
    assert db.verify_integrity().ok
    print("\nintegrity check: OK — all physical references valid, "
          "ERTs exact")


if __name__ == "__main__":
    main()
