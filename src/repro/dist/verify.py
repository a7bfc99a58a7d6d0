"""Cluster-wide integrity: digests, oracles and post-crash ERT repair.

Three pillars back the chaos gates:

* :func:`node_state_digest` — a canonical fingerprint of one node's
  durable-equivalent state (every live object's address, payload and
  reference slots, plus the owned partitions' ERT contents).  Page LSNs
  and the log itself are deliberately excluded: a crashed-and-recovered
  node legitimately differs there, while the *state* must land
  byte-identical to an unkilled twin.
* :func:`cluster_graph_signature` — the transparency oracle across
  nodes: payload-level structure of the whole object graph, insensitive
  to physical addresses, so reorganization (local or cross-node) must
  leave it unchanged.
* :func:`unresolved_in_doubt` — the zero-orphan gate: any participant
  branch that logged ``TPC_PREPARE`` must eventually log ``END``
  (settled commit or abort); a prepared tid with no END is an orphaned
  in-doubt patch.

:func:`reconcile_remote_ert` repairs the one piece of reorganization
state the WAL cannot replay locally: ERT entries for *remote* parents.
The remote REF_UPDATEs live in other nodes' logs, so after a restart the
owner's ERT still maps migrated-away addresses to those parents.  Every
committed migration leaves at least one local REF_UPDATE (the circular
intra-partition chain guarantees a local parent), so the old→new pairs
are recoverable from the local log alone, and the remap is idempotent.
"""

from __future__ import annotations

import hashlib
from typing import Dict, Iterable, List, Tuple

from ..core.checkpointing import committed_migrations_from_log
from ..verify import deep_verify
from ..wal import TransactionTable


def node_state_digest(engine) -> str:
    """Canonical hex fingerprint of one engine's live state."""
    hasher = hashlib.sha256()
    store = engine.store
    for oid in sorted(store.all_live_oids()):
        image = store.read_object(oid)
        hasher.update(b"obj")
        hasher.update(str(oid.pack()).encode())
        hasher.update(image.payload)
        for slot, child in image.refs():
            hasher.update(f"r{slot}:{child.pack()}".encode())
    for pid in sorted(store.partition_ids()):
        hasher.update(f"ert{pid}".encode())
        entries = sorted((child.pack(), parent.pack())
                         for child, parent in engine.ert_for(pid).entries())
        for child, parent in entries:
            hasher.update(f"{child}->{parent}".encode())
    return hasher.hexdigest()


def cluster_digests(cluster) -> Dict[int, str]:
    return {node.node_id: node_state_digest(node.engine)
            for node in cluster.nodes}


def cluster_graph_signature(cluster) -> Tuple:
    """Payload-level structure of the global graph — the transparency
    oracle: identical before and after any amount of reorganization."""
    payloads = {}
    for node in cluster.nodes:
        store = node.engine.store
        for oid in store.all_live_oids():
            payloads[oid] = store.read_object(oid).payload
    entries = []
    for node in cluster.nodes:
        store = node.engine.store
        for oid in store.all_live_oids():
            children = sorted(payloads.get(child, b"<dangling>")
                              for child in store.children_of(oid))
            entries.append((payloads[oid], tuple(children)))
    return tuple(sorted(entries))


def unresolved_in_doubt(engine) -> Dict[int, str]:
    """Prepared-but-never-settled participant branches: tid -> gid.

    A clean shutdown state has none — every ``TPC_PREPARE`` is followed
    (eventually) by a terminal record: ``END`` (committed, or settled by
    in-doubt resolution) or ``ABORT`` (a live rollback, which closes
    with the abort record itself).  Non-empty means orphaned in-doubt
    patches.
    """
    table = TransactionTable.scan(engine.log)
    return {tid: prepare.gid for tid, prepare in sorted(table.prepared.items())
            if tid not in table.ended and tid not in table.aborted}


def cluster_deep_verify(cluster) -> List[str]:
    """Per-node deep verification plus the cluster-level gates; returns
    every problem found (empty = clean)."""
    problems: List[str] = []
    for node in cluster.nodes:
        report = deep_verify(node.engine)
        for problem in report.problems():
            problems.append(f"node {node.node_id}: {problem}")
        for tid, gid in unresolved_in_doubt(node.engine).items():
            problems.append(f"node {node.node_id}: orphaned in-doubt "
                            f"branch tid={tid} gid={gid}")
        if node.scrubber is not None and not node.scrubber.stats.clean:
            problems.append(
                f"node {node.node_id}: scrubber found "
                f"{node.scrubber.stats.corrupt_pages_found} corrupt pages")
    return problems


def reconcile_remote_ert(engine, partition_id: int) -> int:
    """Re-point stale remote-parent ERT entries after a restart.

    For every migration the durable log proves committed, any surviving
    ERT entry still keyed by the old address whose parent partition is
    *not* local must belong to a remote parent patched via 2PC on the
    parent's node; move it to the new address.  Local parents never show
    up here — their REF_UPDATEs replay through the log analyzer during
    recovery.  Returns the number of entries remapped.
    """
    pairs = committed_migrations_from_log(engine, partition_id, 0)
    ert = engine.ert_for(partition_id)
    fixed = 0
    # Commit order, not address order: a freed source slot can be reused
    # as a later migration's target, and replaying out of order would
    # remap the same entry twice through the aliased address.
    for old, new in pairs.items():
        for parent in sorted(ert.parents_of(old)):
            if engine.store.has_partition(parent.partition):
                continue  # local anomaly: leave for verify_integrity
            ert.remove(old, parent)
            ert.add(new, parent)
            fixed += 1
    return fixed
