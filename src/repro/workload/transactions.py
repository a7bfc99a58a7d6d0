"""The paper's transaction workload: random walks (§5.2).

A transaction starts at a randomly chosen persistent root of its thread's
home partition, then performs a random walk of OPSPERTRANS object
accesses, choosing the next object uniformly among the references out of
the current one.  Each access is an update access with probability
UPDATEPROB (exclusive lock); an update either pokes the object's payload
or — with probability ``ref_update_prob`` — re-points the object's glue
edge at a node visited earlier in the walk, which is the pointer
insert/delete traffic the TRT machinery exists for.

Beside it, the *cluster scan* — a report-style transaction reading one
whole cluster through its tree edges — and the scan/walk mix the lock
experiment runs (``repro bench locks``): the classic workload lock
escalation exists for.
"""

from __future__ import annotations

import random
from typing import Any, Generator

from ..concurrency import LockTimeoutError
from ..config import WorkloadConfig
from ..storage import NoSuchObjectError
from .graphgen import GraphLayout, glue_slot, random_bytes


class WalkOutcome:
    """What one attempt at a random-walk transaction did."""

    __slots__ = ("committed", "ops", "updates", "ref_updates")

    def __init__(self, committed: bool, ops: int, updates: int,
                 ref_updates: int):
        self.committed = committed
        self.ops = ops
        self.updates = updates
        self.ref_updates = ref_updates


def random_walk_transaction(engine, layout: GraphLayout,
                            config: WorkloadConfig, rng: random.Random,
                            home_partition: int
                            ) -> Generator[Any, Any, WalkOutcome]:
    """Run one random-walk transaction; aborts and re-raises on a lock
    timeout (deadlock) so the submitting thread can retry."""
    txn = engine.txns.begin()
    ops = updates = ref_updates = 0
    try:
        # Enter through a persistent root (a root stub in partition 0).
        stub_oids = layout.root_stubs[home_partition]
        stub = stub_oids[rng.randrange(len(stub_oids))]
        # The walk only ever follows references, so use the copy-free
        # ``read_refs`` — same locking/CPU/local-memory semantics as
        # ``read``, but no per-step private image copy.
        current = (yield from txn.read_refs(stub))[0]
        visited = []

        for _ in range(config.ops_per_trans):
            is_update = rng.random() < config.update_prob
            children = yield from txn.read_refs(current, for_update=is_update)
            ops += 1
            if is_update:
                updates += 1
                rewire = (rng.random() < config.ref_update_prob
                          and len(visited) >= 1)
                if rewire:
                    # Re-point the glue edge at an earlier-visited node
                    # (its reference is in the transaction's local memory).
                    candidates = [oid for oid in visited if oid != current]
                    if candidates:
                        target = candidates[rng.randrange(len(candidates))]
                        yield from txn.update_ref(
                            current, glue_slot(config), target)
                        ref_updates += 1
                        children = engine.store.children_tuple(current)
                else:
                    offset = rng.randrange(
                        max(1, config.payload_bytes - 4))
                    poke = random_bytes(rng, 4)
                    yield from txn.write_payload(current, offset, poke)
            visited.append(current)
            if not children:
                break
            current = children[rng.randrange(len(children))]

        yield from txn.commit()
        return WalkOutcome(True, ops, updates, ref_updates)
    except LockTimeoutError:
        yield from txn.abort(reason="deadlock")
        raise
    except NoSuchObjectError:
        # The §4.2 reference-equality caveat: this walk read a parent
        # before the two-lock reorganizer patched it, queued on the old
        # address's lock, and was granted it only after the migration
        # deleted the old copy.  Abort so locks are released; whether the
        # submitting harness retries is its policy.
        yield from txn.abort(reason="stale-read")
        raise


#: Probability that a scan-mix transaction is a whole-cluster scan (the
#: rest are the standard random walks).
SCAN_PROB = 0.25


def cluster_scan_transaction(engine, layout: GraphLayout,
                             config: WorkloadConfig, rng: random.Random,
                             home_partition: int
                             ) -> Generator[Any, Any, WalkOutcome]:
    """Read every object of one randomly chosen cluster (tree edges
    only — glue edges leave the cluster), shared locks throughout."""
    txn = engine.txns.begin()
    ops = 0
    try:
        # Enter through a root stub like the walks do: the stub's ref is
        # patched transactionally by the reorganizer, so it is always
        # current (``layout.cluster_roots`` is only remapped at reorg
        # end and would hand out stale mid-migration addresses).
        stubs = layout.root_stubs[home_partition]
        stub = stubs[rng.randrange(len(stubs))]
        stack = [(yield from txn.read_refs(stub))[0]]
        while stack:
            image = yield from txn.read(stack.pop())
            ops += 1
            for slot, child in image.refs():
                if slot < config.branching:
                    stack.append(child)
        yield from txn.commit()
        return WalkOutcome(True, ops, 0, 0)
    except LockTimeoutError:
        yield from txn.abort(reason="deadlock")
        raise
    except NoSuchObjectError:
        # A scan keeps copied-out child references on its stack for a
        # long window, so under relaxed 2PL (read locks released at
        # operation end) a migration can delete an old copy mid-scan:
        # the same §4.2 stale-reference abort the walk reports.
        yield from txn.abort(reason="stale-read")
        raise


def scan_mix_transaction(engine, layout: GraphLayout,
                         config: WorkloadConfig, rng: random.Random,
                         home_partition: int
                         ) -> Generator[Any, Any, WalkOutcome]:
    """Scan with :data:`SCAN_PROB`, else the standard random walk.  The
    flavor comes off the same per-transaction rng, so a timeout retry
    re-runs the same flavor."""
    if rng.random() < SCAN_PROB:
        return (yield from cluster_scan_transaction(
            engine, layout, config, rng, home_partition))
    return (yield from random_walk_transaction(
        engine, layout, config, rng, home_partition))
