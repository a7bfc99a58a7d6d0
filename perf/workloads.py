"""The six workloads, as data.  Nothing here imports ``repro``; the
adapter turns a :class:`Workload` and an :class:`Arm` into engine calls.

Each workload is a handful of *arms* run on freshly built databases.
The arm marked ``primary`` (★ in the README) is the one whose simulated
metrics are reported; ``baseline`` (○) is its no-reorganization twin,
measured over the primary's window so both tails cover the same length
of simulated time.  Primary arms run first: the baseline's horizon is
the primary's window, capped at ``baseline_cap_ms``.  ``extra`` arms are
there for host-cost coverage and correctness.

One run of a workload measures ``variants`` differently seeded copies of
its primary and baseline arms (seed ``--seed * SEED_STRIDE + variant``)
and pools their response times: a single copy commits 1–3 k
transactions, which leaves p99 and the reorganization's duration too
noisy across seeds to gate on.  The extra arms run on variant 0 only.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, Optional, Tuple

#: Variant ``v`` of seed ``s`` runs on ``s * SEED_STRIDE + v``, so runs at
#: neighbouring seeds share no variant.
SEED_STRIDE = 1009


@dataclass(frozen=True)
class Arm:
    name: str
    #: ``primary`` (★), ``baseline`` (○) or ``extra``.
    role: str
    #: Which adapter runner drives it: ``closed``, ``mvcc``, ``serve``
    #: or ``chaos``.
    runner: str
    #: Reorganization algorithm, or ``None`` for a no-reorganization arm.
    algorithm: Optional[str] = None
    #: ``SystemConfig`` overrides for this arm only.
    system: Dict[str, object] = field(default_factory=dict)
    #: Runner-specific switches (``wal_state``, ``scan_mix``, ``fleet``…).
    options: Dict[str, object] = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    #: ``closed`` (fixed MPL) or ``open`` (arrivals on their own clock).
    loop: str
    arms: Tuple[Arm, ...]
    num_partitions: int
    objects_per_partition: int
    mpl: int
    update_prob: float = 0.5
    #: ``SystemConfig`` overrides shared by every arm.
    system: Dict[str, object] = field(default_factory=dict)
    #: Simulated-time cap on a baseline arm's horizon.
    baseline_cap_ms: float = 60_000.0
    #: Differently seeded copies pooled into one run's simulated metrics.
    variants: int = 2
    #: ``objects_per_partition`` for ``--smoke`` (smallest legal size is
    #: one 85-object cluster per partition; two keeps glue edges valid).
    smoke_objects: int = 170
    #: Runner-specific workload settings (arrival rate, chaos points…).
    options: Dict[str, object] = field(default_factory=dict)

    @property
    def primary(self) -> Arm:
        return next(arm for arm in self.arms if arm.role == "primary")

    @property
    def baseline(self) -> Arm:
        return next(arm for arm in self.arms if arm.role == "baseline")

    def variant_seed(self, seed: int, variant: int) -> int:
        return seed * SEED_STRIDE + variant

    def smoke(self) -> "Workload":
        """The same workload at its smallest legal size, one variant."""
        options = dict(self.options)
        if "duration_ms" in options:
            options["duration_ms"] = 6_000.0
        if "chaos_points" in options:
            options["chaos_points"] = 2
        return replace(
            self, num_partitions=min(self.num_partitions, 3),
            objects_per_partition=self.smoke_objects,
            mpl=min(self.mpl, 10), baseline_cap_ms=10_000.0, variants=1,
            options=options)


_HIER = {"lock_manager": "hier", "lock_escalate_after": 3}

WORKLOADS: Tuple[Workload, ...] = (
    Workload(
        name="table2_mem",
        why=("The paper's Table 2 point (MPL 30, update 0.5, memory-"
             "resident, flat locks): the only workload with a published "
             "reference; hlock, mvcc, serve and the buffer pool do nothing."),
        loop="closed",
        arms=(Arm("ira", "primary", "closed", algorithm="ira"),
              Arm("nr", "baseline", "closed"),
              Arm("pqr", "extra", "closed", algorithm="pqr")),
        num_partitions=6, objects_per_partition=1020, mpl=30,
        variants=5),
    Workload(
        name="disk_walk",
        why=("Working set larger than the buffer pool (24 of 82 data "
             "pages): page fix, miss, evict, write-back and data-disk "
             "waits dominate; table2_mem is the twin that fits."),
        loop="closed",
        arms=(Arm("ira", "primary", "closed", algorithm="ira"),
              Arm("nr", "baseline", "closed")),
        num_partitions=3, objects_per_partition=1020, mpl=16,
        system={"disk_resident": True, "buffer_pool_pages": 24},
        variants=3),
    Workload(
        name="scan_hier",
        why=("Lock-manager-bound: 25 % whole-cluster scans pile S locks so "
             "hierarchical escalation fires; the flat-ira arm runs the "
             "same mix so a hier gain that costs flat shows."),
        loop="closed",
        arms=(Arm("hier-ira", "primary", "closed", algorithm="ira",
                  system=_HIER, options={"scan_mix": True}),
              Arm("hier-nr", "baseline", "closed", system=_HIER,
                  options={"scan_mix": True}),
              Arm("flat-ira", "extra", "closed", algorithm="ira",
                  options={"scan_mix": True})),
        num_partitions=3, objects_per_partition=340, mpl=30,
        variants=5),
    Workload(
        name="mvcc_merge",
        why=("Snapshot transactions under the merge reorganizer: bypasses "
             "the lock manager and 2PL transactions (prediction for those: "
             "no change) and reads storage through version chains."),
        loop="closed",
        arms=(Arm("mvcc", "primary", "mvcc", algorithm="mvcc-merge"),
              Arm("mvcc-nr", "baseline", "mvcc")),
        num_partitions=6, objects_per_partition=2550, mpl=10,
        baseline_cap_ms=90_000.0, variants=3),
    Workload(
        name="serve_fleet",
        why=("The only open loop: Poisson 20 tps with Zipf 1.1 skew into 30 "
             "servers while a governed 2-worker reorganizer fleet checkpoints "
             "its state into the WAL; loads serve and core.checkpointing."),
        loop="open",
        arms=(Arm("fleet-gov", "primary", "serve", algorithm="ira",
                  options={"fleet": True}),
              Arm("nr", "baseline", "serve")),
        num_partitions=3, objects_per_partition=680, mpl=30,
        system={"deadlock_detection": "waits-for"},
        variants=6,
        options={"arrival_rate_tps": 20.0, "zipf_s": 1.1, "servers": 30,
                 "duration_ms": 60_000.0, "fleet_workers": 2,
                 "fleet_partitions": 3}),
    Workload(
        name="crash_recover",
        why=("Uses the WAL the other way round: crash mid-reorganization, "
             "ARIES analysis/redo/undo over only the flushed bytes, resume "
             "from WAL-carried state, verify the graph is isomorphic."),
        loop="closed",
        arms=(Arm("ira-wal", "primary", "closed", algorithm="ira",
                  options={"wal_state": True}),
              Arm("nr", "baseline", "closed"),
              Arm("chaos", "extra", "chaos", algorithm="ira")),
        num_partitions=3, objects_per_partition=680, mpl=10,
        update_prob=0.8, variants=8,
        options={"checkpoint_every": 16, "chaos_points": 4}),
)

BY_NAME: Dict[str, Workload] = {w.name: w for w in WORKLOADS}
