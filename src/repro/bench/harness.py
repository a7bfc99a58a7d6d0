"""The experiment runner: one sweep loop, five protocols, one renderer.

The paper's §5 study is one protocol — MPL threads run "until the
reorganization operation completed", the no-reorg twin is measured over
the same window — applied to different arms.  An :class:`Experiment`
(registry: :mod:`repro.bench.experiments`) declares arms, sweep points
per scale and table columns; :func:`run_experiment` executes it through
one of the five protocols that genuinely differ: :func:`closed_loop`,
:func:`reorganize_alone`, :func:`trace_reorganize_measure`,
:func:`serve_sweep`, :func:`dist_sweep`.

Scales of the paper's experiments (``repro bench --scale``):

* ``paper``    — Table 1 defaults: 10 partitions x 4080 objects, the full
  sweep ranges.  Slowest; closest to the published absolute numbers.
* ``standard`` — 6 partitions x 1020 objects and trimmed sweep ranges.
  All the paper's *shapes* (who wins, where curves peak, the
  orders-of-magnitude dispersion gaps) reproduce at this scale in a few
  minutes; the paper's verdicts are stated for it.
* ``quick``    — 3 partitions x 340 objects, smoke-test sweeps: what the
  tier-1 suite reproduces exactly.

Every run is deterministic given the workload seed.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import (Any, Callable, Dict, Iterable, List, Mapping, NamedTuple,
                    Optional, Sequence, Tuple)

from ..cluster import AffinityGraph, ClusteringAdvisor, ClusterTracer
from ..concurrency import LockTimeoutError
from ..config import (ExperimentConfig, FleetConfig, GovernorConfig,
                      MvccConfig, ReorgConfig, SystemConfig, WorkloadConfig)
from ..core import CompactionPlan
from ..database import Database
from ..dist import DistCluster, cluster_deep_verify
from ..mvcc import MvccTier
from ..serve import ReorgFleet, ReorgGovernor, ServingLayer
from ..storage import ObjectImage
from ..workload import WorkloadDriver, random_walk_transaction


@dataclass
class BenchScale:
    name: str
    num_partitions: int
    objects_per_partition: int
    mpl_points: Sequence[int]
    partition_size_points: Sequence[int]
    update_prob_points: Sequence[float]
    glue_factor_points: Sequence[float]
    walk_length_points: Sequence[int]
    partition_count_points: Sequence[int]
    batch_size_points: Sequence[int]
    nr_horizon_cap_ms: float


SCALES: Dict[str, BenchScale] = {
    "paper": BenchScale(
        name="paper", num_partitions=10, objects_per_partition=4080,
        mpl_points=(1, 5, 10, 20, 30, 45, 60),
        partition_size_points=(1020, 2040, 4080, 6120, 8160),
        update_prob_points=(0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0),
        glue_factor_points=(0.01, 0.05, 0.2, 0.5),
        walk_length_points=(4, 8, 16),
        partition_count_points=(5, 10, 20),
        batch_size_points=(1, 4, 16, 64),
        nr_horizon_cap_ms=120_000.0),
    "standard": BenchScale(
        name="standard", num_partitions=6, objects_per_partition=1020,
        mpl_points=(1, 5, 15, 30, 45),
        partition_size_points=(510, 1020, 2040, 3060, 4080),
        update_prob_points=(0.1, 0.3, 0.5, 0.8, 1.0),
        glue_factor_points=(0.01, 0.05, 0.2, 0.5),
        walk_length_points=(4, 8, 16),
        partition_count_points=(3, 6, 12),
        batch_size_points=(1, 4, 16, 64),
        nr_horizon_cap_ms=60_000.0),
    "quick": BenchScale(
        name="quick", num_partitions=3, objects_per_partition=340,
        mpl_points=(2, 10, 30),
        partition_size_points=(170, 340, 680),
        update_prob_points=(0.1, 0.5, 0.9),
        glue_factor_points=(0.05, 0.5),
        walk_length_points=(4, 8),
        partition_count_points=(2, 4),
        batch_size_points=(1, 16),
        nr_horizon_cap_ms=20_000.0),
}


def base_workload(scale: BenchScale, **overrides) -> WorkloadConfig:
    params = dict(num_partitions=scale.num_partitions,
                  objects_per_partition=scale.objects_per_partition)
    params.update(overrides)
    return WorkloadConfig(**params)


# -- the declarative pieces ---------------------------------------------------


@dataclass
class BenchPoint:
    """One measured run of one arm."""

    algorithm: str
    #: Anything with a ``summary()`` — :class:`ExperimentMetrics`, or
    #: the :class:`ReorgMetrics` / :class:`DistMetrics` of the two
    #: protocols that run no user transactions.
    metrics: Any
    #: What the protocol measured beside the metrics (columns and
    #: verdicts read it; the committed figure does not carry it).
    overrides: Dict[str, object] = field(default_factory=dict)
    #: Kernel counters captured at the end of the run (events dispatched,
    #: timers scheduled/cancelled, heap peak) — see ``Simulator.counters``.
    counters: Dict[str, int] = field(default_factory=dict)


@dataclass(frozen=True)
class Arm:
    """One arm of an experiment: what runs against what."""

    name: str
    #: Reorganizer name (``Database.reorganizer``); ``None`` = none.
    algorithm: Optional[str] = None
    #: :class:`SystemConfig` overrides.
    system: Mapping[str, object] = field(default_factory=dict)
    #: :class:`ReorgConfig` overrides (closed loop).
    reorg: Mapping[str, object] = field(default_factory=dict)
    #: The per-transaction generator and the aborts a thread retries.
    body: Callable = random_walk_transaction
    retry_on: Tuple[type, ...] = (LockTimeoutError,)
    #: Attach the MVCC tier, so ``body`` runs on snapshots.
    snapshot: bool = False
    #: Measure this arm over the named reorganizing arm's window — the
    #: paper's "while reorganization is in progress", so a during-reorg
    #: number always has a baseline of the same length.  A no-reorg twin's
    #: window is capped (``nr_horizon_cap_ms``: its rates are stationary);
    #: a reorganizing twin runs the full window (§5.3.4).
    twin_of: Optional[str] = None
    #: What one protocol reads: ``plan`` (trace/reorganize/measure and
    #: reorganize-alone), ``governed`` (serve).
    options: Mapping[str, object] = field(default_factory=dict)

    def driver(self, engine, layout, workload: WorkloadConfig
               ) -> WorkloadDriver:
        """The closed-loop driver submitting this arm's transactions."""
        driver = WorkloadDriver(engine, layout,
                                ExperimentConfig(workload=workload))
        driver.walk_fn = self.body
        driver.retry_on = self.retry_on
        return driver


#: One sweep point's results, by arm name in reporting order.
ArmPoints = Dict[str, BenchPoint]
#: An experiment's results: sweep point (``None`` when not swept) → arms.
Rows = Dict[object, ArmPoints]


@dataclass(frozen=True)
class Column:
    """A table column: ``value(point, arms at its sweep point, rows)``
    under the ``fmt`` format spec (string values pass through)."""

    header: str
    fmt: str
    value: Callable[[BenchPoint, ArmPoints, Rows], object]

    def text(self, *where) -> str:
        value = self.value(*where)
        return value if isinstance(value, str) else format(value, self.fmt)


def _shown(value) -> str:
    if isinstance(value, float):
        return format(value, ".6g")
    if isinstance(value, (list, tuple)):
        return f"[{', '.join(map(_shown, value))}]"
    return str(value)


class Clause(NamedTuple):
    """One inequality of an experiment's verdict."""

    text: str
    holds: bool
    #: The numbers (or curves) compared, shown when the clause fails.
    values: Tuple

    def describe(self) -> str:
        return f"{self.text}: {' vs '.join(map(_shown, self.values))}"


@dataclass(frozen=True)
class Experiment:
    name: str
    title: str
    #: ``protocol(experiment, arm, scale, x, twin_window_ms) -> BenchPoint``
    protocol: Callable[..., BenchPoint]
    arms: Tuple[Arm, ...]
    #: Scale name → the protocol's scale parameters.
    scales: Mapping[str, object]
    columns: Tuple[Column, ...]
    #: The acceptance claim and the clauses that together decide it.
    claim: str
    verdict: Callable[[Rows], Iterable[Clause]]
    #: Scale attribute listing the sweep's points; ``None`` = one point.
    sweep: Optional[str] = None
    #: What a sweep point is (closed loop: the workload field it sets).
    x_label: str = ""
    #: How a sweep point keys the payload and labels its table rows.
    x_key: Callable[[object], str] = str
    #: Closed loop: overrides of ``base_workload(scale)``.
    workload: Mapping[str, object] = field(default_factory=dict)

    def arm(self, name: str) -> Arm:
        return next(arm for arm in self.arms if arm.name == name)

    def failures(self, rows: Rows) -> List[Clause]:
        """The verdict's clauses that do not hold (empty = it holds)."""
        return [clause for clause in self.verdict(rows) if not clause.holds]

    def points(self, scale_name: str) -> Sequence:
        if self.sweep is None:
            return (None,)
        return getattr(self.scales[scale_name], self.sweep)


def run_arms(arms: Sequence[Arm],
             run_one: Callable[[Arm, Optional[float]], BenchPoint]
             ) -> ArmPoints:
    """``run_one(arm, twin_window_ms)`` for every arm, the arms that set
    their own window first so each twin can be given its arm's."""
    points: ArmPoints = {}
    for arm in sorted(arms, key=lambda arm: arm.twin_of is not None):
        window = (points[arm.twin_of].metrics.window_ms
                  if arm.twin_of is not None else None)
        points[arm.name] = run_one(arm, window)
    return {arm.name: points[arm.name] for arm in arms}


def run_experiment(experiment: Experiment, scale_name: str,
                   progress: Optional[Callable[[str], None]] = None
                   ) -> Rows:
    """The sweep loop: every arm at every point of one scale."""
    scale = experiment.scales[scale_name]
    rows: Rows = {}
    for x in experiment.points(scale_name):
        def run_one(arm: Arm, twin_window_ms: Optional[float]) -> BenchPoint:
            point = experiment.protocol(experiment, arm, scale, x,
                                        twin_window_ms)
            if progress is not None:
                at = ("" if experiment.sweep is None
                      else f"{experiment.x_key(x)} ")
                progress(f"{at}{arm.name} done")
            return point
        rows[x] = run_arms(experiment.arms, run_one)
    return rows


def figure(experiment: Experiment, rows: Rows) -> Dict[str, object]:
    """What ``BENCH.json`` pins of one run (schema: :mod:`.baseline`): each
    point's simulated summary and kernel counters — nested by sweep-point
    key when swept, then by arm when there is more than one — and whether
    the verdict holds."""
    def nested(leaf: Callable[[BenchPoint], object]):
        def arms(points: ArmPoints):
            if len(points) == 1:
                return leaf(next(iter(points.values())))
            return {name: leaf(point) for name, point in points.items()}
        if experiment.sweep is None:
            return arms(rows[None])
        return {experiment.x_key(x): arms(points)
                for x, points in rows.items()}

    return {"metrics": nested(lambda point: point.metrics.summary()),
            "counters": nested(lambda point: point.counters),
            "holds": not experiment.failures(rows)}


def render(experiment: Experiment, rows: Rows) -> str:
    """The data table — one line per (sweep point, arm) — and verdict."""
    swept = experiment.sweep is not None
    many = len(experiment.arms) > 1
    table = [[experiment.x_label] * swept + [""] * many
             + [column.header for column in experiment.columns]]
    for x, arms in rows.items():
        for name, point in arms.items():
            table.append([experiment.x_key(x)] * swept + [name.upper()] * many
                         + [column.text(point, arms, rows)
                            for column in experiment.columns])
    widths = [max(map(len, cells)) for cells in zip(*table)]
    lines = [experiment.title, "-" * len(experiment.title)]
    lines += [" ".join(cell.rjust(width) for cell, width in zip(row, widths))
              for row in table]
    failed = experiment.failures(rows)
    lines.append(f"\n{'DOES NOT HOLD' if failed else 'holds'}: "
                 f"{experiment.claim}")
    lines += [f"  fails: {clause.describe()}" for clause in failed]
    return "\n".join(lines)


# -- protocol 1: the paper's closed loop -------------------------------------


def _verified(db: Database, point: BenchPoint, tier=None) -> BenchPoint:
    """``point`` with the run's kernel counters, once the store (and the
    MVCC tier, if any) it ran on checks out."""
    problems = (tier.verify() if tier is not None else []) \
        + db.verify_integrity().problems()
    if problems:
        raise AssertionError(f"integrity violated after "
                             f"{point.algorithm}: {problems[:3]}")
    point.counters = db.engine.sim.counters()
    return point


def run_arm(arm: Arm, workload: WorkloadConfig,
            horizon_ms: Optional[float] = None) -> BenchPoint:
    """One closed-loop run of ``arm`` on a freshly built database: MPL
    threads racing one reorganization of partition 1 (the window closing
    at ``horizon_ms`` if given, else when it completes), or — without an
    algorithm — running alone for ``horizon_ms``."""
    db, layout = Database.with_workload(
        workload, system=SystemConfig(**arm.system))
    engine = db.engine
    tier = MvccTier.attach(engine, MvccConfig()) if arm.snapshot else None
    driver = arm.driver(engine, layout, workload)
    overrides = {"partition_objects": workload.objects_per_partition,
                 "ert_size": len(engine.ert_for(1))}
    if arm.algorithm is None:
        metrics = driver.run(horizon_ms=horizon_ms)
        metrics.algorithm = arm.name
    else:
        reorganizer = db.reorganizer(
            1, arm.algorithm, plan=CompactionPlan(),
            reorg_config=ReorgConfig(**arm.reorg) if arm.reorg else None)
        metrics = driver.run(reorganizer=reorganizer, horizon_ms=horizon_ms)
    # The bulk load forces no log write: every flush is this run's own.
    overrides["log_flushes"] = engine.log.flush_count
    return _verified(db, BenchPoint(arm.name, metrics, overrides), tier)


def closed_loop(experiment: Experiment, arm: Arm, scale: BenchScale, x,
                twin_window_ms: Optional[float]) -> BenchPoint:
    workload = base_workload(scale, **experiment.workload)
    if experiment.sweep is not None:
        workload = workload.copy(**{experiment.x_label: x})
    horizon_ms = twin_window_ms
    if horizon_ms is not None and arm.algorithm is None:
        horizon_ms = min(horizon_ms, scale.nr_horizon_cap_ms)
    return run_arm(arm, workload, horizon_ms)


#: The paper's three-way comparison (Table 2, Figures 6-11).
PAPER_ARMS = (Arm("nr", twin_of="ira"), Arm("ira", "ira"),
              Arm("pqr", "pqr"))


# -- protocol 2: one reorganization, no concurrent load ----------------------


@dataclass
class ReorgMetrics:
    """What one reorganization did when nothing ran beside it."""

    objects_migrated: int
    parent_patches: int
    max_locks_held: int
    external_lock_acquisitions: int
    duration_ms: float

    def summary(self) -> Dict[str, float]:
        return dataclasses.asdict(self)


def reorganize_alone(experiment: Experiment, arm: Arm, scale: BenchScale,
                     batch: int, twin_window_ms) -> BenchPoint:
    """§7's migration-order question needs no user load: collection-like
    hub parents in partition 2 each reference ``fanout`` objects strided
    across partition 1, which is then reorganized in migration batches of
    ``batch`` under the arm's plan, and the reorganizer's own lock
    traffic is the result."""
    workload = base_workload(scale, **experiment.workload)
    db, _ = Database.with_workload(workload,
                                   system=SystemConfig(**arm.system))
    targets = list(db.store.live_oids(1))
    hubs, fanout = 12, workload.objects_per_partition // 16

    def add_hub_parents(txn):
        for hub in range(hubs):
            members = targets[hub::hubs][:fanout]
            txn.local_refs.update(members)
            yield from txn.create_object(2, ObjectImage.new(
                fanout, refs=members, payload=b"hub-%02d" % hub))
    db.execute(add_hub_parents)
    stats = db.run(db.reorganizer(
        1, arm.algorithm, plan=arm.options["plan"](),
        reorg_config=ReorgConfig(migration_batch_size=batch)).run())
    return _verified(db, BenchPoint(arm.name, ReorgMetrics(
        objects_migrated=stats.objects_migrated,
        parent_patches=stats.parent_patches,
        max_locks_held=stats.max_locks_held,
        external_lock_acquisitions=stats.external_lock_acquisitions,
        duration_ms=round(stats.duration_ms, 1))))


# -- protocol 3: trace / reorganize / measure ---------------------------------


def trace_reorganize_measure(experiment: Experiment, arm: Arm, scale, x,
                             twin_window_ms) -> BenchPoint:
    """(1) **trace** — run the workload for ``scale.window_ms`` with the
    tracer attached; (2) **reorganize** partition 1 under concurrent load
    with the arm's placement plan (skipped without an algorithm);
    (3) **measure** — run the workload again, with fresh walk seeds, and
    report that window's buffer-pool numbers beside the classic ones."""
    workload = scale.workload
    db, layout = Database.with_workload(workload, system=SystemConfig(
        buffer_pool_pages=scale.buffer_pool_pages, **arm.system))
    engine = db.engine

    def driver(phase_offset: int) -> WorkloadDriver:
        # Fresh thread-walk seeds per phase: the measured walks are not
        # the traced walks, so clustering has to generalize, not recall.
        return arm.driver(engine, layout,
                          workload.copy(seed=workload.seed + phase_offset))

    # The tracer rides along in every arm (it is free and provably
    # inert); only a traced placement consumes the statistics.
    tracer = engine.subscribe(ClusterTracer())
    driver(101).run(horizon_ms=scale.window_ms)
    engine.unsubscribe(tracer)

    overrides: Dict[str, object] = {}
    if arm.algorithm is not None:
        plan = arm.options["plan"](tracer.graph, workload.seed)
        stats = driver(202).run(reorganizer=db.reorganizer(
            1, arm.algorithm, plan=plan)).reorg_stats
        overrides["objects_migrated"] = stats.objects_migrated
        overrides["reorg_duration_ms"] = round(stats.duration_ms, 1)

    metrics = driver(303).run(horizon_ms=scale.window_ms)
    metrics.algorithm = arm.name
    return _verified(db, BenchPoint(arm.name, metrics, overrides))


# -- protocol 4: the open-loop serve sweep ------------------------------------


def serve_sweep(experiment: Experiment, arm: Arm, scale, servers: int,
                twin_window_ms) -> BenchPoint:
    """One arm at one server-pool width: ``scale.serve`` arrivals served
    alone, or beside a two-worker reorganizer fleet that is ungoverned
    or paced by the SLO governor."""
    workload = scale.workload.copy(mpl=servers)
    db, layout = Database.with_workload(
        workload, system=SystemConfig(**arm.system))
    engine = db.engine
    layer = ServingLayer(engine, layout, scale.serve.copy(
        servers=servers, seed=workload.seed), workload)
    fleet = governor = None
    overrides: Dict[str, object] = {"servers": servers}
    if arm.algorithm is not None:
        # A cold advisor still yields deterministic claims (rank order
        # degenerates to fragmentation + partition id).
        claims = ClusteringAdvisor(AffinityGraph()).claims(
            engine, scale.fleet_partitions,
            candidates=[pid for pid in engine.store.partition_ids()
                        if pid != 0])
        if arm.options.get("governed"):
            governor = ReorgGovernor(engine.sim, GovernorConfig())
        fleet = ReorgFleet(engine, claims,
                           FleetConfig(workers=2, algorithm=arm.algorithm),
                           governor=governor, layout=layout)
    metrics = layer.run(fleet=fleet, governor=governor)
    metrics.algorithm = arm.name
    if fleet is not None:
        overrides["partitions_reorganized"] = len(fleet.completed)
    if governor is not None:
        overrides["governor_paced"] = governor.paced
        overrides["governor_paused_ms"] = round(governor.paused_ms, 1)
        overrides["governor_breaches"] = governor.breaches
    return _verified(db, BenchPoint(arm.name, metrics, overrides))


# -- protocol 5: the dist cluster sweep ---------------------------------------


@dataclass
class DistMetrics:
    """One cluster-wide reorganization: every node reorganizes its
    partition, remote parents are patched through 2PC."""

    completion_ms: float
    reorg_ms_mean: float
    tpc_rounds: int
    remote_patches: int
    paused_ms: float

    def summary(self) -> Dict[str, float]:
        return dataclasses.asdict(self)


def dist_sweep(experiment: Experiment, arm: Arm, scale,
               fraction: Optional[float], twin_window_ms) -> BenchPoint:
    """One cluster at one remote-reference fraction; ``None`` is the
    single-node baseline — same object count, no interconnect in the
    commit path — the curve is normalized against."""
    label = experiment.x_key(fraction)
    cluster = DistCluster(
        dataclasses.replace(scale.config, node_count=1) if fraction is None
        else dataclasses.replace(scale.config, remote_ref_fraction=fraction)
    ).build()
    cluster.reorganize_all()
    if not cluster.run_until_reorgs_done():
        raise RuntimeError(f"dist bench run '{label}' did not complete")
    problems = cluster_deep_verify(cluster)
    if problems:
        raise RuntimeError(f"dist bench run '{label}' not clean: "
                           f"{problems[:3]}")
    stats = [node.reorg_stats for node in cluster.nodes]
    reorgs = [node.reorg for node in cluster.nodes]
    return BenchPoint(arm.name, DistMetrics(
        completion_ms=cluster.sim.now,
        reorg_ms_mean=sum(s.duration_ms for s in stats) / len(stats),
        tpc_rounds=sum(r.tpc_rounds for r in reorgs),
        remote_patches=sum(r.remote_patches for r in reorgs),
        paused_ms=sum(r.paused_ms for r in reorgs)),
        counters={"net_sent": cluster.net.stats.sent,
                  "net_delivered": cluster.net.stats.delivered})
