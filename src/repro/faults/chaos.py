"""Chaos harness: sweep crash points across a reorganization run.

Every point of a sweep is one full fault/recovery cycle:

1. build a fresh workload database (deterministic for the sweep's seed),
   start an on-line reorganization with WAL-carried progress checkpoints
   (:class:`~repro.core.WalReorgStateStore`) plus MPL workload threads;
2. crash at the point's simulated time via a :class:`FaultPlan`;
3. restart-recover, assert ``verify_integrity().ok``;
4. resume the reorganization from its WAL progress records and finish it;
5. assert integrity again, that the object graph after the resumed run is
   isomorphic to the graph right after recovery (reorganization moves
   objects, it never changes what references what), that no object was
   lost or duplicated, and — by inspecting the WAL — that the resumed run
   did not re-migrate objects the pre-crash run had already moved.

The isomorphism check compares *recovered-before-resume* against
*after-resume*: the pre-crash graph is not a valid reference because
concurrent user transactions commit payload pokes and glue-edge re-points
right up to the crash, and in-flight ones are undone by recovery.

The sweep also has a **silent-corruption dimension**
(:func:`corruption_sweep`): each point additionally injects one silent
corruption — a torn checkpoint page write, a flipped bit in the latest
durable snapshot, or a torn log tail — under a mid-run checkpointer, and
the accounting demands that *every* injected corruption is either
detected-and-repaired (then the healed state must equal a
corruption-free twin run's recovery, byte-for-graph) or refused loudly
with a typed :class:`~repro.storage.errors.CorruptionError`.  Nothing in
between: a point where injected corruption goes unnoticed is a
``silent_corruption`` failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..config import ExperimentConfig, ReorgConfig, WorkloadConfig
from ..core import CompactionPlan, WalReorgStateStore, resume_reorganization
from ..core.ira_twolock import reconciled_copy_image
from ..database import Database
from ..sim import Delay
from ..storage.errors import CorruptionError
from ..storage.oid import Oid
from ..verify import corrupt_snapshot_pages, deep_verify
from ..wal import ObjDeleteRecord, TransactionTable
from ..workload import WorkloadDriver
from ..workload.metrics import ExperimentMetrics
from .injector import FaultInjector
from .plan import FaultPlan

#: Default sweep scale: small enough that a 50-point sweep stays cheap,
#: big enough that crashes land in every reorg phase.
DEFAULT_WORKLOAD = WorkloadConfig(num_partitions=2,
                                  objects_per_partition=340,
                                  mpl=4, seed=13)
DEFAULT_REORG = ReorgConfig(checkpoint_every=20)
REORG_PARTITION = 1

#: Corruption kinds :func:`corruption_sweep` cycles across its points.
#: (Live-memory bit flips are exercised by dedicated scrubber tests, not
#: the sweep: flipping a live object's bytes perturbs the concurrent
#: workload itself, which would invalidate the twin-run comparison.)
CORRUPTION_KINDS = ("torn_page", "bit_flip", "torn_log_tail")

#: Mid-run checkpoint cadence as a fraction of launch-to-crash time:
#: 0.26 puts exactly three checkpoints before the crash (at 26%, 52% and
#: 78% of the gap), so tearing the third corrupts the checkpoint
#: recovery restores from, with the second as the repair base.
_CKPT_FRACTION = 0.26


def _corruption_plan(kind: str, crash_at_ms: float, gap_ms: float,
                     seed: int) -> FaultPlan:
    """The fault plan for one corruption-sweep point.

    ``gap_ms`` is launch-to-crash simulated time; the bit flip lands at
    98% of it — after the last mid-run checkpoint, so it hits the very
    snapshot recovery will restore from.
    """
    if kind == "torn_page":
        return FaultPlan.tear_checkpoint(3, crash_at_ms, seed=seed)
    if kind == "bit_flip":
        return FaultPlan.bit_flip_then_crash(
            crash_at_ms - 0.02 * gap_ms, crash_at_ms, seed=seed)
    if kind == "torn_log_tail":
        return FaultPlan.crash_with_torn_tail(crash_at_ms, seed=seed)
    raise ValueError(
        f"unknown corruption kind {kind!r}; choose from {CORRUPTION_KINDS}")


def _corruption_checkpoint_interval(kind: str,
                                    gap_ms: float) -> Optional[float]:
    """Mid-run checkpointer cadence a corruption kind needs (page-image
    corruption needs checkpoints to corrupt and older ones to repair
    from; a torn log tail needs none)."""
    if kind in ("torn_page", "bit_flip"):
        return gap_ms * _CKPT_FRACTION
    return None


def graph_signature(engine,
                    collapse: Optional[Tuple[Oid, Oid]] = None) -> Tuple:
    """Address-free canonical form of the object graph.

    Each object contributes ``(payload, sorted child payloads)``; the
    multiset of contributions is invariant under relocation (the load
    generator gives every object a distinct payload, so this determines
    the graph up to isomorphism).

    ``collapse`` names the ``(old, new)`` pair of a two-lock migration
    interrupted between the copy's commit and the old location's delete:
    the object is durably in both places (§4.2's mixed state) and the
    resume collapses the pair back to one.  The signature then counts
    the object once — with the merged image the resumed run will install
    (:func:`~repro.core.ira_twolock.reconciled_copy_image`, the old
    location's committed state plus any updates that reached the copy
    directly) — and resolves references to either address to it.
    """
    store = engine.store
    payload = {oid: store.read_object(oid).payload
               for oid in store.all_live_oids()}
    skip = survivor = merged_children = None
    if collapse is not None:
        old, new = collapse
        merged = reconciled_copy_image(engine, old.partition, old, new)
        skip, survivor = new, old
        payload[old] = payload[new] = merged.payload
        merged_children = merged.children()
    entries = []
    for oid, body in payload.items():
        if oid == skip:
            continue
        kids = merged_children if oid == survivor else store.children_of(oid)
        children = sorted(payload.get(c, b"<dangling>") for c in kids)
        entries.append((body, tuple(children)))
    return tuple(sorted(entries))


def count_remigrations(engine, partition_id: int, from_lsn: int,
                       already_migrated_new: Set[Oid]) -> int:
    """How many already-migrated objects the post-``from_lsn`` log shows
    being migrated *again*.

    A re-migration deletes the object's post-migration address inside a
    committed reorganizer-owned transaction, so it is visible as an
    OBJ_DELETE on an address in ``already_migrated_new`` (the new
    addresses the pre-crash run had produced).  A correct resume leaves
    those addresses alone and only migrates the still-pending objects.
    """
    moved = TransactionTable.scan(engine.log).reorganizer_committed(
        partition_id)
    return sum(1 for record in engine.log.records(from_lsn=from_lsn + 1)
               if isinstance(record, ObjDeleteRecord)
               and record.tid in moved
               and record.oid in already_migrated_new)


@dataclass
class ChaosPointResult:
    """Outcome of one crash/recover/resume cycle."""

    crash_at_ms: float
    crashed: bool = False
    recovered: bool = False
    integrity_after_recovery: bool = False
    integrity_after_resume: bool = False
    isomorphic: bool = False
    objects_conserved: bool = False
    #: A WAL progress record was found and the run continued from it.
    resumed: bool = False
    #: The reorganization had already finished when the crash hit
    #: (tombstone found) — nothing to resume.
    completed_before_crash: bool = False
    migrated_before_crash: int = 0
    migrated_by_resume: int = 0
    remigrations: int = 0
    #: Corruption dimension (set only by corruption points).
    corruption: Optional[str] = None
    corruptions_injected: int = 0
    #: Detection or repair accounted for every injected corruption.
    corruption_detected: bool = False
    pages_repaired: int = 0
    pages_rebuilt: int = 0
    log_tail_truncated: bool = False
    #: Recovery refused loudly with a typed :class:`CorruptionError`
    #: instead of healing — acceptable, never silent.
    loud_failure: Optional[str] = None
    #: The healed recovery state matched the corruption-free twin run's.
    healed_matches_clean: bool = False
    #: Recovered-state graph signature (twin comparison handle).
    recovered_signature: Optional[Tuple] = field(default=None, repr=False)
    problems: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    @property
    def silent_corruption(self) -> bool:
        """Injected corruption that neither detection/repair nor a loud
        typed failure accounted for — the outcome the checksums exist to
        rule out."""
        return (self.corruptions_injected > 0 and self.loud_failure is None
                and not self.corruption_detected)

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL " + "; ".join(self.problems)
        mode = ("resumed" if self.resumed
                else "done-pre-crash" if self.completed_before_crash
                else "fresh-restart")
        corrupt = ""
        if self.corruption is not None:
            outcome = ("LOUD" if self.loud_failure
                       else "healed" if self.corruption_detected
                       else "SILENT" if self.silent_corruption
                       else "none")
            corrupt = f" {self.corruption}:{outcome}"
        return (f"crash@{self.crash_at_ms:9.1f}ms {mode:>14} "
                f"pre={self.migrated_before_crash:3d} "
                f"post={self.migrated_by_resume:3d} "
                f"remigr={self.remigrations}{corrupt} {status}")


@dataclass
class ChaosReport:
    """A full sweep's outcome."""

    algorithm: str
    seed: int
    points: List[ChaosPointResult] = field(default_factory=list)

    @property
    def all_ok(self) -> bool:
        return all(point.ok for point in self.points)

    @property
    def failures(self) -> List[ChaosPointResult]:
        return [point for point in self.points if not point.ok]

    @property
    def resume_demonstrated(self) -> bool:
        """At least one point continued real pre-crash progress without
        re-migrating anything (the §4.4 payoff)."""
        return any(p.resumed and p.migrated_before_crash > 0
                   and p.remigrations == 0 and p.ok for p in self.points)

    @property
    def corruption_points(self) -> List[ChaosPointResult]:
        return [p for p in self.points if p.corruption is not None]

    @property
    def silent_corruptions(self) -> List[ChaosPointResult]:
        return [p for p in self.corruption_points if p.silent_corruption]

    @property
    def no_silent_corruption(self) -> bool:
        """Every injected corruption was repaired-and-verified or failed
        loudly with a typed error — the sweep's hard gate."""
        points = self.corruption_points
        return bool(points) and all(
            p.ok and not p.silent_corruption for p in points)

    def summary(self) -> Dict[str, object]:
        data: Dict[str, object] = {
            "algorithm": self.algorithm,
            "seed": self.seed,
            "points": len(self.points),
            "failures": len(self.failures),
            "resumed_points": sum(1 for p in self.points if p.resumed),
            "resume_demonstrated": self.resume_demonstrated,
            "all_ok": self.all_ok,
        }
        corruption = self.corruption_points
        if corruption:
            data.update({
                "corruption_points": len(corruption),
                "corruptions_injected": sum(p.corruptions_injected
                                            for p in corruption),
                "pages_repaired": sum(p.pages_repaired for p in corruption),
                "pages_rebuilt": sum(p.pages_rebuilt for p in corruption),
                "log_tails_truncated": sum(1 for p in corruption
                                           if p.log_tail_truncated),
                "loud_failures": sum(1 for p in corruption
                                     if p.loud_failure),
                "silent_corruptions": len(self.silent_corruptions),
                "no_silent_corruption": self.no_silent_corruption,
            })
        return data


def _launch(algorithm: str, workload: WorkloadConfig,
            reorg_config: ReorgConfig,
            fault_plan: Optional[FaultPlan],
            corruption: Optional[str] = None,
            corruption_timing: Optional[str] = None,
            crash_at_ms: Optional[float] = None,
            seed: int = 0):
    """Fresh database + reorganizer + MPL threads (+ optional injector).

    ``corruption`` finalizes a gap-relative corruption plan (the sim
    clock is already past the bulk load here, so "98% of the way to the
    crash" can only be computed now).  ``corruption_timing`` spawns the
    mid-run checkpointer a corruption kind's timeline needs *without*
    injecting anything — the corruption-free twin run passes the kind
    here so both runs replay the identical timeline.
    """
    db, layout = Database.with_workload(workload)
    engine = db.engine
    plan = fault_plan
    if corruption is not None:
        plan = _corruption_plan(corruption, crash_at_ms,
                                crash_at_ms - db.sim.now, seed)
    timing = corruption_timing or corruption
    if timing is not None:
        interval = _corruption_checkpoint_interval(
            timing, crash_at_ms - db.sim.now)
        if interval:
            def checkpointer():
                while True:
                    yield Delay(interval)
                    engine.take_checkpoint()
            db.sim.spawn(checkpointer(), name="checkpointer")
    store = WalReorgStateStore(engine, REORG_PARTITION)
    reorg = db.reorganizer(REORG_PARTITION, algorithm,
                           plan=CompactionPlan(),
                           reorg_config=reorg_config, state_store=store)
    injector = None
    if plan is not None:
        injector = FaultInjector(plan, engine).attach()
    driver = WorkloadDriver(engine, layout, ExperimentConfig(workload=workload))
    metrics = ExperimentMetrics(algorithm, workload.mpl)
    reorg_proc = db.sim.spawn(reorg.run(), name="reorganizer")
    for i in range(workload.mpl):
        db.sim.spawn(driver._thread_process(i, metrics), name=f"thread-{i}")
    return db, reorg, reorg_proc, injector


def probe_run_window(algorithm: str = "ira",
                     workload: Optional[WorkloadConfig] = None,
                     reorg_config: Optional[ReorgConfig] = None
                     ) -> Tuple[float, float]:
    """Fault-free probe: the (start, end) simulated time of the reorg run.

    Determinism makes this exact: a sweep's fault-free prefix replays the
    probe's timeline, so any crash point strictly inside the window lands
    mid-reorganization."""
    workload = workload or DEFAULT_WORKLOAD
    reorg_config = reorg_config or DEFAULT_REORG
    db, reorg, reorg_proc, _ = _launch(algorithm, workload, reorg_config,
                                       fault_plan=None)
    # The closed-loop load never drains, so advance in 1 s simulated
    # slices and stop at the first one that sees the reorganizer done.
    deadline = db.sim.now + 10 * 60 * 1000.0
    while not reorg_proc.done.fired and db.sim.now < deadline:
        db.sim.run(until=min(db.sim.now + 1000.0, deadline))
    if not reorg_proc.done.fired:
        raise RuntimeError("probe run did not finish within 10 simulated "
                           "minutes; shrink the workload")
    stats = reorg_proc.result
    db.sim.kill_all()
    return stats.started_ms, stats.finished_ms


def run_chaos_point(crash_at_ms: float, algorithm: str = "ira",
                    workload: Optional[WorkloadConfig] = None,
                    reorg_config: Optional[ReorgConfig] = None,
                    seed: int = 0,
                    corruption: Optional[str] = None,
                    _twin_timing: Optional[str] = None,
                    _recovery_only: bool = False) -> ChaosPointResult:
    """One crash/recover/resume cycle; see the module docstring.

    With ``corruption`` set, the point additionally injects that silent
    corruption kind, accounts for its detection and repair, and checks
    the healed recovery against a corruption-free twin of the same
    timeline.  (``_twin_timing``/``_recovery_only`` are the twin-run
    plumbing: replay a kind's checkpointer cadence without injecting,
    and stop once the recovered state's signature is known.)
    """
    workload = workload or DEFAULT_WORKLOAD
    reorg_config = reorg_config or DEFAULT_REORG
    result = ChaosPointResult(crash_at_ms=crash_at_ms, corruption=corruption)

    plan = (None if corruption is not None
            else FaultPlan.crash_at(crash_at_ms, seed=seed))
    db, reorg, reorg_proc, injector = _launch(
        algorithm, workload, reorg_config, plan,
        corruption=corruption, corruption_timing=_twin_timing,
        crash_at_ms=crash_at_ms, seed=seed)
    db.sim.run(until=crash_at_ms + 1.0)
    if not injector.crashed:
        result.problems.append("crash trigger never fired")
        return result
    result.crashed = True
    result.migrated_before_crash = reorg.stats.objects_migrated
    result.corruptions_injected = injector.stats.corruptions_injected
    injected_pages = {(pid, page_no)
                      for _kind, pid, page_no in injector.stats.corruptions
                      if page_no >= 0}
    injected_tail = any(kind == "torn_log_tail"
                        for kind, _, _ in injector.stats.corruptions)
    if corruption is not None and result.corruptions_injected == 0:
        result.problems.append(
            f"corruption point injected nothing ({corruption})")

    try:
        recovered = Database.recover(injector.crash_image)
    except CorruptionError as exc:
        result.loud_failure = f"{type(exc).__name__}: {exc}"
        if result.corruptions_injected == 0:
            # A loud refusal is only acceptable as the answer to an
            # injected corruption; on a clean image it is a plain bug.
            result.problems.append(
                f"recovery failed loudly without injected corruption: "
                f"{result.loud_failure}")
        return result
    engine = recovered.engine
    result.recovered = True

    stats = engine.recovery_stats
    result.pages_repaired = stats.pages_repaired
    result.pages_rebuilt = stats.pages_rebuilt_from_empty
    result.log_tail_truncated = stats.log_tail_truncated
    repaired = set(stats.repaired_pages)
    leftover = {(pid, page_no)
                for _sid, pid, page_no in corrupt_snapshot_pages(engine)}
    if corruption is None:
        # A corruption-free run must neither detect nor repair anything:
        # any hit here is corruption leaking in from a bug, not a fault.
        if stats.pages_corrupt or stats.log_tail_truncated or leftover:
            result.problems.append(
                f"corruption detected in a corruption-free run: "
                f"repaired={sorted(repaired)} leftover={sorted(leftover)} "
                f"tail_truncated={stats.log_tail_truncated}")
    else:
        # Every injected corruption must be accounted for: repaired
        # during recovery, or still sitting detectably in a superseded
        # snapshot — and nothing beyond the injected set may be corrupt.
        unexpected = (leftover | repaired) - injected_pages
        if unexpected:
            result.problems.append(
                f"corrupt/repaired pages beyond the injected set: "
                f"{sorted(unexpected)}")
        undetected = injected_pages - (repaired | leftover)
        if undetected:
            result.problems.append(
                f"injected page corruption went undetected: "
                f"{sorted(undetected)}")
        if injected_tail and not stats.log_tail_truncated:
            result.problems.append("injected torn log tail not truncated")
        result.corruption_detected = (
            bool(injected_pages & (repaired | leftover))
            or (injected_tail and stats.log_tail_truncated))

    report = engine.verify_integrity()
    result.integrity_after_recovery = report.ok
    if not report.ok:
        result.problems.append(
            f"integrity after recovery: {report.problems()[:3]}")
        return result

    store = WalReorgStateStore(engine, REORG_PARTITION)
    # One log scan per point: tombstone, state and resume all derive
    # from the partition's latest progress record.
    latest = store.latest_record()
    result.completed_before_crash = latest is not None and latest.is_tombstone
    # A two-lock migration caught between copy-commit and old-delete has
    # the object durably in both places; the resume will collapse the
    # pair, so the reference state must count that object once.
    mixed_pair: Optional[Tuple[Oid, Oid]] = None
    state = store.load(latest)
    if state is not None and state.in_progress is not None:
        old, new = state.in_progress
        if engine.store.exists(old) and engine.store.exists(new):
            mixed_pair = (old, new)
    reference_signature = graph_signature(engine, collapse=mixed_pair)
    result.recovered_signature = reference_signature
    if _recovery_only:
        return result
    if corruption is not None:
        # The healed state must be indistinguishable from a recovery
        # that never saw the corruption.  The twin replays the same
        # deterministic timeline (same crash, same checkpointer
        # cadence) with nothing injected.
        twin = run_chaos_point(crash_at_ms, algorithm=algorithm,
                               workload=workload,
                               reorg_config=reorg_config, seed=seed,
                               _twin_timing=corruption,
                               _recovery_only=True)
        result.healed_matches_clean = (
            twin.recovered_signature is not None
            and twin.recovered_signature == reference_signature)
        if not result.healed_matches_clean:
            result.problems.append(
                "healed state diverges from corruption-free twin recovery"
                + (f" (twin: {twin.problems})" if twin.problems else ""))
    reference_counts = {pid: engine.store.stats(pid).live_objects
                        for pid in engine.store.partition_ids()}
    if mixed_pair is not None:
        reference_counts[mixed_pair[1].partition] -= 1
    resume_lsn = engine.log.last_lsn
    resumed = None if state is None else resume_reorganization(
        engine, store, plan=CompactionPlan(), reorg_config=reorg_config,
        state=state)
    premigrated_new: Set[Oid] = set()
    if resumed is not None:
        result.resumed = True
        # The roll-forward has already folded post-checkpoint committed
        # migrations in, so this is the true pre-crash progress.
        result.migrated_before_crash = len(resumed._migrated)
        premigrated_new = {resumed._mapping[old]
                           for old in resumed._migrated
                           if old in resumed._mapping}
        stats = recovered.run(resumed.run(), name="resumed-reorg")
        result.migrated_by_resume = stats.objects_migrated
    elif not result.completed_before_crash:
        # Crash before the first checkpoint became durable: §4.4 says
        # start afresh.
        stats = recovered.reorganize(REORG_PARTITION, algorithm=algorithm,
                                     plan=CompactionPlan(),
                                     reorg_config=reorg_config)
        result.migrated_before_crash = 0
        result.migrated_by_resume = stats.objects_migrated

    report = engine.verify_integrity()
    result.integrity_after_resume = report.ok
    if not report.ok:
        result.problems.append(
            f"integrity after resume: {report.problems()[:3]}")
    result.isomorphic = graph_signature(engine) == reference_signature
    if not result.isomorphic:
        result.problems.append("graph changed across resume")
    counts = {pid: engine.store.stats(pid).live_objects
              for pid in engine.store.partition_ids()}
    result.objects_conserved = counts == reference_counts
    if not result.objects_conserved:
        result.problems.append(
            f"object counts changed: {reference_counts} -> {counts}")
    if result.resumed:
        result.remigrations = count_remigrations(
            engine, REORG_PARTITION, resume_lsn, premigrated_new)
        if result.remigrations:
            result.problems.append(
                f"{result.remigrations} objects re-migrated after resume")
    if corruption is not None:
        # Belt and braces: after the resumed reorganization finishes,
        # every surface must still verify (superseded snapshots may
        # retain the injected damage — that is detection evidence, and
        # already reconciled against the injected set above).
        vreport = deep_verify(engine)
        residual = (vreport.live_page_problems + vreport.log_problems
                    + vreport.logical_problems)
        if residual:
            result.problems.append(
                f"deep verify after resume: {residual[:3]}")
    return result


def _sweep(points: int, algorithm: str,
           workload: Optional[WorkloadConfig],
           reorg_config: Optional[ReorgConfig], seed: int,
           kinds: Tuple[str, ...], progress) -> ChaosReport:
    """Crash at ``points`` distinct times spread across the reorg window;
    with ``kinds``, each point also injects one silent corruption (kinds
    cycle across points) under its own seed, so the corrupted
    page/bit/cut differs from point to point."""
    if points < 1:
        raise ValueError("need at least one crash point")
    workload = workload or DEFAULT_WORKLOAD
    reorg_config = reorg_config or DEFAULT_REORG
    start, end = probe_run_window(algorithm, workload, reorg_config)
    report = ChaosReport(algorithm=algorithm, seed=seed)
    span = end - start
    for index in range(points):
        crash_at = start + span * (index + 1) / (points + 1)
        result = run_chaos_point(
            crash_at, algorithm=algorithm, workload=workload,
            reorg_config=reorg_config,
            seed=seed + index if kinds else seed,
            corruption=kinds[index % len(kinds)] if kinds else None)
        report.points.append(result)
        if progress is not None:
            progress(result.describe())
    return report


def chaos_sweep(points: int = 50, algorithm: str = "ira",
                workload: Optional[WorkloadConfig] = None,
                reorg_config: Optional[ReorgConfig] = None,
                seed: int = 0,
                progress=None) -> ChaosReport:
    """Crash at ``points`` distinct times spread across the reorg window.

    ``progress`` (optional callable, e.g. ``print``) receives each
    point's one-line description as it completes.
    """
    return _sweep(points, algorithm, workload, reorg_config, seed, (),
                  progress)


def corruption_sweep(points: int = 51, algorithm: str = "ira",
                     workload: Optional[WorkloadConfig] = None,
                     reorg_config: Optional[ReorgConfig] = None,
                     seed: int = 0,
                     kinds: Tuple[str, ...] = CORRUPTION_KINDS,
                     progress=None) -> ChaosReport:
    """The chaos sweep's corruption dimension.

    Every point runs the full crash/recover/resume cycle of
    :func:`run_chaos_point` with one silent corruption injected (kinds
    cycle across points), under a mid-run checkpointer where the kind
    needs one.  The per-point seed varies so the corrupted page/bit/cut
    differs from point to point.  ``report.no_silent_corruption`` is the
    gate: every injection detected-and-healed (healed state equal to a
    corruption-free twin's recovery) or refused with a typed error.
    """
    if not kinds:
        raise ValueError("need at least one corruption kind")
    return _sweep(points, algorithm, workload, reorg_config, seed, kinds,
                  progress)
