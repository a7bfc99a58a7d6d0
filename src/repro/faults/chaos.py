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

Every gate answers as one :class:`~repro.verify.OracleVerdict` on the
point's ``verdicts`` list, the vocabulary the schedule explorer's
oracles use: ``crashed``, ``recovered``, ``corruption_accounted``,
``integrity_after_recovery``, ``integrity_after_resume``,
``isomorphic``, ``objects_conserved`` and ``no_remigration``.

The sweep also has a **silent-corruption dimension** (``kinds`` of
:func:`chaos_sweep`): each point additionally injects one silent
corruption — a torn checkpoint page write, a flipped bit in the latest
durable snapshot, or a torn log tail — under a mid-run checkpointer, and
the accounting demands that *every* injected corruption is either
detected-and-repaired (then the healed state must equal a
corruption-free twin run's recovery, byte-for-graph) or refused loudly
with a typed :class:`~repro.storage.errors.CorruptionError`.  Nothing in
between: a point where injected corruption goes unnoticed is a
``silent_corruption`` failure.  A corruption point adds the verdicts
``corruption_injected``, ``healed_matches_clean`` and ``deep_verify``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

from ..config import ExperimentConfig, ReorgConfig, WorkloadConfig
from ..core import CompactionPlan, WalReorgStateStore, resume_reorganization
from ..database import Database
from ..sim import Delay
from ..storage.errors import CorruptionError
from ..storage.oid import Oid
from ..verify import (Judged, OracleVerdict, corrupt_snapshot_pages,
                      deep_verify, graph_signature)
from ..wal import TransactionTable
from ..wal.records import KIND_OBJ_DELETE
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

#: Corruption kinds a corruption sweep cycles across its points.
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
    log = engine.log
    moved = TransactionTable.scan(log).reorganizer_committed(partition_id)
    return sum(1 for lsn, kind, tid in log.headers(from_lsn=from_lsn + 1)
               if kind == KIND_OBJ_DELETE and tid in moved
               and log.read(lsn).oid in already_migrated_new)


@dataclass
class ChaosPointResult(Judged):
    """Outcome of one crash/recover/resume cycle: what happened, and one
    verdict per gate it was judged by."""

    crash_at_ms: float
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
    #: Detection or repair caught at least one injected corruption.
    corruption_detected: bool = False
    pages_repaired: int = 0
    pages_rebuilt: int = 0
    log_tail_truncated: bool = False
    #: Recovery refused loudly with a typed :class:`CorruptionError`
    #: instead of healing — acceptable, never silent.
    loud_failure: Optional[str] = None
    #: Recovered-state graph signature (twin comparison handle).
    recovered_signature: Optional[Tuple] = field(default=None, repr=False)
    verdicts: List[OracleVerdict] = field(default_factory=list)

    def judge(self, name: str, ok: bool, *details: str) -> bool:
        """Record one gate's verdict; returns whether it passed."""
        self.verdicts.append(
            OracleVerdict.gate(name, ok, self.crash_at_ms, *details))
        return ok

    @property
    def silent_corruption(self) -> bool:
        """Injected corruption that neither detection/repair nor a loud
        typed failure accounted for — the outcome the checksums exist to
        rule out."""
        return (self.corruptions_injected > 0 and self.loud_failure is None
                and not self.corruption_detected)

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL " + ", ".join(self.failing())
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
                "silent_corruptions": sum(1 for p in corruption
                                          if p.silent_corruption),
                "no_silent_corruption": self.no_silent_corruption,
            })
        return data


def _launch(algorithm: str, workload: WorkloadConfig,
            reorg_config: ReorgConfig,
            corruption: Optional[str] = None,
            corruption_timing: Optional[str] = None,
            crash_at_ms: Optional[float] = None,
            seed: int = 0):
    """Fresh database + reorganizer + MPL threads (+ an injector that
    crashes at ``crash_at_ms``, when given).

    ``corruption`` finalizes a gap-relative corruption plan (the sim
    clock is already past the bulk load here, so "98% of the way to the
    crash" can only be computed now).  ``corruption_timing`` spawns the
    mid-run checkpointer a corruption kind's timeline needs *without*
    injecting anything — the corruption-free twin run passes the kind
    here so both runs replay the identical timeline.
    """
    db, layout = Database.with_workload(workload)
    engine = db.engine
    plan = None
    if corruption is not None:
        plan = _corruption_plan(corruption, crash_at_ms,
                                crash_at_ms - db.sim.now, seed)
    elif crash_at_ms is not None:
        plan = FaultPlan.crash_at(crash_at_ms, seed=seed)
    if (corruption_timing or corruption) in ("torn_page", "bit_flip"):
        # Page-image corruption needs checkpoints to corrupt and older
        # ones to repair from; a torn log tail needs none.
        interval = (crash_at_ms - db.sim.now) * _CKPT_FRACTION

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
    db, _, reorg_proc, _ = _launch(algorithm, workload, reorg_config)
    try:
        # The closed-loop load never drains, so advance in 1 s simulated
        # slices and stop at the first one that sees the reorganizer done.
        deadline = db.sim.now + 10 * 60 * 1000.0
        while not reorg_proc.done.fired and db.sim.now < deadline:
            db.sim.run(until=min(db.sim.now + 1000.0, deadline))
        if not reorg_proc.done.fired:
            raise RuntimeError("probe run did not finish within 10 "
                               "simulated minutes; shrink the workload")
        stats = reorg_proc.result
        return stats.started_ms, stats.finished_ms
    finally:
        db.crash()      # not a bare kill: it drops the load's open txns


def _run_to_crash(result: ChaosPointResult, algorithm: str,
                  workload: WorkloadConfig, reorg_config: ReorgConfig,
                  seed: int, corruption: Optional[str],
                  twin_timing: Optional[str]):
    """Launch the point's database and run it into its crash.

    Judges ``crashed`` and reads what the point needs of the launched
    run into ``result``; returns the crash image and the injected
    corruptions, or ``None`` when the crash never fired.  The launched
    database is released before this returns, so recovery never builds
    the next one beside it.
    """
    db, reorg, _, injector = _launch(
        algorithm, workload, reorg_config,
        corruption=corruption, corruption_timing=twin_timing,
        crash_at_ms=result.crash_at_ms, seed=seed)
    try:
        db.sim.run(until=result.crash_at_ms + 1.0)
    finally:
        db.sim.kill_all()
    if not result.judge("crashed", injector.crashed,
                        "crash trigger never fired"):
        return None
    result.migrated_before_crash = reorg.stats.objects_migrated
    result.corruptions_injected = injector.stats.corruptions_injected
    return injector.crash_image, injector.stats.corruptions


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
    crashed = _run_to_crash(result, algorithm, workload, reorg_config, seed,
                            corruption, _twin_timing)
    if crashed is None:
        return result
    image, corruptions = crashed
    injected_pages = {(pid, page_no) for _kind, pid, page_no in corruptions
                      if page_no >= 0}
    injected_tail = any(kind == "torn_log_tail"
                        for kind, _, _ in corruptions)
    if corruption is not None:
        result.judge("corruption_injected", result.corruptions_injected > 0,
                     f"corruption point injected nothing ({corruption})")

    try:
        recovered = Database.recover(image)
    except CorruptionError as exc:
        result.loud_failure = f"{type(exc).__name__}: {exc}"
        # A loud refusal accounts for an injected corruption; on a clean
        # image it is a plain bug.
        accounted = result.corruptions_injected > 0
        result.judge("corruption_accounted" if accounted else "recovered",
                     accounted,
                     f"recovery failed loudly without injected corruption: "
                     f"{result.loud_failure}")
        return result
    result.judge("recovered", True)
    try:
        _judge_recovered(result, recovered, algorithm, workload,
                         reorg_config, seed, injected_pages, injected_tail,
                         _recovery_only)
    finally:
        recovered.sim.kill_all()
    return result


def _judge_recovered(result: ChaosPointResult, recovered: Database,
                     algorithm: str, workload: WorkloadConfig,
                     reorg_config: ReorgConfig, seed: int,
                     injected_pages: Set[Tuple[int, int]],
                     injected_tail: bool, recovery_only: bool) -> None:
    """The gates after a successful restart: corruption accounting,
    integrity, then (unless ``recovery_only``) the twin comparison, the
    resume and the resumed run's gates, each judged on ``result``."""
    engine = recovered.engine
    corruption = result.corruption

    stats = engine.recovery_stats
    result.pages_repaired = stats.pages_repaired
    result.pages_rebuilt = stats.pages_rebuilt_from_empty
    result.log_tail_truncated = stats.log_tail_truncated
    repaired = set(stats.repaired_pages)
    leftover = {(pid, page_no)
                for _sid, pid, page_no in corrupt_snapshot_pages(engine)}
    problems: List[str] = []
    if corruption is None:
        # A corruption-free run must neither detect nor repair anything:
        # any hit here is corruption leaking in from a bug, not a fault.
        if stats.pages_corrupt or stats.log_tail_truncated or leftover:
            problems.append(
                f"corruption detected in a corruption-free run: "
                f"repaired={sorted(repaired)} leftover={sorted(leftover)} "
                f"tail_truncated={stats.log_tail_truncated}")
    else:
        # Every injected corruption must be accounted for: repaired
        # during recovery, or still sitting detectably in a superseded
        # snapshot — and nothing beyond the injected set may be corrupt.
        unexpected = (leftover | repaired) - injected_pages
        if unexpected:
            problems.append(
                f"corrupt/repaired pages beyond the injected set: "
                f"{sorted(unexpected)}")
        undetected = injected_pages - (repaired | leftover)
        if undetected:
            problems.append(
                f"injected page corruption went undetected: "
                f"{sorted(undetected)}")
        if injected_tail and not stats.log_tail_truncated:
            problems.append("injected torn log tail not truncated")
        result.corruption_detected = (
            bool(injected_pages & (repaired | leftover))
            or (injected_tail and stats.log_tail_truncated))
    result.judge("corruption_accounted", not problems, *problems)

    report = engine.verify_integrity()
    if not result.judge("integrity_after_recovery", report.ok,
                        f"integrity after recovery: {report.problems()[:3]}"):
        return

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
    if recovery_only:
        result.recovered_signature = reference_signature
        return
    if corruption is not None:
        # The healed state must be indistinguishable from a recovery
        # that never saw the corruption.  The twin replays the same
        # deterministic timeline (same crash, same checkpointer
        # cadence) with nothing injected.
        twin = run_chaos_point(result.crash_at_ms, algorithm=algorithm,
                               workload=workload,
                               reorg_config=reorg_config, seed=seed,
                               _twin_timing=corruption,
                               _recovery_only=True)
        result.judge("healed_matches_clean",
                     twin.recovered_signature == reference_signature,
                     "healed state diverges from corruption-free twin "
                     "recovery" + (f" (twin failed: {twin.failing()})"
                                   if not twin.ok else ""))
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
    result.judge("integrity_after_resume", report.ok,
                 f"integrity after resume: {report.problems()[:3]}")
    result.judge("isomorphic", graph_signature(engine) == reference_signature,
                 "graph changed across resume")
    counts = {pid: engine.store.stats(pid).live_objects
              for pid in engine.store.partition_ids()}
    result.judge("objects_conserved", counts == reference_counts,
                 f"object counts changed: {reference_counts} -> {counts}")
    if result.resumed:
        result.remigrations = count_remigrations(
            engine, REORG_PARTITION, resume_lsn, premigrated_new)
    result.judge("no_remigration", not result.remigrations,
                 f"{result.remigrations} objects re-migrated after resume")
    if corruption is not None:
        # Belt and braces: after the resumed reorganization finishes,
        # every surface must still verify (superseded snapshots may
        # retain the injected damage — that is detection evidence, and
        # already reconciled against the injected set above).
        vreport = deep_verify(engine)
        residual = (vreport.live_page_problems + vreport.log_problems
                    + vreport.logical_problems)
        result.judge("deep_verify", not residual,
                     f"deep verify after resume: {residual[:3]}")


def chaos_sweep(points: int = 50, algorithm: str = "ira",
                workload: Optional[WorkloadConfig] = None,
                reorg_config: Optional[ReorgConfig] = None,
                seed: int = 0,
                progress=None,
                kinds: Tuple[str, ...] = ()) -> ChaosReport:
    """Crash at ``points`` distinct times spread across the reorg window.

    With ``kinds`` (e.g. :data:`CORRUPTION_KINDS`), every point also
    injects one silent corruption — kinds cycle across points — under a
    mid-run checkpointer where the kind needs one, and under its own
    seed, so the corrupted page/bit/cut differs from point to point.
    ``report.no_silent_corruption`` is then the gate: every injection
    detected-and-healed (healed state equal to a corruption-free twin's
    recovery) or refused with a typed error.

    ``progress`` (optional callable, e.g. ``print``) receives each
    point's one-line description as it completes.
    """
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
