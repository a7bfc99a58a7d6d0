"""The bounded schedule-space explorer.

One *schedule* = one deterministic end-to-end run of the standard
workload (MPL random-walk threads + one on-line reorganization) under a
scheduler policy, followed by the full oracle suite.  The explorer runs
many schedules — the FIFO baseline, depth-bounded systematic deviations
from it, and seeded random walks — deduplicates them by trace hash, and
turns any failure into a minimized, replayable artifact file.

Entry points:

* :func:`run_schedule` — one schedule under one policy, returning a
  :class:`ScheduleResult` with the executed trace and oracle verdicts.
* :func:`explore` — the search loop (``repro explore`` in the CLI).
* :func:`replay_artifact` — re-run a serialized failure artifact; a
  fresh process reproduces the identical failure (same oracles, same
  simulated end time) because the kernel, workload and policies are all
  deterministic.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Dict, List, Optional

from ..bench import EXPERIMENTS, Arm
from ..config import SystemConfig, WorkloadConfig
from ..core import CompactionPlan
from ..database import Database
from ..mvcc import MvccTier
from ..verify import Judged
from ..workload.metrics import ExperimentMetrics
from .history import HistoryRecorder, SnapshotHistory
from .minimize import minimize_decisions
from .mutations import MUTATIONS, Mutation
from .oracles import (
    LockFootprintMonitor,
    LockHierarchyMonitor,
    OracleContext,
    OracleVerdict,
    run_mvcc_oracles,
    run_oracles,
)
from .scheduler import (
    RandomWalkPolicy,
    ReplayPolicy,
    TracingPolicy,
    decode_decisions,
    encode_decisions,
    systematic_deviations,
)

#: Simulated-time bound per schedule: a healthy run of the default
#: workload finishes far earlier; hitting the horizon means a planted
#: (or real) bug wedged the run, which the liveness verdict reports.
DEFAULT_HORIZON_MS = 600_000.0

#: Escalation threshold for hierarchical explorer runs: low enough that
#: the standard workload escalates for real (and the planted escalation
#: bugs get exercised), high enough that most locking stays fine-grained.
HIER_ESCALATE_AFTER = 3


def _arm(algorithm: str, locks: str, strict: bool) -> Arm:
    """The arm one explored schedule runs: the bench's merge arm for
    ``mvcc``, else 2PL walks against ``algorithm`` under the chosen lock
    manager (all defaults at the flat/strict point)."""
    if algorithm == "mvcc":
        return EXPERIMENTS["mvcc"].arm("mvcc")
    return Arm(algorithm, algorithm, system={
        "lock_manager": locks,
        "lock_escalate_after": HIER_ESCALATE_AFTER if locks == "hier" else 0,
        "strict_transactions": strict})


def default_workload(seed: int = 131) -> WorkloadConfig:
    """The explorer's standard workload: small enough that one schedule
    runs in well under a second, busy enough (three threads, two
    partitions, pointer-rewiring updates) to produce real contention."""
    return WorkloadConfig(num_partitions=2, objects_per_partition=85,
                          mpl=3, seed=seed)


@dataclass
class ScheduleResult(Judged):
    """One explored schedule's identity and verdicts."""

    trace: Dict[int, tuple]
    trace_hash: str
    consultations: int
    choice_points: int
    verdicts: List[OracleVerdict]
    sim_end_ms: float
    committed: int
    #: What the schedule ran under, as :func:`run_schedule` resolved it.
    algorithm: str
    locks: str
    mutation: Optional[str] = None
    mutation_triggered: bool = False


def run_schedule(policy: TracingPolicy,
                 workload: Optional[WorkloadConfig] = None,
                 algorithm: Optional[str] = None,
                 mutation: Optional[Mutation] = None,
                 locks: Optional[str] = None,
                 strict: bool = True,
                 horizon_ms: float = DEFAULT_HORIZON_MS) -> ScheduleResult:
    """Run one schedule under ``policy`` and judge it with every oracle.

    ``algorithm`` defaults to the mutation's target algorithm, else
    ``ira``.  ``locks`` selects the lock manager ("flat" or "hier",
    default the mutation's, else flat); ``strict`` selects strict vs.
    relaxed (§4.1) two-phase locking for the user transactions.  Relaxed
    runs skip the serializability oracle — short-duration read locks
    give up that guarantee by design — but keep every state oracle
    (transparency, recovery, deep verify).
    """
    workload = workload or default_workload()
    # The one place a mutation picks its algorithm and lock manager (the
    # base class holds the unmutated defaults, ira and flat).  A bug
    # lives in one manager's seams: a hier-locks bug cannot even install
    # against the flat manager.
    target = mutation or Mutation
    algorithm = algorithm or target.algorithm
    locks = "hier" if target.locks == "hier" else locks or target.locks
    arm = _arm(algorithm, locks, strict)
    db, layout = Database.with_workload(workload,
                                        system=SystemConfig(**arm.system))
    engine, sim = db.engine, db.sim
    if arm.snapshot:
        tier = MvccTier.attach(engine)
        recorded = engine.subscribe(SnapshotHistory())
    else:
        history = engine.subscribe(HistoryRecorder(sim))

    reorg = db.reorganizer(1, arm.algorithm, plan=CompactionPlan())
    if mutation is not None:
        mutation.install(engine, reorg)
    if not arm.snapshot:
        # §4.2's two-lock claim is enforced for ira-2lock; other
        # algorithms only have their peak footprint recorded.
        limit = 2 if algorithm == "ira-2lock" else None
        monitor = engine.subscribe(
            LockFootprintMonitor(engine, reorg, limit=limit))
        hierarchy = (engine.subscribe(LockHierarchyMonitor(engine))
                     if locks == "hier" else None)
        # The transparency oracle's reference point: the loaded database
        # and the log position it starts replaying user transactions from.
        initial_images = {oid: engine.store.read_object(oid).copy()
                          for oid in engine.store.all_live_oids()}
        start_lsn = engine.log.last_lsn

    metrics = ExperimentMetrics(algorithm=algorithm, mpl=workload.mpl)
    driver = arm.driver(engine, layout, workload)

    def reorg_watch():
        try:
            yield from reorg.run()
        finally:
            # Close the measurement window however the reorganizer ends
            # (normally, or by a planted bug's exception) so the threads
            # stop submitting and the queue can drain.
            driver._close(metrics)

    sim.spawn(reorg_watch(), name="reorganizer")
    for thread_id in range(workload.mpl):
        sim.spawn(driver._thread_process(thread_id, metrics),
                  name=f"thread-{thread_id}")

    sim.set_policy(policy)
    try:
        sim.run(until=horizon_ms, raise_unhandled=False)
    finally:
        sim.set_policy(None)

    hung = bool(sim._queue or sim._ready)
    unhandled = [(proc.name, f"{type(exc).__name__}: {exc}")
                 for proc, exc in sim._unhandled]
    if hung or unhandled:
        # A process died mid-transaction (or wedged the run): kill what
        # is left and roll the still-active transactions back, so the
        # state oracles judge committed state only — the planted bug's
        # committed damage, not the unrelated in-flight litter.
        driver._close(metrics)
        sim.kill_all()
        _rollback_active(engine)

    if mutation is not None:
        mutation.post_run(engine, reorg)

    if arm.snapshot:
        # Judged by the snapshot-isolation suite instead of the 2PL one:
        # there are no locks to monitor and no migration mapping to
        # translate through — relocation is invisible at the logical
        # layer by design.
        verdicts = run_mvcc_oracles(engine, recorded, unhandled)
        committed = tier.stats.commits
    else:
        verdicts = run_oracles(OracleContext(
            engine=engine, reorg=reorg,
            history=history if strict else None,
            monitor=monitor, initial_images=initial_images,
            start_lsn=start_lsn, unhandled=unhandled,
            hierarchy=hierarchy))
        committed = len(history.committed)
    if hung:
        verdicts.append(OracleVerdict(
            "liveness", False, sim.now,
            [f"run still busy at the {horizon_ms:.0f}ms horizon"]))

    return ScheduleResult(
        trace=dict(policy.decisions),
        trace_hash=policy.trace_hash(),
        consultations=policy.consultations,
        choice_points=len(policy.choice_points),
        verdicts=verdicts,
        sim_end_ms=sim.now,
        committed=committed,
        algorithm=algorithm,
        locks=locks,
        mutation=mutation.name if mutation is not None else None,
        mutation_triggered=(mutation.triggered
                            if mutation is not None else False),
    )


def _rollback_active(engine) -> None:
    sim = engine.sim
    for tid in sorted(engine.txns.active_tids()):
        sim.spawn(engine.txns.transaction(tid).abort(),
                  name=f"rollback-{tid}")
    sim.run(raise_unhandled=False)


# -- the search loop ----------------------------------------------------------

@dataclass
class ExploreReport:
    """What one ``explore()`` call covered and found."""

    schedules_run: int = 0
    distinct: int = 0
    baseline_choice_points: int = 0
    failures: List[ScheduleResult] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)
    results: List[ScheduleResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


def explore(seeds: int = 50, depth: int = 2,
            workload: Optional[WorkloadConfig] = None,
            algorithm: Optional[str] = None,
            mutation_name: Optional[str] = None,
            locks: Optional[str] = None,
            strict: bool = True,
            out_dir: Optional[str] = None,
            minimize_budget: int = 24,
            progress: Optional[Callable[[str], None]] = None
            ) -> ExploreReport:
    """Explore up to ``seeds`` distinct schedules of the workload.

    The FIFO baseline runs first; its choice points seed the systematic
    deviations (up to ``depth`` reorderings per schedule, half the
    budget), and seeded random walks fill the rest.  Duplicate executed
    traces (by hash) are not counted.  With ``out_dir`` set, every
    failure is serialized as a replayable artifact — minimized first
    when it has deviations to shrink.  ``algorithm`` and ``locks`` left
    unset follow the mutation (:func:`run_schedule` decides).
    """
    workload = workload or default_workload()
    say = progress or (lambda message: None)
    report = ExploreReport()
    seen: Dict[str, ScheduleResult] = {}

    def rerun(policy: TracingPolicy) -> ScheduleResult:
        """One schedule of this exploration, with a fresh mutation."""
        mutation = MUTATIONS[mutation_name]() if mutation_name else None
        return run_schedule(policy, workload=workload, algorithm=algorithm,
                            mutation=mutation, locks=locks, strict=strict)

    def run_one(policy: TracingPolicy, kind: str) -> Optional[ScheduleResult]:
        result = rerun(policy)
        report.schedules_run += 1
        if result.trace_hash in seen:
            return None
        seen[result.trace_hash] = result
        report.results.append(result)
        if not result.ok:
            report.failures.append(result)
            say(f"[{kind}] schedule {result.trace_hash} FAILED: "
                f"{', '.join(result.failing())}")
            if out_dir is not None:
                path = _emit_artifact(out_dir, result, rerun, workload,
                                      strict, minimize_budget, say)
                if path not in report.artifacts:
                    report.artifacts.append(path)
        return result

    baseline = TracingPolicy()
    result = run_one(baseline, "baseline")
    report.baseline_choice_points = len(baseline.choice_points)
    say(f"baseline: {baseline.consultations} consultations, "
        f"{len(baseline.choice_points)} choice points, "
        f"{result.committed if result else 0} committed txns")

    attempts = 1
    systematic_budget = 1 + max(0, seeds // 2)
    for deviation in systematic_deviations(baseline.choice_points, depth):
        if len(seen) >= systematic_budget or attempts >= 2 * seeds:
            break
        attempts += 1
        run_one(ReplayPolicy(deviation), "systematic")

    walk_seed = 0
    while len(seen) < seeds and attempts < 3 * seeds:
        attempts += 1
        walk_seed += 1
        run_one(RandomWalkPolicy(seed=walk_seed), "random-walk")

    report.distinct = len(seen)
    say(f"explored {report.distinct} distinct schedules "
        f"({report.schedules_run} runs); "
        f"{len(report.failures)} failing")
    return report


# -- failure artifacts --------------------------------------------------------

def _emit_artifact(out_dir: str, result: ScheduleResult,
                   rerun: Callable[[TracingPolicy], ScheduleResult],
                   workload: WorkloadConfig, strict: bool,
                   minimize_budget: int,
                   say: Callable[[str], None]) -> str:
    decisions = dict(result.trace)
    minimized = False
    signature = set(result.failing())
    if decisions and minimize_budget > 0:
        def still_fails(subset: Dict[int, tuple]) -> bool:
            return signature <= set(rerun(ReplayPolicy(subset)).failing())

        decisions, complete = minimize_decisions(decisions, still_fails,
                                                 budget=minimize_budget)
        minimized = True
        say(f"minimized {len(result.trace)} -> {len(decisions)} decisions"
            + ("" if complete else " (budget expired)"))
        if decisions != dict(result.trace):
            # The artifact must describe the run its decisions produce,
            # so a replay reproduces the recorded failure exactly.
            result = rerun(ReplayPolicy(decisions))

    import os
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"failure-{result.trace_hash}.json")
    with open(path, "w") as handle:
        json.dump(build_artifact(decisions, result, workload,
                                 result.algorithm, result.mutation,
                                 result.locks, strict, minimized),
                  handle, indent=2, sort_keys=True)
    say(f"wrote {path}")
    return path


def build_artifact(decisions: Dict[int, tuple], result: ScheduleResult,
                   workload: WorkloadConfig, algorithm: str,
                   mutation_name: Optional[str],
                   locks: str = "flat", strict: bool = True,
                   minimized: bool = False) -> dict:
    return {
        "version": 1,
        "workload": asdict(workload),
        "algorithm": algorithm,
        "mutation": mutation_name,
        "locks": locks,
        "strict": strict,
        "decisions": encode_decisions(decisions),
        "minimized": minimized,
        "failure": {
            "oracles": result.failing(),
            "sim_end_ms": result.sim_end_ms,
            "trace_hash": result.trace_hash,
        },
    }


def replay_artifact(path: str) -> ScheduleResult:
    """Re-run a serialized failure artifact (fresh-process reproduction)."""
    with open(path) as handle:
        data = json.load(handle)
    workload = WorkloadConfig(**data["workload"])
    if data.get("reorg_config") is not None:
        # Artifacts written before the parameter went carry the key,
        # always null: every exploration ran the default ReorgConfig.
        raise ValueError(f"{path}: artifact names a reorg_config; "
                         f"schedules run under the default one")
    mutation = (MUTATIONS[data["mutation"]]()
                if data.get("mutation") else None)
    policy = ReplayPolicy(decode_decisions(data["decisions"]))
    return run_schedule(policy, workload=workload,
                        algorithm=data["algorithm"], mutation=mutation,
                        locks=data.get("locks"),
                        strict=data.get("strict", True))
