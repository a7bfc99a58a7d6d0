"""The oracle catalogue: every invariant an explored schedule must keep.

Each oracle returns an :class:`OracleVerdict`; :func:`run_oracles` runs
the whole suite over one finished run and returns the verdicts in a
fixed order.  The oracles:

``serializability``
    Conflict-graph acyclicity over the observed read/write history
    (:mod:`repro.explore.history`).

``transparency``
    The IRA transparency guarantee, generalized from the
    graph-isomorphism test: the final database must equal a *no-reorg
    twin* translated through the migration mapping.  The twin is built
    by replay — take the pre-run image snapshot, translate every address
    through the final mapping, and apply the committed non-reorganizer
    physical log records (with their addresses translated the same way)
    in LSN order.  If reorganization is transparent, that model equals
    the real final store object-for-object; any skipped pointer rewrite,
    lost update or resurrected stale reference shows up as a mismatch.

``lock_footprint``
    The §4.2 claim, monitored live: at most two distinct objects locked
    by the reorganizer's transactions at any instant (the in-flight
    old/new pair counts once).  Enforced for ``ira-2lock``; for basic
    IRA the monitor records the peak only.  Stated in intention-lock
    terms under the hierarchical manager: only *object-level* locks
    count toward the footprint, while ancestor granule intents are
    excluded from the count but validated for consistency (every object
    lock must sit under covering intents).

``lock_hierarchy``
    Multi-granularity soundness (hierarchical manager runs only): every
    grant the lock manager makes must keep the granule tree consistent —
    object grants need covering ancestor intents, and a coarse (S/SIX/X)
    granule grant must not coexist with another transaction's
    conflicting lock on any descendant.  This is the oracle that
    convicts the planted escalation bugs.

``recovery_idempotence``
    WAL soundness: flush, recover from the durable state, recover
    *again* from the recovered engine's durable state — all three
    (live, once-recovered, twice-recovered) must have the same
    address-free graph signature, and the recovered engine must pass
    its integrity sweep.

``deep_verify``
    The existing all-surface verifier (:func:`repro.verify.deep_verify`).

``no_crash``
    No process died with an unhandled exception during the schedule.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ..engine import Probe
from ..sim import Simulator
from ..storage.oid import Oid
from ..verify import OracleVerdict, deep_verify, graph_signature
from ..wal import (
    ObjCreateRecord,
    ObjDeleteRecord,
    PayloadUpdateRecord,
    RefUpdateRecord,
    TransactionTable,
)
from .history import HistoryRecorder, SnapshotHistory, check_serializability


# -- lock footprint monitor ---------------------------------------------------

class LockFootprintMonitor(Probe):
    """Live monitor of the reorganizer's distinct-object lock footprint.

    A probe: on every grant to one of the reorganizer's transactions it
    counts the distinct objects locked across *all* of that
    reorganizer's active transactions, collapsing the in-flight old/new
    address pair to one object (§4.2 counts the migrating object once).
    ``limit`` is the violation threshold (``None`` = record the peak
    only — basic IRA makes no two-lock claim).
    """

    def __init__(self, engine, reorganizer, limit: Optional[int] = None):
        self.engine = engine
        self.reorganizer = reorganizer
        self.limit = limit
        self.peak = 0
        #: (at_ms, distinct_count, keys) per violation instant.
        self.violations: List[tuple] = []
        #: (at_ms, problem) — an object-level reorg lock observed without
        #: its covering ancestor intents (hierarchical manager only).
        self.intent_violations: List[tuple] = []

    def _reorg_tids(self) -> List[int]:
        txns = self.engine.txns
        return [tid for tid in txns.active_tids()
                if txns.transaction(tid).reorg_partition
                == self.reorganizer.partition_id]

    def lock(self, event, tid, key, mode) -> None:
        if event != "grant" or not self.engine.txns.is_active(tid):
            return
        txn = self.engine.txns.transaction(tid)
        if txn.reorg_partition != self.reorganizer.partition_id:
            return
        locks = self.engine.locks
        reorg_tids = self._reorg_tids()
        held = set()
        for reorg_tid in reorg_tids:
            held |= locks.held_keys(reorg_tid)
        in_flight = getattr(self.reorganizer, "in_flight", {})
        collapse = {new: old for old, new in in_flight.items()}
        # §4.2 counts *object-level* locks: ancestor granule intents
        # (hierarchical manager) are excluded from the footprint ...
        distinct = {collapse.get(k, k) for k in held if isinstance(k, Oid)}
        self.peak = max(self.peak, len(distinct))
        if self.limit is not None and len(distinct) > self.limit:
            self.violations.append((self.engine.sim.now, len(distinct),
                                    sorted(str(k) for k in distinct)))
        # ... but validated for consistency: every object lock a reorg
        # transaction holds must sit under covering intents.
        checker = getattr(locks, "missing_ancestor_intents", None)
        if checker is not None:
            for reorg_tid in reorg_tids:
                for problem in checker(reorg_tid):
                    self.intent_violations.append(
                        (self.engine.sim.now, problem))


# -- lock hierarchy monitor ---------------------------------------------------

class LockHierarchyMonitor(Probe):
    """Live multi-granularity soundness monitor (hierarchical manager).

    On every grant it asks the manager which hierarchy invariants the
    grant violates (``grant_problems``): an object grant needs covering
    ancestor intents, and a coarse (S/SIX/X) granule grant — i.e. an
    escalation — must not coexist with another transaction's conflicting
    lock on any descendant.  A sound manager never produces a violation;
    the planted escalation mutations do.
    """

    def __init__(self, engine):
        self.engine = engine
        self.checked = 0
        #: (at_ms, problem) per violating grant.
        self.violations: List[tuple] = []

    def lock(self, event, tid, key, mode) -> None:
        if event != "grant":
            return
        self.checked += 1
        for problem in self.engine.locks.grant_problems(tid, key, mode):
            self.violations.append((self.engine.sim.now, problem))


# -- transparency (no-reorg twin by log replay) -------------------------------

def check_transparency(engine, initial_images: Dict, start_lsn: int,
                       mapping: Dict) -> List[str]:
    """Compare the final store against the translated no-reorg model.

    ``initial_images`` is the pre-run snapshot (oid -> ObjectImage
    copy), ``start_lsn`` the log position it was taken at, ``mapping``
    the union of every migration performed.  Returns discrepancies.
    """
    translate = lambda oid: mapping.get(oid, oid)  # noqa: E731

    def translated(image):
        out = image.copy()
        for slot, child in out.refs():
            out.set_ref(slot, translate(child))
        return out

    # Which transactions belong to a reorganizer (their records ARE the
    # reorganization — the model excludes them), and which committed.
    table = TransactionTable.scan(engine.log)
    owned, committed = table.owner, table.committed

    model = {translate(oid): translated(image)
             for oid, image in initial_images.items()}
    from ..storage import ObjectImage
    for record in engine.log.records(from_lsn=start_lsn + 1):
        if record.tid in owned or record.tid not in committed:
            continue
        if isinstance(record, PayloadUpdateRecord):
            oid = translate(record.oid)
            image = model.get(oid)
            if image is None:
                return [f"model has no object at {oid} for a committed "
                        f"payload update (lsn {record.lsn})"]
            body = image.payload
            end = record.offset + len(record.after)
            image.payload = body[:record.offset] + record.after + body[end:]
        elif isinstance(record, RefUpdateRecord):
            parent = translate(record.parent)
            image = model.get(parent)
            if image is None:
                return [f"model has no object at {parent} for a committed "
                        f"ref update (lsn {record.lsn})"]
            image.set_ref(record.slot, translate(record.new_child))
        elif isinstance(record, ObjCreateRecord):
            model[translate(record.oid)] = translated(
                ObjectImage.decode(record.image))
        elif isinstance(record, ObjDeleteRecord):
            model.pop(translate(record.oid), None)

    store = engine.store
    actual = {oid: store.read_object(oid) for oid in store.all_live_oids()}
    problems: List[str] = []
    missing = sorted(set(model) - set(actual))
    extra = sorted(set(actual) - set(model))
    if missing:
        problems.append(f"objects in the no-reorg model but not the "
                        f"store: {missing[:5]}")
    if extra:
        problems.append(f"objects in the store the no-reorg model never "
                        f"made: {extra[:5]}")
    for oid in set(model) & set(actual):
        if model[oid] != actual[oid]:
            want, got = model[oid], actual[oid]
            kind = ("payload" if want.payload != got.payload else "refs")
            problems.append(
                f"{oid}: {kind} diverge from the no-reorg model "
                f"(model refs {want.children()}, store {got.children()})")
            if len(problems) >= 6:
                break
    return problems


# -- snapshot isolation (the MVCC tier's contract) ----------------------------

def check_snapshot_isolation(recorded: SnapshotHistory) -> List[str]:
    """Judge a finished MVCC run against snapshot isolation.

    Works off what a :class:`SnapshotHistory` subscribed for the whole
    run saw: the commit log (every commit's timestamp and write set, in
    commit order), each snapshot transaction's ``(loid, seen_ts)`` read
    footprint, and the GC audit trail.  Four checks:

    1. **Monotone commits** — commit timestamps strictly increase.
    2. **Consistent snapshots** — every read observed exactly the
       newest version at or below its transaction's begin timestamp
       (``0`` = the attach-time base).  A merge relocating an object
       must not perturb this: the flip keeps each consolidated
       version's original timestamp, so a reorganization that leaks
       into what readers see shows up here.
    3. **First-committer-wins** — no two committed transactions with
       overlapping write sets have overlapping ``(begin, commit)``
       intervals.
    4. **GC safety** — every pruned version's successor was already
       at or below the watermark when it was reclaimed (nothing any
       live snapshot could still see ever went away).
    """
    problems: List[str] = []
    ts_seq = [ts for ts, _ in recorded.commit_log]
    if ts_seq != sorted(set(ts_seq)):
        problems.append(f"commit timestamps not strictly increasing: "
                        f"{ts_seq[:10]}")
    commits_by_oid: Dict = {}
    for ts, writes in recorded.commit_log:
        for loid in writes:
            commits_by_oid.setdefault(loid, []).append(ts)

    stale = 0
    for entry in recorded.history:
        for loid, seen_ts in entry.reads:
            visible = [ts for ts in commits_by_oid.get(loid, [])
                       if ts <= entry.begin_ts]
            expected = max(visible) if visible else 0
            if seen_ts != expected:
                stale += 1
                if stale <= 3:
                    problems.append(
                        f"snapshot at {entry.begin_ts} read {loid} at "
                        f"version {seen_ts}, expected {expected}")
    if stale > 3:
        problems.append(f"... and {stale - 3} more stale reads")

    for entry in recorded.history:
        if not entry.committed or entry.commit_ts is None:
            continue
        for loid in entry.writes:
            clobbered = [ts for ts in commits_by_oid.get(loid, [])
                         if entry.begin_ts < ts < entry.commit_ts]
            if clobbered:
                problems.append(
                    f"lost update on {loid}: txn ({entry.begin_ts}, "
                    f"{entry.commit_ts}] committed over version(s) "
                    f"{clobbered}")

    for loid, pruned_ts, successor_ts, watermark in recorded.gc_log:
        if successor_ts > watermark:
            problems.append(
                f"GC reclaimed {loid} version {pruned_ts} while its "
                f"successor {successor_ts} was above the watermark "
                f"{watermark}")
    return problems


def check_mvcc_integrity(engine) -> List[str]:
    """Structural health of the tier plus the lineage-aware store sweep."""
    tier = engine.mvcc
    problems = list(tier.verify())
    report = engine.verify_integrity()
    if not report.ok:
        problems.extend(report.problems()[:5])
    return problems


# -- recovery idempotence -----------------------------------------------------

def check_recovery_idempotence(engine) -> List[str]:
    """Flush, recover, recover again; all three states must agree."""
    from ..engine import CrashImage, StorageEngine

    engine.log.flush_now()
    live_sig = graph_signature(engine)
    image = CrashImage(durable_log=engine.log.durable_bytes(),
                       snapshots=engine.snapshots, config=engine.config)
    once = StorageEngine.recover(image, sim=Simulator())
    problems: List[str] = []
    integrity = once.verify_integrity()
    if not integrity.ok:
        problems.append(
            f"recovered engine fails integrity: {integrity.problems()[:3]}")
    once_sig = graph_signature(once)
    if once_sig != live_sig:
        problems.append("recovered state diverges from the live engine "
                        "(some committed state never reached the WAL)")
    once.log.flush_now()
    image2 = CrashImage(durable_log=once.log.durable_bytes(),
                        snapshots=once.snapshots, config=once.config)
    twice = StorageEngine.recover(image2, sim=Simulator())
    if graph_signature(twice) != once_sig:
        problems.append("second recovery diverges from the first "
                        "(recovery is not idempotent)")
    return problems


# -- the suite ---------------------------------------------------------------

@dataclass
class OracleContext:
    """Everything the suite needs about one finished run.

    ``reorg`` and ``monitor`` accept a single object or a list — with a
    reorganizer *fleet* live, the transparency oracle translates through
    the union of every worker's migration mapping, and the footprint
    oracle pools every monitor's violations.
    """

    engine: object
    reorg: object
    history: Optional[HistoryRecorder]
    monitor: Optional[LockFootprintMonitor]
    initial_images: Dict
    start_lsn: int
    #: (process_name, repr(exception)) for every unhandled process death.
    unhandled: List[tuple] = field(default_factory=list)
    #: Skip the state-comparing oracles (run was killed mid-flight).
    state_valid: bool = True
    #: :class:`LockHierarchyMonitor` (or list of them) for hierarchical
    #: runs; ``None`` under the flat manager.
    hierarchy: Optional[LockHierarchyMonitor] = None


def _as_list(value) -> List:
    if value is None:
        return []
    if isinstance(value, (list, tuple)):
        return list(value)
    return [value]


def merged_mapping(reorgs) -> Dict:
    """The union of every reorganizer's old→new migration mapping.

    Partitions are disjoint, so the per-worker mappings never disagree
    on a key; a crashed worker's partial mapping and its successor's
    roll-forward mapping overlap only on identical pairs.
    """
    mapping: Dict = {}
    for reorg in _as_list(reorgs):
        mapping.update(getattr(reorg.stats, "mapping", {}) or {})
    return mapping


def run_oracles(ctx: OracleContext) -> List[OracleVerdict]:
    now = ctx.engine.sim.now
    verdicts: List[OracleVerdict] = []

    if ctx.history is not None:
        report = check_serializability(ctx.history)
        verdicts.append(OracleVerdict("serializability", report.ok, now,
                                      report.problems()))

    if ctx.state_valid:
        mapping = merged_mapping(ctx.reorg)
        problems = check_transparency(ctx.engine, ctx.initial_images,
                                      ctx.start_lsn, mapping)
        verdicts.append(OracleVerdict("transparency", not problems, now,
                                      problems))

    monitors = _as_list(ctx.monitor)
    if monitors:
        violations = sorted(
            (v for monitor in monitors for v in monitor.violations),
            key=lambda v: v[0])
        intent_violations = sorted(
            (v for monitor in monitors
             for v in getattr(monitor, "intent_violations", ())),
            key=lambda v: v[0])
        details = [f"{count} distinct reorg locks at {at:.1f}ms: {keys}"
                   for at, count, keys in violations[:3]]
        details += [f"at {at:.1f}ms: {problem}"
                    for at, problem in intent_violations[:3]]
        first = violations or intent_violations
        at = first[0][0] if first else now
        verdicts.append(OracleVerdict(
            "lock_footprint", not violations and not intent_violations,
            at, details))

    hier_monitors = _as_list(ctx.hierarchy)
    if hier_monitors:
        violations = sorted(
            (v for monitor in hier_monitors for v in monitor.violations),
            key=lambda v: v[0])
        details = [f"at {at:.1f}ms: {problem}"
                   for at, problem in violations[:5]]
        at = violations[0][0] if violations else now
        verdicts.append(OracleVerdict("lock_hierarchy", not violations, at,
                                      details))

    if ctx.state_valid:
        problems = check_recovery_idempotence(ctx.engine)
        verdicts.append(OracleVerdict("recovery_idempotence", not problems,
                                      now, problems))

        report = deep_verify(ctx.engine)
        verdicts.append(OracleVerdict("deep_verify", report.ok, now,
                                      report.problems()[:5]))

    crashes = [f"{name}: {exc}" for name, exc in ctx.unhandled]
    verdicts.append(OracleVerdict("no_crash", not crashes, now, crashes[:5]))
    return verdicts


def run_mvcc_oracles(engine, recorded: SnapshotHistory,
                     unhandled: List[tuple]) -> List[OracleVerdict]:
    """The suite for a snapshot-transaction run ``recorded`` throughout:
    snapshot isolation and tier/store health instead of the 2PL oracles."""
    now = engine.sim.now
    problems = check_snapshot_isolation(recorded)
    verdicts = [OracleVerdict("snapshot_isolation", not problems, now,
                              problems)]
    problems = check_mvcc_integrity(engine)
    verdicts.append(OracleVerdict("mvcc_integrity", not problems, now,
                                  problems[:5]))
    crashes = [f"{name}: {exc}" for name, exc in unhandled]
    verdicts.append(OracleVerdict("no_crash", not crashes, now, crashes[:5]))
    return verdicts
