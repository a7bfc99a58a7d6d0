"""Presumed-abort two-phase commit for cross-node reference patches.

When the distributed reorganizer migrates an object whose parents live
on other nodes, the migration transaction (old copy deleted, new copy
created, local parents patched) and the remote parents' reference
patches must commit or abort as one unit — otherwise a crash leaves a
hub object pointing at a freed address on another node, which is exactly
the silent corruption the transparency guarantee forbids.  The
coordinator is the migrating node; each node holding affected parents is
a participant.

Protocol (textbook presumed-abort, with the reorganizer's local
migration transaction as the coordinator's branch):

1. Coordinator sends PREPARE(gid, patches) to every participant.
2. Participant: begins a system transaction, X-locks each parent,
   verifies the slot still references the old address, WAL-logs and
   applies the patch, force-logs ``TPC_PREPARE`` and votes **yes** —
   or aborts locally and votes **no** (lock timeout, stale patch).
   From the force-log on, the branch is *in-doubt*: a crash must
   neither commit nor undo it, and the patched parents stay X-locked.
3. Coordinator, on unanimous yes: force-logs ``TPC_DECISION(commit)``
   together with its own branch's COMMIT (one flush — the decision *is*
   the commit point), then pushes the decision.  Any no-vote or
   unreachable participant: pushes best-effort ABORT decisions and
   leaves its branch to the caller's abort/retry path.  Abort decisions
   need not be durable — that is the "presumed abort" part.
4. Participant applies the decision (commit/abort of its branch) and
   forgets the gid.  Decision delivery is push *and* pull: a
   participant that never hears the push queries ``tpc.resolve`` on the
   coordinator with backoff, so no branch stays in doubt forever.

Resolution answers derive only from durable or in-memory-active state:
*pending* while the coordinator still has the gid in flight (a decision
may exist in the log tail but not be durable yet — answering "commit"
off an unflushed record would let a participant commit a decision a
coordinator crash could still erase), *commit* iff a durable commit
decision exists, else *abort* (presumed).

``recover_in_doubt`` adopts the branches restart recovery reported
in-doubt: re-X-locks their patched parents (blocking only those pages),
then resolves each against the coordinator and settles — COMMIT +
END records on commit, a CLR rollback chain identical to recovery's
undo on abort.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Generator, List, Optional, Set, Tuple

from ..concurrency import LockMode, LockTimeoutError
from ..errors import NodeUnreachableError
from ..sim import Delay, Wait, WaitTimeout
from ..storage.oid import Oid
from ..wal import (BeginRecord, CommitRecord, EndRecord, RefUpdateRecord,
                   TpcDecisionRecord, TpcEndRecord, TpcPrepareRecord,
                   TransactionTable, undo_transaction)

PREPARE = "tpc.prepare"
DECISION = "tpc.decision"
RESOLVE = "tpc.resolve"

#: Chaos crash stages, in protocol order.  The hook fires on the node
#: executing the stage, between the named pair of protocol steps.
COORDINATOR_STAGES = (
    "coord-before-prepare",      # gid allocated, nothing on the wire
    "coord-after-votes",         # all yes-votes in, decision not logged
    "coord-after-decision-log",  # decision appended, NOT yet durable
    "coord-after-commit",        # decision durable, not announced
    "coord-after-decision-send", # decisions pushed, END not logged
)
PARTICIPANT_STAGES = (
    "part-before-patch",         # prepare received, nothing applied
    "part-after-patch",          # patch logged+applied, prepare not logged
    "part-after-prepare-log",    # prepare durable, vote not sent (in doubt)
    "part-on-decision",          # decision known, branch not settled
)


class _StalePatchError(Exception):
    """The parent no longer references the old address — veto."""


class RemoteCommitAbort(LockTimeoutError):
    """A 2PC round could not commit (participant veto or unreachable
    peer).  Subclasses :class:`LockTimeoutError` so it funnels into the
    reorganizer's standard abort-and-retry batch path; there is no
    single lock behind it, hence the message-only constructor."""

    def __init__(self, message: str):
        Exception.__init__(self, message)
        self.tid = -1
        self.key = None
        self.mode = None


@dataclass
class _PreparedBranch:
    txn: Any
    coordinator: int
    event: Any = None  # decision push lands here


@dataclass
class TwoPhaseStats:
    coordinated: int = 0
    commits: int = 0
    aborts: int = 0
    prepares_handled: int = 0
    yes_votes: int = 0
    no_votes: int = 0
    duplicate_prepares: int = 0
    decisions_pushed: int = 0
    resolved_by_query: int = 0
    in_doubt_recovered: int = 0
    in_doubt_committed: int = 0
    in_doubt_aborted: int = 0


class TwoPhaseManager:
    """One node's coordinator + participant roles."""

    def __init__(self, node, decision_timeout_ms: float = 60.0,
                 pending_retry_ms: float = 25.0):
        self.node = node
        self.engine = node.engine
        self.decision_timeout_ms = decision_timeout_ms
        self.pending_retry_ms = pending_retry_ms
        self.stats = TwoPhaseStats()
        #: gid -> prepared (in-doubt) participant branch.
        self.prepared: Dict[str, _PreparedBranch] = {}
        #: gid -> "commit"/"abort" memo for late duplicate messages.
        self.resolved: Dict[str, str] = {}
        #: Coordinator-side gids still in flight (resolve says "pending").
        self.active: Set[str] = set()
        #: Branches mid-settle or awaiting in-doubt resolution — popped
        #: from ``prepared`` but their commit/abort not yet durable.  The
        #: cluster's quiescence check needs this window visible.
        self.settling = 0
        self._gid_seq = 0
        #: Chaos hook: ``fault_hook(stage, gid, node_id)`` may raise
        #: (crashing the calling process) at any protocol boundary.
        self.fault_hook = None
        node.rpc.serve(PREPARE, self._handle_prepare)
        node.rpc.serve(DECISION, self._handle_decision)
        node.rpc.serve(RESOLVE, self._handle_resolve)

    def _fault(self, stage: str, gid: str) -> None:
        if self.fault_hook is not None:
            self.fault_hook(stage, gid, self.node.node_id)

    # -- coordinator ------------------------------------------------------------

    def coordinate_commit(self, txn, patches_by_node: Dict[int, List[Tuple[Oid, Oid, Oid]]]
                          ) -> Generator[Any, Any, None]:
        """Commit ``txn`` (the local migration branch) together with
        reference patches on other nodes.

        ``patches_by_node`` maps participant node id to ``(parent, old,
        new)`` triples.  On success the local transaction is committed.
        On any failure the local transaction is left ACTIVE and an
        exception propagates — the caller (the reorganizer's batch retry
        loop) owns the abort, so this method must not abort it too.
        """
        self._gid_seq += 1
        # The crash epoch keeps gids unique across restarts: a reborn
        # coordinator restarts its sequence, and a participant's memo of
        # a pre-crash gid must never answer for a post-restart round.
        gid = (f"n{self.node.node_id}/e{self.node.crash_count}"
               f"/g{self._gid_seq}")
        participants = sorted(patches_by_node)
        self.stats.coordinated += 1
        self.active.add(gid)
        try:
            self._fault("coord-before-prepare", gid)
            prepared_at: List[int] = []
            try:
                for dst in participants:
                    payload = {
                        "gid": gid,
                        "coordinator": self.node.node_id,
                        "patches": [(p.pack(), o.pack(), n.pack())
                                    for p, o, n in patches_by_node[dst]],
                    }
                    reply = yield from self.node.call(dst, PREPARE, payload)
                    if reply["vote"] != "yes":
                        yield from self._push_decisions(
                            gid, prepared_at, commit=False)
                        self.stats.aborts += 1
                        raise RemoteCommitAbort(
                            f"2PC {gid}: node {dst} voted no")
                    prepared_at.append(dst)
            except NodeUnreachableError:
                # No decision was ever logged, so presumed abort already
                # covers the unreachable side; tell the reachable
                # yes-voters now rather than making them time out.
                yield from self._push_decisions(gid, prepared_at,
                                                commit=False)
                self.stats.aborts += 1
                raise
            self._fault("coord-after-votes", gid)
            # Global commit point: the durable decision.  It rides the
            # same flush as the branch's own COMMIT record.
            txn._log(TpcDecisionRecord(txn.tid, txn.last_lsn,
                                       gid=gid, commit=True))
            self._fault("coord-after-decision-log", gid)
            yield from txn.commit()
            self._fault("coord-after-commit", gid)
            self.stats.commits += 1
        finally:
            # Until here a resolve query must answer "pending"/"abort";
            # from here the durable log answers for itself.
            self.active.discard(gid)
        yield from self._push_decisions(gid, participants, commit=True)
        self._fault("coord-after-decision-send", gid)
        # Lazy: losing this record only costs a redundant resolve answer.
        self.engine.log.append(TpcEndRecord(0, 0, gid=gid))

    def _push_decisions(self, gid: str, participants: List[int],
                        commit: bool) -> Generator[Any, Any, None]:
        """Best-effort decision push: one attempt per participant; the
        participants' pull path (resolve with backoff) is the guarantee."""
        for dst in participants:
            try:
                yield from self.node.call(
                    dst, DECISION, {"gid": gid, "commit": commit},
                    attempts=1)
                self.stats.decisions_pushed += 1
            except NodeUnreachableError:
                pass

    def _handle_resolve(self, payload: dict) -> dict:
        gid = payload["gid"]
        if gid in self.active:
            return {"decision": "pending"}
        durable = self.engine.log.flushed_lsn
        for record in self.engine.log.records(upto_lsn=durable):
            if isinstance(record, TpcDecisionRecord) and record.gid == gid:
                return {"decision": "commit" if record.commit else "abort"}
        return {"decision": "abort"}  # presumed

    # -- participant ------------------------------------------------------------

    def _handle_prepare(self, payload: dict) -> Generator[Any, Any, dict]:
        gid = payload["gid"]
        self.stats.prepares_handled += 1
        if gid in self.resolved:
            # Late duplicate of something already settled.
            self.stats.duplicate_prepares += 1
            vote = "yes" if self.resolved[gid] == "commit" else "no"
            return {"vote": vote}
        if gid in self.prepared:
            # Retried PREPARE (our first vote was lost): idempotent —
            # the patch is already applied and logged under this gid.
            self.stats.duplicate_prepares += 1
            return {"vote": "yes"}
        self._fault("part-before-patch", gid)
        patches = [(Oid.unpack(p), Oid.unpack(o), Oid.unpack(n))
                   for p, o, n in payload["patches"]]
        txn = self.engine.txns.begin(system=True)
        try:
            for parent, old, new in patches:
                yield from txn.lock(parent, LockMode.X)
                if not self.engine.store.exists(parent):
                    raise _StalePatchError(f"parent {parent} is gone")
                image = self.engine.store.read_object(parent)
                slots = image.slots_referencing(old)
                if not slots:
                    raise _StalePatchError(
                        f"{parent} no longer references {old}")
                for slot in slots:
                    yield from txn.update_ref(parent, slot, new, cpu_ms=0)
            self._fault("part-after-patch", gid)
            lsn = txn._log(TpcPrepareRecord(
                txn.tid, txn.last_lsn, gid=gid,
                coordinator=payload["coordinator"]))
            yield from self.engine.log.flush(lsn)
            self._fault("part-after-prepare-log", gid)
        except (LockTimeoutError, _StalePatchError) as exc:
            yield from txn.abort(reason=f"tpc-veto: {exc}")
            self.resolved[gid] = "abort"
            self.stats.no_votes += 1
            return {"vote": "no"}
        branch = _PreparedBranch(txn=txn, coordinator=payload["coordinator"])
        branch.event = self.engine.sim.event(name=f"tpc-decision:{gid}")
        self.prepared[gid] = branch
        self.engine.sim.spawn(
            self._decision_waiter(gid),
            name=f"n{self.node.node_id}/tpc-wait-{gid.replace('/', '_')}")
        self.stats.yes_votes += 1
        return {"vote": "yes"}

    def _handle_decision(self, payload: dict) -> dict:
        gid = payload["gid"]
        branch = self.prepared.get(gid)
        if branch is not None and branch.event is not None \
                and not branch.event.fired:
            branch.event.succeed(bool(payload["commit"]))
        # Unknown gid: already settled (or never prepared) — ack so the
        # coordinator can forget it either way.
        return {"ack": True}

    def _decision_waiter(self, gid: str) -> Generator[Any, Any, None]:
        """Wait for the pushed decision; past the timeout, pull it from
        the coordinator (retrying across unreachability) — the liveness
        half of presumed abort."""
        branch = self.prepared.get(gid)
        if branch is None:
            return
        commit: Optional[bool] = None
        while commit is None:
            try:
                commit = yield Wait(branch.event,
                                    timeout=self.decision_timeout_ms)
                break
            except WaitTimeout:
                pass
            try:
                reply = yield from self.node.call(
                    branch.coordinator, RESOLVE, {"gid": gid})
            except NodeUnreachableError:
                yield from self.node.detector.await_up(branch.coordinator)
                continue
            if reply["decision"] == "pending":
                yield Delay(self.pending_retry_ms)
                continue
            commit = reply["decision"] == "commit"
            self.stats.resolved_by_query += 1
        yield from self._settle(gid, commit)

    def _settle(self, gid: str, commit: bool) -> Generator[Any, Any, None]:
        branch = self.prepared.pop(gid, None)
        if branch is None:
            return
        self.settling += 1
        try:
            self._fault("part-on-decision", gid)
            if commit:
                yield from branch.txn.commit()
            else:
                yield from branch.txn.abort(reason="tpc-abort")
            self.resolved[gid] = "commit" if commit else "abort"
        finally:
            self.settling -= 1

    # -- restart: adopt in-doubt branches ----------------------------------------

    def recover_in_doubt(self) -> int:
        """Re-arm the branches recovery reported in-doubt.

        For each: re-acquire X locks on the patched parents (recovery
        redid the patches but a restart empties the lock table — without
        this, readers could see a patch that may yet be rolled back),
        then spawn a resolver that settles against the coordinator.
        Also closes out prepared branches that *committed* right before
        the crash but whose END record the crash ate: recovery leaves
        committed transactions alone, so nobody else would ever write
        the END that marks the branch settled.

        Returns the number of branches adopted.
        """
        self._finish_settled_branches()
        stats = self.engine.recovery_stats
        if stats is None or not stats.in_doubt_txns:
            return 0
        adopted = 0
        for tid in sorted(stats.in_doubt_txns):
            prepare = stats.in_doubt_txns[tid]
            for parent in self._patched_parents(prepare):
                self.engine.locks.try_acquire(tid, parent, LockMode.X)
            self.engine.sim.spawn(
                self._recovered_resolver(tid, prepare),
                name=(f"n{self.node.node_id}/tpc-resolve-"
                      f"{prepare.gid.replace('/', '_')}"))
            adopted += 1
            self.stats.in_doubt_recovered += 1
        return adopted

    def _finish_settled_branches(self) -> None:
        """Append the missing END for prepared branches with a durable
        COMMIT but no END (aborted branches get theirs from recovery's
        undo), and memoize their outcome for late duplicate messages."""
        log = self.engine.log
        table = TransactionTable.scan(log)
        wrote = False
        for tid, prepare in sorted(table.prepared.items()):
            if tid in table.committed:
                self.resolved.setdefault(prepare.gid, "commit")
                if tid not in table.ended:
                    log.append(EndRecord(tid, prev_lsn=0))
                    wrote = True
        if wrote:
            log.flush_now()

    def _patched_parents(self, prepare: TpcPrepareRecord) -> List[Oid]:
        parents: List[Oid] = []
        lsn = prepare.prev_lsn
        while lsn:
            record = self.engine.log.read(lsn)
            if isinstance(record, BeginRecord):
                break
            if isinstance(record, RefUpdateRecord):
                parents.append(record.parent)
            lsn = record.prev_lsn
        return parents

    def _recovered_resolver(self, tid: int,
                            prepare: TpcPrepareRecord
                            ) -> Generator[Any, Any, None]:
        gid = prepare.gid
        self.settling += 1
        commit: Optional[bool] = None
        while commit is None:
            try:
                reply = yield from self.node.call(
                    prepare.coordinator, RESOLVE, {"gid": gid})
            except NodeUnreachableError:
                yield from self.node.detector.await_up(prepare.coordinator)
                continue
            if reply["decision"] == "pending":
                yield Delay(self.pending_retry_ms)
                continue
            commit = reply["decision"] == "commit"
        log = self.engine.log
        if commit:
            log.append(CommitRecord(tid, prepare.lsn))
            log.append(EndRecord(tid, prev_lsn=0))
            log.flush_now()
            self.stats.in_doubt_committed += 1
        else:
            # The same CLR walk restart recovery uses for losers.
            undo_transaction(log, self.engine.store, tid, prepare.lsn)
            self.stats.in_doubt_aborted += 1
        self.engine.locks.release_all(tid)
        self.resolved[gid] = "commit" if commit else "abort"
        self.settling -= 1
