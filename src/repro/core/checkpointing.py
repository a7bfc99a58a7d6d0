"""Reorganizer-state checkpointing and resume (paper §4.4).

A system failure during reorganization never corrupts the database —
ARIES recovery undoes the in-flight migration transaction — but the work
already done (the fuzzy traversal, the migrations committed so far) would
be lost if IRA simply restarted.  §4.4's remedy: periodically checkpoint
``Traversed_Objects``/``Parent_Lists`` plus migration progress, and after
a crash *reconstruct the TRT from the log*, then continue migrating from
where the reorganizer left off.

A checkpoint costs what changed.  The first one a reorganizer
incarnation takes is a self-contained **base** (:class:`ReorgState`):
the plan — migration ``order``, ``allocated_at_traversal`` and
``trt_lsn``, the log position at which the TRT was activated, all fixed
at discovery — plus the whole parent lists, mapping and migrated set.
Every later one is a **delta** (:class:`ReorgDelta`): the ``(old, new)``
pairs committed since, replacement parent sets of only the children
whose lists were touched, and the small fields that are simply
overwritten (``log_lsn``, ``in_progress``, ``relocation_floor``).
Loading folds base + deltas back into the full state.

In the WAL each delta names the record it follows through the header's
``prev_lsn`` (a base has 0).  The chain is prefix-closed: a crash keeps
a prefix of the log and torn-tail truncation cuts at the first bad
frame, so whichever progress record survives as the latest has every
record it points back to.  A resumed or takeover reorganizer starts a
new base: its state was rolled forward from the log (migrations
committed after the predecessor's last record), which no delta of the
dead chain describes.

The TRT itself is never checkpointed (§4.4 calls that optional).  There
is one reader of reference updates, the log analyzer, and
:func:`rebuild_trt` is that analyzer run again over the log written
since ``trt_lsn`` — see its docstring for why the result, a superset of
the table the dead incarnation held, is safe.  A takeover on a live
engine (:mod:`repro.serve.fleet`) needs nothing extra: the killed
worker's TRT was deactivated as its process unwound, and whatever user
transactions logged between that and the takeover is in the replayed
suffix like everything else.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple, Union

from ..errors import ReorganizationError
from ..refs import LogAnalyzer, TemporaryReferenceTable
from ..storage.oid import Oid
from ..wal import ReorgProgressRecord, TransactionTable
from ..wal.records import KIND_REF_UPDATE

_U8 = struct.Struct("<B")
_U32 = struct.Struct("<I")
_U64 = struct.Struct("<Q")
_OID_PAIR = struct.Struct("<QQ")


@dataclass
class ReorgDelta:
    """What one reorganizer incarnation changed since its last checkpoint."""

    #: Replacement parent sets of only the children whose lists were touched.
    parents: Dict[Oid, Set[Oid]]
    #: The (old, new) pairs of the migrations committed since.
    mapping: Dict[Oid, Oid]
    log_lsn: int
    #: Two-lock extension only: the (old, new) pair mid-migration, if any.
    in_progress: Optional[Tuple[Oid, Oid]] = None
    #: Compaction floor of the partition (fresh-page allocation boundary).
    relocation_floor: int = 0

    def apply(self, state: "ReorgState") -> None:
        """Fold this delta into the checkpoint it follows, in place."""
        state.parents.update(self.parents)
        state.mapping.update(self.mapping)
        state.migrated.update(self.mapping)
        state.log_lsn = self.log_lsn
        state.in_progress = self.in_progress
        state.relocation_floor = self.relocation_floor


@dataclass
class ReorgState:
    """A full checkpoint of the reorganizer's working state: the plan
    (``order``, ``allocated_at_traversal`` and ``trt_lsn`` never change
    after discovery) plus everything a :class:`ReorgDelta` carries, from
    nothing."""

    algorithm: str
    partition_id: int
    order: List[Oid]
    parents: Dict[Oid, Set[Oid]]
    mapping: Dict[Oid, Oid]
    migrated: Set[Oid]
    allocated_at_traversal: Set[Oid]
    log_lsn: int
    in_progress: Optional[Tuple[Oid, Oid]] = None
    relocation_floor: int = 0
    #: ``log.last_lsn`` when the TRT was activated: every reference
    #: update the TRT ever noted has a larger LSN.
    trt_lsn: int = 0


class ReorgStateStore:
    """Durable store for reorganizer checkpoints (a checkpoint file)."""

    def __init__(self) -> None:
        self._state: Optional[ReorgState] = None
        self.saves = 0

    def save(self, state: Union[ReorgState, ReorgDelta]) -> None:
        """A :class:`ReorgState` starts a new base; a :class:`ReorgDelta`
        is folded into the stored one in place."""
        if isinstance(state, ReorgState):
            self._state = state
        elif self._state is None:
            raise ReorganizationError("checkpoint delta without a base")
        else:
            state.apply(self._state)
        self.saves += 1

    def load(self) -> Optional[ReorgState]:
        return self._state

    def clear(self) -> None:
        self._state = None


# -- WAL-carried checkpoints --------------------------------------------------

def _pack_oid_list(oids) -> List[bytes]:
    """Count-prefixed OIDs in the order given (pass sets sorted)."""
    parts = [_U32.pack(len(oids))]
    parts.extend(_U64.pack(oid.pack()) for oid in oids)
    return parts


def _unpack_oid_list(data: bytes, offset: int) -> Tuple[List[Oid], int]:
    (count,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    end = offset + count * _U64.size
    return [Oid.unpack(packed) for (packed,) in
            _U64.iter_unpack(data[offset:end])], end


def encode_reorg_state(state: Union[ReorgState, ReorgDelta]) -> bytes:
    """Serialize a checkpoint for a WAL progress record.

    One wire format: a delta is the changed fields; a base is the plan
    header followed by the same fields holding the whole state.
    """
    parts: List[bytes] = []
    if isinstance(state, ReorgState):
        algorithm = state.algorithm.encode("utf-8")
        parts += [_U8.pack(len(algorithm)), algorithm,
                  _U32.pack(state.partition_id), _U64.pack(state.trt_lsn)]
        parts += _pack_oid_list(state.order)
        parts += _pack_oid_list(sorted(state.allocated_at_traversal))
        parts += _pack_oid_list(sorted(state.migrated))
    parts.append(_U32.pack(len(state.parents)))
    for child in sorted(state.parents):
        parts.append(_U64.pack(child.pack()))
        parts += _pack_oid_list(sorted(state.parents[child]))
    parts.append(_U32.pack(len(state.mapping)))
    for old in sorted(state.mapping):
        parts.append(_OID_PAIR.pack(old.pack(), state.mapping[old].pack()))
    parts.append(_U64.pack(state.log_lsn))
    if state.in_progress is None:
        parts.append(_U8.pack(0))
    else:
        old, new = state.in_progress
        parts.append(_U8.pack(1))
        parts.append(_OID_PAIR.pack(old.pack(), new.pack()))
    parts.append(_U32.pack(state.relocation_floor))
    return b"".join(parts)


def _decode_changes(data: bytes, offset: int) -> dict:
    """The fields a delta and a base share, as constructor keywords."""
    (parent_count,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    parents: Dict[Oid, Set[Oid]] = {}
    for _ in range(parent_count):
        (packed,) = _U64.unpack_from(data, offset)
        plist, offset = _unpack_oid_list(data, offset + _U64.size)
        parents[Oid.unpack(packed)] = set(plist)
    (map_count,) = _U32.unpack_from(data, offset)
    offset += _U32.size
    mapping: Dict[Oid, Oid] = {}
    for _ in range(map_count):
        old, new = _OID_PAIR.unpack_from(data, offset)
        offset += _OID_PAIR.size
        mapping[Oid.unpack(old)] = Oid.unpack(new)
    (log_lsn,) = _U64.unpack_from(data, offset)
    offset += _U64.size
    (has_in_progress,) = _U8.unpack_from(data, offset)
    offset += _U8.size
    in_progress = None
    if has_in_progress:
        old, new = _OID_PAIR.unpack_from(data, offset)
        offset += _OID_PAIR.size
        in_progress = (Oid.unpack(old), Oid.unpack(new))
    (relocation_floor,) = _U32.unpack_from(data, offset)
    return dict(parents=parents, mapping=mapping, log_lsn=log_lsn,
                in_progress=in_progress, relocation_floor=relocation_floor)


def decode_reorg_delta(data: bytes) -> ReorgDelta:
    """Inverse of :func:`encode_reorg_state` for a :class:`ReorgDelta`."""
    return ReorgDelta(**_decode_changes(data, 0))


def decode_reorg_state(data: bytes) -> ReorgState:
    """Inverse of :func:`encode_reorg_state` for a :class:`ReorgState`."""
    (algo_len,) = _U8.unpack_from(data, 0)
    offset = _U8.size
    algorithm = data[offset:offset + algo_len].decode("utf-8")
    offset += algo_len
    (partition_id,) = _U32.unpack_from(data, offset)
    (trt_lsn,) = _U64.unpack_from(data, offset + _U32.size)
    order, offset = _unpack_oid_list(data, offset + _U32.size + _U64.size)
    allocated, offset = _unpack_oid_list(data, offset)
    migrated, offset = _unpack_oid_list(data, offset)
    return ReorgState(algorithm=algorithm, partition_id=partition_id,
                      trt_lsn=trt_lsn, order=order, migrated=set(migrated),
                      allocated_at_traversal=set(allocated),
                      **_decode_changes(data, offset))


class WalReorgStateStore(ReorgStateStore):
    """Reorg checkpoints carried in the WAL itself (crash-resumable §4.4).

    ``save`` appends a :class:`ReorgProgressRecord` (``tid == 0``); its
    durability rides the next group commit — the migration transaction
    whose commit follows the checkpoint flushes it along.  A checkpoint
    that misses the flushed prefix costs only re-derived work at resume
    (the roll-forward over committed migrations covers the gap), never
    correctness.  A base record has ``prev_lsn == 0``; a delta's
    ``prev_lsn`` names the record it follows.  ``clear`` appends an
    empty-state tombstone so a completed reorganization is not resumed.
    ``load`` reads the latest record's chain back from the engine's log,
    so the store works identically on the original engine and on one
    rebuilt by restart recovery.
    """

    def __init__(self, engine, partition_id: int) -> None:
        super().__init__()
        self.engine = engine
        self.partition_id = partition_id
        #: LSN of this incarnation's latest record (0: no base yet).
        self._chain_lsn = 0

    def save(self, state: Union[ReorgState, ReorgDelta]) -> None:
        base = isinstance(state, ReorgState)
        if not base and not self._chain_lsn:
            raise ReorganizationError("checkpoint delta without a base")
        self.saves += 1
        self._chain_lsn = self.engine.log.append(ReorgProgressRecord(
            0, 0 if base else self._chain_lsn,
            partition_id=self.partition_id,
            algorithm=state.algorithm if base else "",
            state=encode_reorg_state(state)))

    def clear(self) -> None:
        self._chain_lsn = 0
        self.engine.log.append(ReorgProgressRecord(
            0, 0, partition_id=self.partition_id, algorithm="", state=b""))

    def latest_record(self) -> Optional[ReorgProgressRecord]:
        """The partition's newest progress record (newest-first scan)."""
        log = self.engine.log
        for lsn in range(log.last_lsn, 0, -1):
            record = log.read(lsn)
            if isinstance(record, ReorgProgressRecord) and \
                    record.partition_id == self.partition_id:
                return record
        return None

    def load(self, latest: Optional[ReorgProgressRecord] = None
             ) -> Optional[ReorgState]:
        """Fold the chain ending at ``latest`` (default: the newest
        record) back into a full state.  Never crosses a base or a
        tombstone: both have ``prev_lsn == 0``."""
        latest = latest or self.latest_record()
        if latest is None or latest.is_tombstone:
            return None
        deltas = []
        while latest.prev_lsn:
            deltas.append(decode_reorg_delta(latest.state))
            latest = self.engine.log.read(latest.prev_lsn)
        state = decode_reorg_state(latest.state)
        for delta in reversed(deltas):
            delta.apply(state)
        return state

    def completed(self) -> bool:
        """True when the latest durable progress record is the completion
        tombstone — the reorganization finished before the crash."""
        latest = self.latest_record()
        return latest is not None and latest.is_tombstone


class _NoErt:
    """ERT sink of the TRT replay: the engine's ERTs already rolled
    forward with the pages during restart recovery."""

    @staticmethod
    def add(child: Oid, parent: Oid) -> None:
        pass

    remove = add


def rebuild_trt(engine, partition_id: int,
                from_lsn: int) -> TemporaryReferenceTable:
    """Reconstruct a partition's TRT from the log (§4.4): run the log
    written since the TRT was activated (``lsn > from_lsn``) through a
    :class:`~repro.refs.LogAnalyzer` that has only this TRT active.

    There is no record rule here — which records make tuples, which
    transactions are the reorganizer's own, what a CLR or a transaction
    END does are the live analyzer's decisions, taken again.  The
    engine's ERTs and its analyzer's counters are not touched.

    The result is a *superset* of the TRT the dead incarnation held: the
    tuples it had consumed (``pop_entry``) reappear.  That is safe.  A
    consumed tuple concerned an object mid-migration; if that migration
    committed, the object is never looked up again, and if it aborted,
    the attempt had already persisted every parent it found that way in
    the object's checkpointed parent list.  Each tuple is only ever a
    hint to lock a parent and test ``references()``, so an extra one
    costs one lock and one check — never a missed or wrong patch.
    """
    trt = TemporaryReferenceTable(
        partition_id, bucket_capacity=engine.config.ert_bucket_capacity)
    analyzer = LogAnalyzer(lambda _pid: _NoErt,
                           strict_2pl=engine.config.strict_transactions)
    analyzer.activate_trt(trt)
    for record in engine.log.records(from_lsn=from_lsn + 1):
        analyzer.process(record)
    return trt


def committed_migrations_from_log(engine, partition_id: int,
                                  from_lsn: int) -> Dict[Oid, Oid]:
    """Reconstruct old→new pairs of migrations committed after a reorg
    checkpoint (§4.4).

    Every IRA migration patches at least one parent with a system-
    transaction REF_UPDATE whose old child is the migrated object and
    whose new child is its copy, so the committed system transactions'
    reference updates carry the mapping.  The returned dict preserves
    log order (insertion order == commit order), which callers must
    respect: slot reuse lets one migration's freed source address come
    back as a later migration's target, so replaying the pairs in any
    other order (or checking addresses against the current store) gets
    aliased addresses wrong.
    """
    moved = TransactionTable.scan(engine.log).reorganizer_committed(
        partition_id)
    pairs: Dict[Oid, Oid] = {}
    for record in engine.log.records(from_lsn=from_lsn + 1):
        if record.kind != KIND_REF_UPDATE or record.tid not in moved:
            continue
        old, new = record.old_child, record.new_child
        if old is None or new is None or old == new:
            continue
        if old.partition != partition_id:
            continue
        pairs[old] = new
    return pairs


def resume_reorganization(engine, state_store: ReorgStateStore,
                          plan=None, reorg_config=None, factory=None,
                          state: Optional[ReorgState] = None):
    """Build a reorganizer that continues from the last checkpoint.

    Rolls the checkpointed state forward over the log suffix (migrations
    committed after the checkpoint, §4.4), rebuilds the TRT from the log
    since its activation, restores the relocation floor, and returns a
    ready-to-run reorganizer — or ``None`` when no checkpoint exists
    (start afresh per §4.4).

    ``factory`` overrides the algorithm-name class dispatch: called as
    ``factory(engine, partition_id, plan, reorg_config, state_store)``,
    it lets callers resume reorganizer subclasses this module does not
    know about (the distributed reorganizer in :mod:`repro.dist` carries
    node/cluster context no class-name lookup could reconstruct).
    ``state`` is the store's checkpoint when the caller has already
    loaded it (the fleet reads the log once per claim).
    """
    from .ira import IncrementalReorganizer
    from .ira_twolock import TwoLockReorganizer

    state = state or state_store.load()
    if state is None:
        return None

    # Fold migrations that committed after the checkpoint into the state.
    recovered = committed_migrations_from_log(
        engine, state.partition_id, state.log_lsn)
    for old, new in recovered.items():
        state.mapping[old] = new
        state.migrated.add(old)
        if engine.store.exists(new):
            for child in engine.store.children_of(new):
                parent_set = state.parents.get(child)
                if parent_set is not None and old in parent_set:
                    parent_set.discard(old)
                    parent_set.add(new)

    if factory is not None:
        reorganizer = factory(engine, state.partition_id, plan,
                              reorg_config, state_store)
    else:
        cls = (TwoLockReorganizer if state.algorithm == "ira-2lock"
               else IncrementalReorganizer)
        reorganizer = cls(engine, state.partition_id, plan=plan,
                          reorg_config=reorg_config, state_store=state_store)
    reorganizer.plan.prepare(engine, state.partition_id)
    engine.store.partition(state.partition_id).relocation_floor = \
        state.relocation_floor
    reorganizer.resume_from(state)

    trt = rebuild_trt(engine, state.partition_id, state.trt_lsn)
    # Register the rebuilt TRT so the live analyzer keeps extending it
    # once transactions resume; IRA's run() adopts it rather than
    # activating a fresh one.
    engine.analyzer.activate_trt(trt)
    reorganizer.trt = trt
    return reorganizer
