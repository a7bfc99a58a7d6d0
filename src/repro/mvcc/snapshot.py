"""Snapshot transactions over the MVCC tier.

The user-transaction API of the versioned read path: a begin-timestamp
snapshot, lock-free reads, buffered writes, and first-committer-wins
validation at commit.  The shape mirrors :class:`repro.txn.Transaction`
— generator methods driven by the simulation kernel, the same CPU cost
model per object access — but no entry here ever touches the lock
manager, which is the whole point: a reader can never wait on the
reorganizer, because there is nothing to wait *on*.
"""

from __future__ import annotations

from typing import Any, Dict, Generator, List, Optional, Tuple

from ..errors import TransactionStateError, WriteConflictError
from ..storage import ObjectImage
from ..storage.oid import Oid
from .versions import MvccTier, TxnHistory


class SnapshotTransaction:
    """One snapshot-isolated transaction.  Create via ``begin()``."""

    def __init__(self, tier: MvccTier):
        self.tier = tier
        self.engine = tier.engine
        self.begin_ts = tier.begin_snapshot()
        self.commit_ts: Optional[int] = None
        self.active = True
        #: Buffered after-images, applied atomically at commit.
        self._writes: Dict[Oid, ObjectImage] = {}
        #: ``(loid, version ts read)`` — oracle food.
        self._reads: List[Tuple[Oid, int]] = []

    # -- reads -------------------------------------------------------------------

    def read(self, loid: Oid,
             for_update: bool = False) -> Generator[Any, Any, ObjectImage]:
        """Snapshot read; ``for_update`` only affects the CPU charge (the
        2PL API's lock-mode distinction has no MVCC counterpart)."""
        self._check_active()
        cfg = self.engine.config
        cpu_ms = cfg.cpu_object_access_ms
        if for_update:
            cpu_ms += cfg.cpu_update_extra_ms
        yield from self.engine.cpu.use(cpu_ms)
        own = self._writes.get(loid)
        if own is not None:
            return own.copy()
        image, seen_ts = yield from self.tier.read(loid, self.begin_ts)
        self._reads.append((loid, seen_ts))
        return image

    # -- buffered writes ---------------------------------------------------------

    def write_payload(self, loid: Oid, offset: int,
                      data: bytes) -> Generator[Any, Any, None]:
        image = yield from self._writable(loid)
        payload = bytearray(image.payload)
        payload[offset:offset + len(data)] = data
        image.payload = bytes(payload)

    def update_ref(self, loid: Oid, slot: int,
                   child: Optional[Oid]) -> Generator[Any, Any, None]:
        image = yield from self._writable(loid)
        image.set_ref(slot, child)

    def _writable(self, loid: Oid) -> Generator[Any, Any, ObjectImage]:
        """The buffered image for ``loid``, faulting it in from the
        snapshot on first touch."""
        self._check_active()
        image = self._writes.get(loid)
        if image is None:
            image, seen_ts = yield from self.tier.read(loid, self.begin_ts)
            self._reads.append((loid, seen_ts))
            self._writes[loid] = image
        return image

    # -- outcome -----------------------------------------------------------------

    def commit(self) -> Generator[Any, Any, None]:
        self._check_active()
        self.active = False
        try:
            if self._writes:
                self.commit_ts = yield from self.tier.commit(
                    self._writes, self.begin_ts)
            self._record(committed=True)
        except WriteConflictError:
            self._record(committed=False)
            raise
        finally:
            self.tier.end_snapshot(self.begin_ts)

    def abort(self) -> Generator[Any, Any, None]:
        """Discard the buffered writes (nothing was published or logged,
        so there is no undo work — the generator shape matches the 2PL
        API for drop-in use in retry loops)."""
        if not self.active:
            return
        self.active = False
        self._writes.clear()
        self._record(committed=False)
        self.tier.end_snapshot(self.begin_ts)
        return
        yield  # pragma: no cover — keeps this a generator

    def _record(self, committed: bool) -> None:
        if self.tier.cfg.record_history:
            self.tier.history.append(TxnHistory(
                begin_ts=self.begin_ts,
                commit_ts=self.commit_ts,
                reads=list(self._reads),
                writes=tuple(sorted(self._writes)),
                committed=committed))

    def _check_active(self) -> None:
        if not self.active:
            raise TransactionStateError(
                "snapshot transaction is no longer active")


def begin_snapshot_txn(engine) -> SnapshotTransaction:
    """Start a snapshot transaction on the engine's attached tier."""
    tier = engine.mvcc
    if tier is None:
        raise TransactionStateError("engine has no attached MVCC tier")
    return SnapshotTransaction(tier)
