"""Checkpoints: durable snapshots paired with CHECKPOINT log records.

The experiments keep the database memory-resident (paper §5.3), so the
"disk image" a crash leaves behind is the flushed log plus whatever
checkpoints were taken.  A checkpoint here is *sharp*: a consistent copy
of all pages, the ERTs, and the transaction counter, taken atomically in
simulated time and named by a snapshot id recorded in the log.

The paper discusses the spectrum for the ERT (§4.4): log it, reconstruct
it at restart with a full scan, or checkpoint it and roll forward —
we implement the checkpoint-and-roll-forward option (the intermediate
solution), with full reconstruction also available as a fallback.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class SnapshotStore:
    """Named durable snapshots (stands in for checkpoint files on disk).

    Snapshots survive crashes; recovery loads the one referenced by the
    last CHECKPOINT record found in the durable log.
    """

    def __init__(self) -> None:
        self._snapshots: Dict[int, Dict[str, Any]] = {}
        self._next_id = 1

    def save(self, payload: Dict[str, Any]) -> int:
        snapshot_id = self._next_id
        self._next_id += 1
        self._snapshots[snapshot_id] = payload
        return snapshot_id

    def load(self, snapshot_id: int) -> Dict[str, Any]:
        try:
            return self._snapshots[snapshot_id]
        except KeyError:
            raise KeyError(f"no snapshot {snapshot_id}") from None

    def has(self, snapshot_id: int) -> bool:
        return snapshot_id in self._snapshots

    def items(self):
        """``(snapshot_id, payload)`` pairs, oldest first."""
        return [(sid, self._snapshots[sid]) for sid in sorted(self._snapshots)]

    def latest(self) -> Optional[int]:
        """The newest snapshot id, or ``None`` when empty."""
        return max(self._snapshots) if self._snapshots else None

    def copy(self) -> "SnapshotStore":
        """A by-value copy: same ids, private payloads."""
        clone = SnapshotStore()
        clone._snapshots = {sid: _copy_payload(payload)
                            for sid, payload in self._snapshots.items()}
        clone._next_id = self._next_id
        return clone

    def __len__(self) -> int:
        return len(self._snapshots)


def _copy_payload(payload: Dict[str, Any]) -> Dict[str, Any]:
    """A checkpoint payload copied down to its per-page state dicts.

    That is as deep as anything writes: a torn checkpoint write and a
    durable bit flip (``repro.faults``) assign ``state["buf"]`` inside a
    stored snapshot, and restore copies whatever it takes from a page
    state.  The page ``bytes`` and slot entries are immutable and shared.
    """
    store = payload["store"]
    return {
        **payload,
        "store": {**store, "partitions": {
            pid: {**part, "pages": {no: dict(state) for no, state
                                    in part["pages"].items()}}
            for pid, part in store["partitions"].items()}},
        "erts": {pid: list(entries)
                 for pid, entries in payload["erts"].items()},
    }
