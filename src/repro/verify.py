"""Deep integrity verification: every durability surface, one verdict.

``deep_verify`` sweeps all four places corruption can hide in this
system and returns a structured report:

1. **Live pages** — checksum + slotted-page invariants of every page of
   every partition (what the background scrubber checks incrementally).
2. **Durable snapshots** — the per-page checksums recorded inside every
   checkpoint payload (what restart recovery would trip over).
3. **The log** — every durable record must decode; a frame that scans
   but does not parse is corruption, not a format quirk.
4. **Logical integrity** — no dangling references, ERTs exactly mirror
   the cross-partition references (``StorageEngine.verify_integrity``).

The ``repro verify`` CLI wraps this and exits non-zero on any finding,
so chaos sweeps and CI can treat integrity as a hard gate.

The module also holds what every harness judges with:
:class:`OracleVerdict`, the one answer shape of an explored schedule's
oracles, a chaos point's gates and a distributed scenario's gates; and
:func:`graph_signature`, the address-free graph form they compare.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from .core.ira_twolock import reconciled_copy_image
from .storage import LogCorruptionError
from .storage.errors import StorageError
from .storage.oid import Oid
from .storage.page import snapshot_checksum_ok


@dataclass
class OracleVerdict:
    """One gate's answer for one judged run (``at_ms``: the simulated
    time it was judged at)."""

    name: str
    ok: bool
    at_ms: float
    details: List[str] = field(default_factory=list)

    @classmethod
    def gate(cls, name: str, ok: bool, at_ms: float,
             *details: str) -> "OracleVerdict":
        """A pass/fail verdict that keeps ``details`` (why it failed)
        only when it fails."""
        return cls(name, ok, at_ms, [] if ok else list(details))

    def describe(self) -> str:
        status = "ok" if self.ok else "VIOLATION"
        extra = f" ({self.details[0]})" if self.details and not self.ok else ""
        return f"{self.name:>22}: {status}{extra}"


class Judged:
    """A judged run's answer: ``ok`` and ``failing()`` over its
    ``verdicts`` list (a schedule, a chaos point, a dist scenario)."""

    verdicts: List[OracleVerdict]

    @property
    def ok(self) -> bool:
        return all(v.ok for v in self.verdicts)

    def failing(self) -> List[str]:
        return [v.name for v in self.verdicts if not v.ok]


def graph_signature(*engines,
                    collapse: Optional[Tuple[Oid, Oid]] = None) -> Tuple:
    """Address-free canonical form of the object graph held by
    ``engines`` (one engine, or every node of a cluster).

    Each object contributes ``(payload, sorted child payloads)``; the
    multiset of contributions is invariant under relocation, local or
    cross-node (the load generator gives every object a distinct
    payload, so this determines the graph up to isomorphism).

    ``collapse`` names the ``(old, new)`` pair of a two-lock migration
    interrupted between the copy's commit and the old location's delete:
    the object is durably in both places (§4.2's mixed state) and the
    resume collapses the pair back to one.  The signature then counts
    the object once — with the merged image the resumed run will install
    (:func:`~repro.core.ira_twolock.reconciled_copy_image`, the old
    location's committed state plus any updates that reached the copy
    directly) — and resolves references to either address to it.
    """
    owner = {}
    payload = {}
    for engine in engines:
        for oid in engine.store.all_live_oids():
            owner[oid] = engine
            payload[oid] = engine.store.read_object(oid).payload
    skip = survivor = merged_children = None
    if collapse is not None:
        old, new = collapse
        merged = reconciled_copy_image(owner[old], old.partition, old, new)
        skip, survivor = new, old
        payload[old] = payload[new] = merged.payload
        merged_children = merged.children()
    entries = []
    for oid, body in payload.items():
        if oid == skip:
            continue
        kids = (merged_children if oid == survivor
                else owner[oid].store.children_of(oid))
        children = sorted(payload.get(c, b"<dangling>") for c in kids)
        entries.append((body, tuple(children)))
    return tuple(sorted(entries))


@dataclass
class VerifyReport:
    """Everything ``deep_verify`` found, by surface."""

    live_page_problems: List[str] = field(default_factory=list)
    snapshot_page_problems: List[str] = field(default_factory=list)
    log_problems: List[str] = field(default_factory=list)
    logical_problems: List[str] = field(default_factory=list)
    pages_checked: int = 0
    snapshot_pages_checked: int = 0
    log_records_checked: int = 0

    @property
    def ok(self) -> bool:
        return not (self.live_page_problems or self.snapshot_page_problems
                    or self.log_problems or self.logical_problems)

    def problems(self) -> List[str]:
        return (self.live_page_problems + self.snapshot_page_problems
                + self.log_problems + self.logical_problems)

    def summary(self) -> Dict[str, object]:
        return {
            "ok": self.ok,
            "pages_checked": self.pages_checked,
            "snapshot_pages_checked": self.snapshot_pages_checked,
            "log_records_checked": self.log_records_checked,
            "problems": len(self.problems()),
        }

    def describe(self) -> str:
        lines = [
            f"live pages      {self.pages_checked:6d} checked, "
            f"{len(self.live_page_problems)} bad",
            f"snapshot pages  {self.snapshot_pages_checked:6d} checked, "
            f"{len(self.snapshot_page_problems)} bad",
            f"log records     {self.log_records_checked:6d} checked, "
            f"{len(self.log_problems)} bad",
            f"logical         {len(self.logical_problems)} violations",
        ]
        for problem in self.problems()[:10]:
            lines.append(f"  ! {problem}")
        lines.append("VERDICT: " + ("CLEAN" if self.ok else "CORRUPT"))
        return "\n".join(lines)


def corrupt_snapshot_pages(engine) -> List[Tuple[int, int, int]]:
    """Every durable snapshot page failing its recorded checksum, as
    ``(snapshot_id, partition_id, page_no)`` — the structured form the
    chaos accounting checks injected corruptions off against."""
    bad: List[Tuple[int, int, int]] = []
    for snapshot_id, payload in engine.snapshots.items():
        for pid, part_state in sorted(payload["store"]["partitions"].items()):
            for page_no, page_state in sorted(part_state["pages"].items()):
                if not snapshot_checksum_ok(page_state):
                    bad.append((snapshot_id, pid, page_no))
    return bad


def deep_verify(engine) -> VerifyReport:
    """Run all four sweeps over one engine; never raises on corruption —
    every finding lands in the report."""
    report = VerifyReport()

    store = engine.store
    for pid in store.partition_ids():
        report.pages_checked += store.partition(pid).page_count
    report.live_page_problems.extend(store.verify_pages())

    for _snapshot_id, payload in engine.snapshots.items():
        for part_state in payload["store"]["partitions"].values():
            report.snapshot_pages_checked += len(part_state["pages"])
    for snapshot_id, pid, page_no in corrupt_snapshot_pages(engine):
        report.snapshot_page_problems.append(
            f"snapshot {snapshot_id}: partition {pid} page "
            f"{page_no} fails its recorded checksum")

    for lsn in range(1, engine.log.last_lsn + 1):
        report.log_records_checked += 1
        try:
            engine.log.read(lsn)
        except LogCorruptionError as exc:
            report.log_problems.append(str(exc))

    try:
        integrity = engine.verify_integrity()
    except StorageError as exc:
        # Corrupt object bytes can make the reference walk itself blow
        # up; that is a finding, not a verifier crash.
        report.logical_problems.append(
            f"integrity walk aborted: {type(exc).__name__}: {exc}")
    else:
        report.logical_problems.extend(integrity.problems())
    return report
