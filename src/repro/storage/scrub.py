"""Background checksum scrubber.

A real storage engine cannot wait for a page to be *read* to notice it
rotted: cold pages would carry latent corruption into the next backup or
recovery.  The scrubber is a low-duty-cycle simulation process that
round-robins over every live page, re-verifying checksums and slotted-
page invariants a few pages per sweep, under full concurrent traffic.

Findings are recorded (and optionally reported through ``on_corrupt``)
rather than raised: the scrubber runs detached, where an exception would
only kill the scrubbing process itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Generator, List, Optional, Tuple

from ..sim import Delay
from .errors import PageChecksumError

#: Called with ``(partition_id, page_no, problem)`` for each detection.
CorruptionCallback = Callable[[int, int, str], None]


@dataclass
class ScrubStats:
    pages_scanned: int = 0
    sweeps_completed: int = 0
    corrupt_pages_found: int = 0
    #: ``(partition_id, page_no, problem)`` per detection, in scan order.
    findings: List[Tuple[int, int, str]] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return self.corrupt_pages_found == 0


class Scrubber:
    """Continuously sweep an engine's pages, verifying checksums.

    ``run()`` is a simulation-process generator; spawn it with
    ``engine.sim.spawn(scrubber.run(), name="scrubber")``.  Each detected
    page is reported once per sweep position change; ``stop()`` ends the
    process at its next wakeup.
    """

    def __init__(self, engine, interval_ms: float = 50.0,
                 pages_per_sweep: int = 8,
                 on_corrupt: Optional[CorruptionCallback] = None):
        if interval_ms <= 0:
            raise ValueError("interval_ms must be positive")
        if pages_per_sweep < 1:
            raise ValueError("pages_per_sweep must be >= 1")
        self.engine = engine
        self.interval_ms = interval_ms
        self.pages_per_sweep = pages_per_sweep
        self.on_corrupt = on_corrupt
        self.stats = ScrubStats()
        self._stopped = False
        self._cursor = 0  # position in the (partition, page) scan order

    def stop(self) -> None:
        self._stopped = True

    def _scan_order(self) -> List[Tuple[int, int]]:
        store = self.engine.store
        return [(pid, page_no)
                for pid in store.partition_ids()
                for page_no in store.partition(pid).page_numbers()]

    def _check(self, pid: int, page_no: int) -> None:
        store = self.engine.store
        if not store.has_partition(pid):
            return
        partition = store.partition(pid)
        if page_no not in partition._pages:
            return  # dropped between listing and checking
        self.stats.pages_scanned += 1
        try:
            partition.page(page_no).verify()
        except PageChecksumError as exc:
            self.stats.corrupt_pages_found += 1
            self.stats.findings.append((pid, page_no, str(exc)))
            if self.on_corrupt is not None:
                self.on_corrupt(pid, page_no, str(exc))

    def run(self) -> Generator[Any, Any, None]:
        while not self._stopped:
            order = self._scan_order()
            if order:
                for _ in range(min(self.pages_per_sweep, len(order))):
                    if self._cursor >= len(order):
                        self._cursor = 0
                        self.stats.sweeps_completed += 1
                    self._check(*order[self._cursor])
                    self._cursor += 1
            yield Delay(self.interval_ms)

    def __repr__(self) -> str:
        return (f"<Scrubber scanned={self.stats.pages_scanned} "
                f"corrupt={self.stats.corrupt_pages_found}>")
