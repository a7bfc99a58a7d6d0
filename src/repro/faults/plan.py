"""Deterministic fault plans.

A :class:`FaultPlan` declares, up front, every fault a run will suffer:
whole-system crashes (at a simulated time, at an LSN, or at the n-th
physical page write), targeted process kills (the reorganizer mid-batch),
transient page-I/O errors, and forced lock-timeout storms.  Everything is
seed-driven — two runs with the same plan, workload and seeds inject the
same faults at the same simulated instants, which is what makes the chaos
sweeps (:mod:`repro.faults.chaos`) reproducible and bisectable.

The plan is pure data; :class:`repro.faults.FaultInjector` threads it
through the engine's hooks.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Optional, Tuple

#: Active-window sentinel meaning "for the whole run".
ALWAYS: Tuple[float, float] = (0.0, float("inf"))


@dataclass(frozen=True)
class FaultPlan:
    """Declarative description of the faults to inject into one run.

    Crash triggers (the first one to fire wins; the rest are disarmed):

    * ``crash_at_ms`` — crash when the simulated clock reaches this time.
    * ``crash_at_lsn`` — crash as soon as a log record with this LSN (or
      beyond) is appended.
    * ``crash_at_page_write`` — crash on the n-th *physical* page write,
      counted as physical-kind log-record appends (OBJ_CREATE/OBJ_DELETE/
      PAYLOAD_UPDATE/REF_UPDATE), which is the meaningful unit in the
      paper's memory-resident setting.

    Targeted kill (process-level, not system-level):

    * ``kill_process_at_ms`` / ``kill_process_match`` — at the given
      time, kill every live process whose name contains the substring
      (default ``"reorg"``: the reorganization utility mid-batch).  The
      rest of the system keeps running.

    Transient page-I/O errors (buffer pool reads/writes and log flushes):

    * ``io_error_rate`` — per-transfer failure probability, drawn from a
      seeded RNG; failed transfers are retried with capped exponential
      backoff by the buffer pool / log manager.
    * ``io_error_window_ms`` — ``(start, end)`` of simulated time during
      which the rate applies (default: the whole run).

    Forced lock-timeout storms:

    * ``lock_storm_rate`` — probability that a lock request which would
      have to wait is instead failed immediately with a
      :class:`~repro.concurrency.LockTimeoutError` (a deadlock-victim
      storm).
    * ``lock_storm_window_ms`` — active window, as above.

    Corruption (the silent kind — nothing raises at injection time;
    checksums and the scrubber must *catch* it):

    * ``torn_page_write`` — tear one page of the n-th checkpoint's
      snapshot write: the stored image keeps a prefix of the new bytes
      and the tail of the previous checkpoint's image (or zeros), under
      the checksum recorded for the complete new image.
    * ``bit_flip_at_ms`` / ``bit_flip_target`` — at the given time flip
      one seeded-random bit in one page image: in the latest durable
      snapshot (``"durable"``) or in a live in-memory page (``"live"``).
    * ``torn_log_tail`` — when a crash trigger fires, append the log
      write that was in flight as a torn fragment (cut or bit-flipped)
      to the surviving log stream.

    Distributed faults (meaningful only when the plan is armed on a
    :class:`repro.dist.DistCluster` via
    :func:`repro.dist.chaos.arm_fault_plan`; ignored by the single-node
    injector):

    * ``kill_node`` — ``(node_id, at_ms, down_ms)``: fail-stop one
      cluster node at the given simulated time and restart it from its
      crash image ``down_ms`` later.
    * ``partition_link`` — ``(a, b, cut_ms, heal_ms)``: sever the
      bidirectional link between nodes ``a`` and ``b`` for the window.
    * ``message_drop_rate`` / ``message_drop_window_ms`` — interconnect
      message loss: per-message drop probability from the link's seeded
      RNG, active during the window.

    ``seed`` feeds every probabilistic draw; crash/kill triggers are not
    probabilistic at all.
    """

    seed: int = 0
    crash_at_ms: Optional[float] = None
    crash_at_lsn: Optional[int] = None
    crash_at_page_write: Optional[int] = None
    kill_process_at_ms: Optional[float] = None
    kill_process_match: str = "reorg"
    io_error_rate: float = 0.0
    io_error_window_ms: Tuple[float, float] = ALWAYS
    lock_storm_rate: float = 0.0
    lock_storm_window_ms: Tuple[float, float] = ALWAYS
    torn_page_write: Optional[int] = None
    bit_flip_at_ms: Optional[float] = None
    bit_flip_target: str = "durable"
    torn_log_tail: bool = False
    kill_node: Optional[Tuple[int, float, float]] = None
    partition_link: Optional[Tuple[int, int, float, float]] = None
    message_drop_rate: float = 0.0
    message_drop_window_ms: Tuple[float, float] = ALWAYS

    def __post_init__(self) -> None:
        if not 0.0 <= self.io_error_rate <= 1.0:
            raise ValueError(f"io_error_rate={self.io_error_rate} not in [0, 1]")
        if not 0.0 <= self.lock_storm_rate <= 1.0:
            raise ValueError(
                f"lock_storm_rate={self.lock_storm_rate} not in [0, 1]")
        for name in ("crash_at_ms", "kill_process_at_ms", "bit_flip_at_ms"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValueError(f"{name}={value} is negative")
        for name in ("crash_at_lsn", "crash_at_page_write",
                     "torn_page_write"):
            value = getattr(self, name)
            if value is not None and value < 1:
                raise ValueError(f"{name}={value} must be >= 1")
        if self.bit_flip_target not in ("durable", "live"):
            raise ValueError(
                f"bit_flip_target={self.bit_flip_target!r} must be "
                f"'durable' or 'live'")
        if not 0.0 <= self.message_drop_rate <= 1.0:
            raise ValueError(
                f"message_drop_rate={self.message_drop_rate} not in [0, 1]")
        if self.kill_node is not None:
            node_id, at_ms, down_ms = self.kill_node
            if node_id < 0 or at_ms < 0 or down_ms <= 0:
                raise ValueError(f"kill_node={self.kill_node} malformed")
        if self.partition_link is not None:
            a, b, cut_ms, heal_ms = self.partition_link
            if a == b:
                raise ValueError("partition_link endpoints must differ")
            if cut_ms < 0 or heal_ms <= cut_ms:
                raise ValueError(
                    f"partition_link window ({cut_ms}, {heal_ms}) malformed")

    @property
    def wants_crash(self) -> bool:
        return (self.crash_at_ms is not None
                or self.crash_at_lsn is not None
                or self.crash_at_page_write is not None)

    @property
    def wants_dist(self) -> bool:
        return (self.kill_node is not None
                or self.partition_link is not None
                or self.message_drop_rate > 0.0)

    @property
    def wants_corruption(self) -> bool:
        return (self.torn_page_write is not None
                or self.bit_flip_at_ms is not None
                or self.torn_log_tail)

    def copy(self, **overrides) -> "FaultPlan":
        return replace(self, **overrides)

    # -- convenience constructors (the common chaos shapes) ------------------

    @classmethod
    def crash_at(cls, ms: float, seed: int = 0) -> "FaultPlan":
        return cls(seed=seed, crash_at_ms=ms)

    @classmethod
    def crash_at_write(cls, n: int) -> "FaultPlan":
        return cls(crash_at_page_write=n)

    @classmethod
    def kill_reorg_at(cls, ms: float) -> "FaultPlan":
        return cls(kill_process_at_ms=ms)

    @classmethod
    def crash_with_torn_tail(cls, ms: float, seed: int = 0) -> "FaultPlan":
        return cls(seed=seed, crash_at_ms=ms, torn_log_tail=True)

    @classmethod
    def bit_flip_then_crash(cls, flip_ms: float, crash_ms: float,
                            seed: int = 0) -> "FaultPlan":
        return cls(seed=seed, bit_flip_at_ms=flip_ms, crash_at_ms=crash_ms)

    @classmethod
    def tear_checkpoint(cls, nth: int, crash_ms: float,
                        seed: int = 0) -> "FaultPlan":
        return cls(seed=seed, torn_page_write=nth, crash_at_ms=crash_ms)

    @classmethod
    def kill_node_at(cls, node_id: int, ms: float,
                     down_ms: float = 140.0) -> "FaultPlan":
        return cls(kill_node=(node_id, ms, down_ms))

    @classmethod
    def cut_link(cls, a: int, b: int, ms: float,
                 heal_ms: float) -> "FaultPlan":
        return cls(partition_link=(a, b, ms, heal_ms))
