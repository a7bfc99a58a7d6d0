"""The log manager.

Appends buffer records in memory; ``flush`` makes a prefix durable by
doing (simulated) I/O on the log-disk resource.  Committing transactions
that arrive while another flush is in flight piggyback on it — classic
group commit, which is why the paper's throughput does not peak at MPL 1
("there is some CPU I/O parallelism to be exploited", §5.3.1).  The
durability point a flush establishes is captured when the disk I/O
*begins*: records appended while the write is in flight are physically
not in it, so they wait for the next flush.

On stable storage each record is framed as ``[length u32][crc32 u32]
[payload]``.  :meth:`from_durable` rebuilds a manager from a crash-
surviving byte stream by scanning frames and validating each CRC — a
torn tail (a log write interrupted by the crash) is detected and
truncated at the first bad frame, exactly like a production WAL.

Subscribers (the log analyzer, §3.3) are notified synchronously at append
time: "a separate process called log analyzer [processes the logs] as soon
as they are handed over to the logging subsystem".  Synchronous dispatch
preserves the paper's ordering requirement that a pointer delete is noted
in the TRT before the pointer is physically deleted (the undo record is
appended before the update is applied, per WAL).
"""

from __future__ import annotations

import io
import random
import struct
import zlib
from itertools import islice
from typing import Any, Callable, Generator, Iterator, List, Optional, Tuple

from ..config import RetryPolicy, SystemConfig
from ..sim import Delay, Resource, Simulator
from ..storage.errors import LogCorruptionError, TransientIOError
from .records import KIND_TID, LogRecord, decode_record

Subscriber = Callable[[LogRecord], None]

#: On-"disk" framing of one record: payload length + payload CRC32.
FRAME_HEADER = struct.Struct("<II")


def frame_record(payload: bytes) -> bytes:
    """Wrap one encoded record in its stable-storage frame."""
    return FRAME_HEADER.pack(len(payload), zlib.crc32(payload)) + payload


def scan_frames(stream: bytes) -> Tuple[List[bytes], int, Optional[str]]:
    """Split a durable byte stream back into record payloads.

    Scanning stops at the first violation — a truncated header, a frame
    overrunning the stream, or a CRC mismatch — and everything from that
    point on is treated as the torn tail of an interrupted log write.
    Returns ``(payloads, bytes_consumed, tail_problem)`` where
    ``tail_problem`` is ``None`` for a perfectly clean stream.
    """
    payloads: List[bytes] = []
    offset = 0
    while offset < len(stream):
        if offset + FRAME_HEADER.size > len(stream):
            return payloads, offset, (
                f"truncated frame header ({len(stream) - offset}B "
                f"of {FRAME_HEADER.size})")
        length, crc = FRAME_HEADER.unpack_from(stream, offset)
        body_start = offset + FRAME_HEADER.size
        if body_start + length > len(stream):
            return payloads, offset, (
                f"frame of {length}B overruns the stream "
                f"({len(stream) - body_start}B left)")
        payload = stream[body_start:body_start + length]
        if zlib.crc32(payload) != crc:
            return payloads, offset, (
                f"record CRC mismatch at byte {offset}")
        payloads.append(payload)
        offset = body_start + length
    return payloads, offset, None

#: Fault-injection hook: called with the flush-target LSN before the
#: flush takes effect; raising :class:`TransientIOError` fails that disk
#: write (the manager retries with capped exponential backoff while still
#: holding the log disk).
FlushFaultHook = Callable[[int], None]


class LogManager:
    """Append-only log with group-commit flushing.

    LSNs are 1-based and dense: record ``i`` (0-based) has LSN ``i + 1``.
    """

    def __init__(self, sim: Simulator, log_disk: Resource,
                 flush_time_ms: float,
                 retry: Optional[RetryPolicy] = None):
        self.sim = sim
        self.log_disk = log_disk
        self.flush_time_ms = flush_time_ms
        #: The transient-I/O budget; standalone managers (tests, micro-
        #: benchmarks) get the default configuration's.
        self.retry = retry or SystemConfig().io_retry
        self.fault_hook: Optional[FlushFaultHook] = None
        self._encoded: List[bytes] = []   # the byte stream, by LSN - 1
        self._flushed_lsn = 0
        self._subscribers: List[Subscriber] = []
        self.flush_count = 0
        self.io_faults = 0
        self.io_retries = 0
        #: Set by :meth:`from_durable` when the durable stream ended in a
        #: torn/corrupt record that had to be truncated.
        self.tail_truncated = False
        self.tail_problem: Optional[str] = None

    # -- append / read -------------------------------------------------------

    @property
    def last_lsn(self) -> int:
        return len(self._encoded)

    @property
    def flushed_lsn(self) -> int:
        return self._flushed_lsn

    def append(self, record: LogRecord) -> int:
        """Buffer a record; returns its LSN.  Does not flush."""
        encoded = self._encoded
        encoded.append(record.encode())
        record.lsn = lsn = len(encoded)
        for subscriber in self._subscribers:
            subscriber(record)
        return lsn

    def read(self, lsn: int) -> LogRecord:
        if not 1 <= lsn <= len(self._encoded):
            raise IndexError(f"no log record with lsn {lsn}")
        try:
            return decode_record(self._encoded[lsn - 1], lsn=lsn)
        except LogCorruptionError as exc:
            raise LogCorruptionError(f"log record {lsn}: {exc}") from exc

    def records(self, from_lsn: int = 1,
                upto_lsn: Optional[int] = None) -> Iterator[LogRecord]:
        """Decode records with ``from_lsn <= lsn <= upto_lsn``."""
        upto = upto_lsn if upto_lsn is not None else len(self._encoded)
        for index in range(from_lsn - 1, upto):
            yield decode_record(self._encoded[index], lsn=index + 1)

    def headers(self, from_lsn: int = 1, upto_lsn: Optional[int] = None
                ) -> Iterator[Tuple[int, int, int]]:
        """``(lsn, kind, tid)`` of the records :meth:`records` would
        decode, read off the header every encoding opens with; decodes
        nothing.

        Every record was checked as it entered the log — ``append``
        encoded it, :meth:`from_durable` decoded it — so its header alone
        picks the records worth decoding (:meth:`read`).
        """
        upto = upto_lsn if upto_lsn is not None else len(self._encoded)
        return self._headers(range(from_lsn - 1, upto))

    def newest_of_kind(self, kind: int) -> Iterator[int]:
        """LSNs of the ``kind`` records, newest first, decoding none."""
        return (lsn for lsn, each, _ in self._headers(
            range(len(self._encoded) - 1, -1, -1)) if each == kind)

    def _headers(self, indices: range) -> Iterator[Tuple[int, int, int]]:
        encoded, unpack = self._encoded, KIND_TID.unpack_from
        for index in indices:
            kind, tid = unpack(encoded[index])
            yield index + 1, kind, tid

    # -- durability -----------------------------------------------------------

    def flush(self, upto_lsn: Optional[int] = None) -> Generator[Any, Any, None]:
        """Make the log durable up to ``upto_lsn`` (default: everything).

        Generator — costs one log-disk I/O unless a concurrent flush
        already covered the requested LSN (group commit).  The durable
        horizon only advances to the append point captured when the disk
        write *began*: a record appended while the I/O was in flight is
        physically not in that write, so it piggybacks on the next flush
        instead of being falsely reported durable.
        """
        target = upto_lsn if upto_lsn is not None else len(self._encoded)
        if self._flushed_lsn >= target:
            return
        yield from self.log_disk.acquire()
        try:
            if self._flushed_lsn >= target:
                return  # piggybacked on the flush we just waited behind
            # Everything appended while we were *queued* rides along; the
            # write's content is fixed from this point on.
            write_point = len(self._encoded)
            # The only ways out of this loop are a write that went
            # through and a raise: an exhausted budget can never fall
            # through to "mark flushed".
            attempt = 0
            while True:
                yield Delay(self.flush_time_ms)
                if self.fault_hook is None:
                    break
                try:
                    self.fault_hook(target)
                    break
                except TransientIOError:
                    self.io_faults += 1
                    if self.retry.exhausted(attempt):
                        raise
                    self.io_retries += 1
                    yield Delay(self.retry.delay_ms(attempt))
                    attempt += 1
            self._flushed_lsn = max(self._flushed_lsn, write_point)
            self.flush_count += 1
        finally:
            self.log_disk.release()

    def flush_now(self) -> None:
        """Zero-time flush for bulk-loading and test setup paths."""
        self._flushed_lsn = len(self._encoded)

    # -- crash surface ----------------------------------------------------------

    def durable_bytes(self) -> bytes:
        """The framed byte stream that survives a crash (flushed prefix).

        Frames are written straight into one buffer, whose ``getvalue``
        hands it back uncopied: the stream is never held twice.
        """
        out = io.BytesIO()
        write, pack, crc32 = out.write, FRAME_HEADER.pack, zlib.crc32
        for payload in islice(self._encoded, self._flushed_lsn):
            write(pack(len(payload), crc32(payload)))
            write(payload)
        return out.getvalue()

    def torn_tail_fragment(self, rng: random.Random) -> bytes:
        """Bytes of the log write that was in flight at the crash.

        Either the first unflushed record's frame cut mid-write, or —
        when the rng says so and a record is available — the full frame
        with one bit flipped (a failed, not merely interrupted, write).
        With nothing buffered beyond the durable horizon, a stray
        partial header models a preallocated-but-unwritten log block.
        """
        if self._flushed_lsn < len(self._encoded):
            frame = frame_record(self._encoded[self._flushed_lsn])
            if rng.random() < 0.5:
                flipped = bytearray(frame)
                bit = rng.randrange(len(flipped) * 8)
                flipped[bit // 8] ^= 1 << (bit % 8)
                return bytes(flipped)
            return frame[:rng.randrange(1, len(frame))]
        return FRAME_HEADER.pack(0xFFFFFFFF, 0)[:rng.randrange(1, 8)]

    @classmethod
    def from_durable(cls, sim: Simulator, log_disk: Resource,
                     flush_time_ms: float, durable: bytes,
                     retry: Optional[RetryPolicy] = None) -> "LogManager":
        """Rebuild a log manager from a crash-surviving byte stream.

        The stream is scanned frame by frame; the first torn or
        CRC-failing record — a log write interrupted by the crash — and
        everything after it is truncated, and the manager records the
        truncation in :attr:`tail_truncated` / :attr:`tail_problem`.
        A frame whose CRC matches but whose body does not decode is
        treated the same way.
        """
        log = cls(sim, log_disk, flush_time_ms, retry)
        payloads, consumed, problem = scan_frames(durable)
        kept: List[bytes] = []
        for index, payload in enumerate(payloads):
            try:
                decode_record(payload, lsn=index + 1)
            except LogCorruptionError as exc:
                problem = f"undecodable record at lsn {index + 1}: {exc}"
                break
            kept.append(payload)
        log._encoded = kept
        log._flushed_lsn = len(kept)
        log.tail_problem = problem
        log.tail_truncated = problem is not None
        return log

    # -- subscribers -------------------------------------------------------------

    def subscribe(self, subscriber: Subscriber) -> None:
        self._subscribers.append(subscriber)

    def unsubscribe(self, subscriber: Subscriber) -> None:
        self._subscribers.remove(subscriber)
