"""Write-ahead logging, checkpoints and ARIES-style restart recovery."""

from .analysis import TransactionTable
from .apply import apply_record, invert_record, record_page_key
from .checkpoint import SnapshotStore
from .log import LogManager, frame_record, scan_frames
from .records import (
    AbortRecord,
    BeginRecord,
    CheckpointRecord,
    ClrRecord,
    CommitRecord,
    EndRecord,
    FLAG_SYSTEM_TXN,
    LogRecord,
    ObjCreateRecord,
    ObjDeleteRecord,
    PayloadUpdateRecord,
    RefUpdateRecord,
    ReorgProgressRecord,
    TpcDecisionRecord,
    TpcEndRecord,
    TpcPrepareRecord,
    decode_record,
)
from .recovery import RecoveryManager, RecoveryStats, undo_transaction

__all__ = [
    "AbortRecord",
    "BeginRecord",
    "CheckpointRecord",
    "ClrRecord",
    "CommitRecord",
    "EndRecord",
    "FLAG_SYSTEM_TXN",
    "LogManager",
    "LogRecord",
    "ObjCreateRecord",
    "ObjDeleteRecord",
    "PayloadUpdateRecord",
    "RecoveryManager",
    "RecoveryStats",
    "RefUpdateRecord",
    "ReorgProgressRecord",
    "SnapshotStore",
    "TpcDecisionRecord",
    "TpcEndRecord",
    "TpcPrepareRecord",
    "TransactionTable",
    "apply_record",
    "decode_record",
    "frame_record",
    "invert_record",
    "record_page_key",
    "scan_frames",
    "undo_transaction",
]
