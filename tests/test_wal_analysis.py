"""One reader of the log's transaction structure: ``TransactionTable``.

The table is checked against a naive reference scan kept here (the
analysis restart recovery used to do privately, plus the ownership scan
nine other modules used to hand-copy) on real crash images, and a
structural guard keeps a second reader from growing back.
"""

import inspect
import re
from collections import Counter
from pathlib import Path

import repro
import repro.wal.log as log_module
from repro import CompactionPlan, StorageEngine
from repro.core import rebuild_trt
from repro.dist import DistCluster
from repro.sim import Resource, Simulator
from repro.wal import (
    AbortRecord,
    BeginRecord,
    CheckpointRecord,
    ClrRecord,
    CommitRecord,
    EndRecord,
    LogManager,
    TpcDecisionRecord,
    TpcPrepareRecord,
    TransactionTable,
)
from repro.wal.records import (PHYSICAL_KINDS, MergeInstallRecord,
                               TailDeltaRecord, decode_record)
from tests.test_core_checkpointing import crash_mid_reorg


# -- the naive reference ------------------------------------------------------

def naive_scan(log, snapshots):
    """Several plain passes, one question each."""
    records = list(log.records())
    checkpoint = None
    for record in records:
        if isinstance(record, CheckpointRecord) and \
                snapshots.has(record.snapshot_id):
            checkpoint = record
    checkpoint_lsn = checkpoint.lsn if checkpoint else 0

    owners = {r.tid: r.owner_partition for r in records
              if isinstance(r, BeginRecord) and r.is_system
              and r.owner_partition is not None}
    committed = {r.tid for r in records if r.tid and (
        isinstance(r, CommitRecord)
        or (isinstance(r, TpcDecisionRecord) and r.commit))}

    # ARIES analysis from the checkpoint, as restart recovery ran it.
    last_lsn = dict(checkpoint.active_txns) if checkpoint else {}
    since_committed, aborted, prepared = set(), set(), {}
    for record in records[checkpoint_lsn:]:
        if record.tid == 0:
            continue
        if isinstance(record, EndRecord):
            last_lsn.pop(record.tid, None)
            continue
        last_lsn[record.tid] = record.lsn
        if isinstance(record, CommitRecord) or (
                isinstance(record, TpcDecisionRecord) and record.commit):
            since_committed.add(record.tid)
        elif isinstance(record, AbortRecord):
            aborted.add(record.tid)
        elif isinstance(record, TpcPrepareRecord):
            prepared[record.tid] = record
    in_doubt = {tid: rec for tid, rec in prepared.items()
                if tid in last_lsn and tid not in since_committed
                and tid not in aborted}
    losers = {tid: lsn for tid, lsn in last_lsn.items()
              if tid not in since_committed and tid not in in_doubt}
    redo_window = records[checkpoint_lsn:]
    return dict(
        checkpoint_lsn=checkpoint_lsn, owners=owners, committed=committed,
        in_doubt=in_doubt, losers=losers,
        max_tid=max((r.tid for r in records), default=0),
        analyzed=len(redo_window),
        redone=sum(1 for r in redo_window if r.kind in PHYSICAL_KINDS
                   or isinstance(r, ClrRecord)))


def check_image(image):
    """Table == naive scan on the durable log; recovery reports the
    same loser / in-doubt sets and the same work counters."""
    sim = Simulator()
    log = LogManager.from_durable(
        sim, Resource(sim, capacity=1, name="log-disk"), 1.0,
        image.durable_log)
    want = naive_scan(log, image.snapshots)
    table = TransactionTable.scan(log, image.snapshots)

    assert (table.checkpoint.lsn if table.checkpoint else 0) == \
        want["checkpoint_lsn"]
    assert table.owner == want["owners"]
    assert table.committed == want["committed"]
    assert table.in_doubt() == want["in_doubt"]
    assert table.losers() == want["losers"]
    assert table.max_tid == want["max_tid"]
    for pid in set(want["owners"].values()):
        assert table.reorganizer_committed(pid) == {
            tid for tid, owner in want["owners"].items()
            if owner == pid and tid in want["committed"]}

    stats = StorageEngine.recover(image).recovery_stats
    assert stats.checkpoint_lsn == want["checkpoint_lsn"]
    assert stats.records_analyzed == want["analyzed"]
    assert stats.records_redone == want["redone"]
    assert stats.loser_txns == sorted(want["losers"])
    assert stats.in_doubt_txns == want["in_doubt"]
    return table


def test_table_matches_naive_scan_on_a_chaos_crash_image():
    image, _, _ = crash_mid_reorg("ira", crash_at_ms=5000.0)
    table = check_image(image)
    losers = table.losers()
    assert len(losers) >= 2, "the crash must catch transactions in flight"
    # Both kinds of loser: the in-flight migration and user transactions.
    assert any(tid in table.owner for tid in losers)
    assert any(tid not in table.owner for tid in losers)
    assert table.reorganizer_committed(1)


def test_table_matches_naive_scan_on_an_in_doubt_dist_image(
        small_dist_config):
    cluster = DistCluster(small_dist_config()).build()
    cluster.reorganize_all()
    crashed = []

    def crash_participant(stage, gid, node_id):
        if stage == "part-after-prepare-log" and not crashed:
            crashed.append(node_id)
            cluster.crash_node_in_process(node_id)   # never restarted
    for node in cluster.nodes:
        node.twopc.fault_hook = crash_participant
    cluster.run(2000.0)
    assert crashed, "no participant ever force-logged a PREPARE"

    table = check_image(cluster.nodes[crashed[0]].crash_image)
    assert len(table.in_doubt()) == 1, "prepared, undecided branch"
    assert not set(table.in_doubt()) & set(table.losers())


# -- the header scan against a full decode --------------------------------------

def full_decode_scan(log, snapshots=None):
    """The table's pass as it was before it read headers: every record
    decoded, every field taken off the record."""
    table = {"owner": {}, "committed": set(), "ended": set(),
             "aborted": set(), "prepared": {}, "last_lsn": {},
             "checkpoints": [], "max_tid": 0}
    for record in log.records():
        tid = record.tid
        if tid == 0:
            if isinstance(record, CheckpointRecord) and \
                    snapshots is not None and \
                    snapshots.has(record.snapshot_id):
                table["checkpoints"].append(record)
                table["last_lsn"] = record.active_txn_table()
            continue
        table["max_tid"] = max(table["max_tid"], tid)
        if isinstance(record, EndRecord):
            table["ended"].add(tid)
            table["last_lsn"].pop(tid, None)
            continue
        table["last_lsn"][tid] = record.lsn
        if isinstance(record, BeginRecord):
            if record.is_system and record.owner_partition is not None:
                table["owner"][tid] = record.owner_partition
        elif isinstance(record, CommitRecord):
            table["committed"].add(tid)
        elif isinstance(record, AbortRecord):
            table["aborted"].add(tid)
        elif isinstance(record, TpcPrepareRecord):
            table["prepared"][tid] = record
        elif isinstance(record, TpcDecisionRecord) and record.commit:
            table["committed"].add(tid)
    return table


def assert_header_scan_matches(log, snapshots):
    for given in (None, snapshots):
        table = TransactionTable.scan(log, given)
        assert {name: getattr(table, name)
                for name in full_decode_scan(log)} == \
            full_decode_scan(log, given)


def test_header_scan_matches_a_full_decode_on_a_closed_loop_ira_log():
    image, _, _ = crash_mid_reorg("ira", crash_at_ms=5000.0)
    engine = StorageEngine.recover(image)
    assert TransactionTable.scan(engine.log).owner, "no reorganizer seen"
    assert_header_scan_matches(engine.log, engine.snapshots)


def test_header_scan_matches_a_full_decode_on_a_2pc_node_log(
        small_dist_config):
    cluster = DistCluster(small_dist_config()).build()
    cluster.reorganize_all()
    assert cluster.run_until_reorgs_done()
    for node in cluster.nodes:
        log = node.engine.log
        kinds = {kind for _, kind, _ in log.headers()}
        assert {TpcPrepareRecord.kind, TpcDecisionRecord.kind} <= kinds
        assert_header_scan_matches(log, node.engine.snapshots)


def test_header_scan_matches_a_full_decode_on_an_mvcc_log():
    from repro.mvcc import MergeReorganizer
    from tests.test_mvcc_recovery import _build, _run_walks

    db, layout, _ = _build()
    _run_walks(db, layout)
    db.run(MergeReorganizer(db.engine, 1, plan=CompactionPlan()).run(),
           name="merge")
    db.checkpoint()
    kinds = {kind for _, kind, _ in db.engine.log.headers()}
    assert {TailDeltaRecord.kind, MergeInstallRecord.kind} <= kinds
    assert_header_scan_matches(db.engine.log, db.engine.snapshots)


def test_recover_decodes_a_durable_record_at_most_twice(monkeypatch):
    """Validation and redo decode a record; the analysis reads headers.
    Undo reads a loser's records once more.  (Before the header scan the
    analysis decoded every record too: three decodes, four for a loser.)
    A single-node log: no 2PC records, which the analysis decodes."""
    image, _, _ = crash_mid_reorg("ira", crash_at_ms=5000.0)
    decodes = Counter()

    def counted(data, lsn=0):
        decodes[lsn] += 1
        return decode_record(data, lsn)
    monkeypatch.setattr(log_module, "decode_record", counted)
    engine = StorageEngine.recover(image)
    monkeypatch.undo()

    stats = engine.recovery_stats
    durable = stats.checkpoint_lsn + stats.records_analyzed
    losers = set(stats.loser_txns)
    assert losers, "the crash must leave losers for undo to read"
    for lsn, _, tid in engine.log.headers(upto_lsn=durable):
        assert 1 <= decodes[lsn] <= (3 if tid in losers else 2), lsn


# -- the structural guard -----------------------------------------------------

SRC = Path(repro.__file__).parent


def _sources():
    return {path.relative_to(SRC).as_posix(): path.read_text()
            for path in sorted(SRC.rglob("*.py"))}


def test_log_ownership_is_read_only_by_wal_and_refs():
    """Which reorganizer a transaction belongs to is a fact of its BEGIN
    record; everyone but the analysis and the log analyzer asks the
    transaction table."""
    readers = sorted(
        name for name, text in _sources().items()
        if re.search(r"\.(is_system|owner_partition)\b", text))
    assert all(name.startswith(("wal/", "refs/")) for name in readers), \
        readers


def test_rebuild_trt_has_no_record_rule_of_its_own():
    source = inspect.getsource(rebuild_trt)
    assert "isinstance(" not in source
    assert "LogAnalyzer(" in source
    assert "preload" not in inspect.signature(rebuild_trt).parameters
    assert not [name for name, text in _sources().items()
                if "trt_entries" in text]


def test_clr_records_are_built_in_exactly_two_places():
    """``Transaction.abort`` (a generator charging simulated CPU per
    undone operation) and the one recovered-transaction undo walk shared
    by restart recovery and 2PC in-doubt resolution."""
    builders = sorted(
        (name, line.strip()) for name, text in _sources().items()
        for line in text.splitlines()
        if re.search(r"(?<!class )\bClrRecord\(", line))
    # The decoder builds every kind from its declared layout, none by name.
    assert [name for name, _ in builders] == [
        "txn/transaction.py", "wal/recovery.py"], builders
    assert "def abort(" in (SRC / "txn" / "transaction.py").read_text()
    assert "def undo_transaction(" in (SRC / "wal" / "recovery.py").read_text()


def test_commit_state_is_asked_of_the_table():
    """Committed / ended / aborted / prepared are sets the table holds;
    nobody else classifies COMMIT, END, ABORT or TPC_PREPARE records."""
    scanners = sorted(
        name for name, text in _sources().items()
        if not name.startswith(("wal/", "refs/")) and re.search(
            r"isinstance\(\w+,\s*\(?[\w\s,]*\b"
            r"(Commit|End|Abort|TpcPrepare)Record\b", text))
    assert scanners == []
