"""Object-level lock manager.

Shared/exclusive locks with FIFO queues, lock upgrades, and — exactly as
in the paper's experiments — a lock-timeout mechanism for deadlock
handling ("a lock timeout mechanism was used to handle deadlocks and was
set to one second", §5).

Beyond the paper's timeout scheme, the manager can run a **waits-for
deadlock detector** (``detection="waits-for"``): whenever a request has
to block, the new wait edge is checked for a cycle in the waits-for
graph, and if the requester closed a cycle it is made the victim
immediately — a :class:`DeadlockError` (a :class:`LockTimeoutError`
subclass, so every existing abort/retry path applies) is raised at block
time instead of one full timeout later.  Detection-at-block catches
*every* deadlock, because a cycle can only come into existence at the
instant its final wait edge is added; the victim choice (the requester
that closed the cycle) is therefore deterministic.  The timeout stays
armed as a fallback for non-cycle starvation.  The waits-for graph
includes both lock holders and incompatible requests queued ahead
(grants are FIFO: a request behind a blocked request is blocked too).

Two features exist specifically for the paper's algorithms:

* **Strict 2PL bookkeeping** — ``release_all(tid)`` frees everything a
  transaction holds at commit/abort time.
* **Lock-history tracking (§4.1)** — when transactions are allowed to
  release locks early (short-duration locks instead of strict 2PL), the
  lock manager "keep[s] track of which active transactions had acquired
  short duration locks on which objects"; the reorganizer then waits for
  every such transaction to complete, which restores strict-2PL behaviour
  *with respect to the reorganizer only*.
"""

from __future__ import annotations

import enum
from collections import deque
from typing import Callable, Deque, Dict, Optional, Set

from ..sim import Event, Simulator, Wait, WaitTimeout

#: Fault-injection hook: called with (tid, key, mode) whenever a request
#: would have to wait; returning True forces an immediate timeout
#: (simulating a lock-timeout storm / deadlock victim).
TimeoutFaultHook = Callable[[int, object, "LockMode"], bool]


class LockMode(enum.Enum):
    """Lock modes, Gray-style multi-granularity lattice.

    The flat manager only ever grants S and X.  The intention modes
    (IS/IX/SIX) exist for :class:`repro.hlock.HierarchicalLockManager`,
    which plants them on ancestor granules (partition, page) before
    locking an object; keeping the whole lattice here lets the
    hierarchical manager reuse every queue/upgrade/dispatch path below
    unchanged.

    Each member carries the lattice as attributes, so no lock-table path
    hashes a mode (``Enum.__hash__`` is Python code).  Masks are over
    the members' ``bit``; ``rank`` is the position in weakest-first
    order:

    * ``compatible`` — granted modes a request in this mode coexists with;
    * ``covers`` — modes this held mode satisfies re-entrantly;
    * ``sup[other.rank]`` — the weakest mode covering both, what an
      upgrade targets (sup(S, X) = X; sup(S, IX) = SIX — the SIX mode
      exists precisely as this supremum);
    * ``intent`` — the intention mode an acquisition in this mode needs
      on every ancestor granule;
    * ``implicit_below`` — the mode a coarse lock in this mode implicitly
      holds on every descendant (``None`` for IS and IX), and
      ``covers_below`` — the descendant modes it therefore satisfies
      without a fine lock (SIX's IX half only licenses the holder's own
      further fine X locks, so implicitly it is S below).
    """

    IS = "IS"
    IX = "IX"
    S = "S"
    SIX = "SIX"
    X = "X"


_IS, _IX, _S, _SIX, _X = LockMode


def _build_lattice() -> None:
    for rank, mode in enumerate(LockMode):  # declared weakest first
        mode.rank, mode.bit = rank, 1 << rank
    # mode, the granted modes a request in it is compatible with (Gray's
    # matrix, CONCURRENCY.md), the modes it covers, its ancestor intent,
    # the mode it implies below.
    for mode, compatible, covers, intent, implicit_below in (
            (_IS, (_IS, _IX, _S, _SIX), (_IS,), _IS, None),
            (_IX, (_IS, _IX), (_IS, _IX), _IX, None),
            (_S, (_IS, _S), (_IS, _S), _IS, _S),
            (_SIX, (_IS,), (_IS, _IX, _S, _SIX), _IX, _S),
            (_X, (), tuple(LockMode), _IX, _X)):
        mode.compatible = sum(m.bit for m in compatible)
        mode.covers = sum(m.bit for m in covers)
        mode.intent, mode.implicit_below = intent, implicit_below
    for a in LockMode:
        below = a.implicit_below
        a.covers_below = 0 if below is None else below.covers
        a.sup = tuple(next(m for m in LockMode
                           if m.covers & a.bit and m.covers & b.bit)
                      for b in LockMode)


_build_lattice()


class LockTimeoutError(Exception):
    """A lock request timed out — treated as a deadlock; the requester
    aborts (user transactions) or retries (the reorganizer, §4.4)."""

    def __init__(self, tid: int, key, mode: LockMode):
        super().__init__(f"txn {tid} timed out requesting {mode.value} on {key}")
        self.tid = tid
        self.key = key
        self.mode = mode


class DeadlockError(LockTimeoutError):
    """The waits-for detector proved a cycle and chose this requester as
    the victim.  Subclasses :class:`LockTimeoutError` so every existing
    handler (transaction abort + retry, reorganizer batch retry) treats
    a detected deadlock exactly like a timed-out one — just much sooner.
    """

    def __init__(self, tid: int, key, mode: LockMode, cycle):
        Exception.__init__(
            self, f"txn {tid} would deadlock requesting {mode.value} on "
                  f"{key} (cycle {'→'.join(str(t) for t in cycle)})")
        self.tid = tid
        self.key = key
        self.mode = mode
        #: The tids on the waits-for cycle the request would have closed.
        self.cycle = tuple(cycle)


class _Request:
    __slots__ = ("tid", "mode", "event", "upgrade")

    def __init__(self, tid: int, mode: LockMode, event: Event, upgrade: bool):
        self.tid = tid
        self.mode = mode
        self.event = event
        self.upgrade = upgrade


class _LockEntry:
    __slots__ = ("granted", "queue")

    def __init__(self) -> None:
        self.granted: Dict[int, LockMode] = {}
        self.queue: Deque[_Request] = deque()


class LockStats:
    """Aggregate contention counters, reported by the benchmarks."""

    __slots__ = ("requests", "waits", "timeouts", "forced_timeouts",
                 "total_wait_ms", "deadlock_victims", "cycles_detected",
                 "table_peak", "escalations", "deescalations",
                 "escalation_failures")

    def __init__(self) -> None:
        self.requests = 0
        self.waits = 0
        self.timeouts = 0
        self.forced_timeouts = 0
        self.total_wait_ms = 0.0
        #: Requests refused at block time by the waits-for detector.
        self.deadlock_victims = 0
        #: Distinct cycles the detector observed (== victims: one victim
        #: breaks exactly the cycle it closed).
        self.cycles_detected = 0
        #: High-water mark of live lock-table entries (distinct keys with
        #: at least one grant or waiter) — the axis the hierarchical
        #: manager's escalation trades conflict rate against.
        self.table_peak = 0
        #: Hierarchical-manager escalation counters; stay 0 on the flat
        #: manager.
        self.escalations = 0
        self.deescalations = 0
        self.escalation_failures = 0


class LockManager:
    """S/X locks keyed by arbitrary hashable keys (OIDs in practice)."""

    def __init__(self, sim: Simulator, timeout_ms: float = 1000.0,
                 track_history: bool = True, detection: str = "timeout"):
        if detection not in ("timeout", "waits-for"):
            raise ValueError(f"detection={detection!r}; choose 'timeout' "
                             f"or 'waits-for'")
        self.sim = sim
        self.timeout_ms = timeout_ms
        self.track_history = track_history
        self.detection = detection
        self._table: Dict[object, _LockEntry] = {}
        #: tid -> key it is currently blocked on (a process waits on at
        #: most one lock at a time) — the waits-for graph's wait edges.
        self._waiting: Dict[int, object] = {}
        self._held_by: Dict[int, Set[object]] = {}
        # §4.1 history: key -> active tids that ever locked it, + reverse.
        self._history: Dict[object, Set[int]] = {}
        self._tid_history: Dict[int, Set[object]] = {}
        self.fault_hook: Optional[TimeoutFaultHook] = None
        #: The engine's subscribers (``StorageEngine.subscribe`` sets
        #: both), shown every grant or upgrade and every release.
        self.probes: tuple = ()
        self.stats = LockStats()

    # -- acquisition ---------------------------------------------------------

    def try_acquire(self, tid: int, key, mode: LockMode) -> bool:
        """Synchronous fast path: grant immediately if possible.

        Counts the request either way.  Returns ``False`` when the caller
        must wait — follow up with :meth:`acquire_wait` (or just use
        :meth:`acquire`, which composes both).  Exists so the hottest
        transactional paths can skip a generator on the uncontended case.
        """
        self.stats.requests += 1
        entry = self._table.get(key)
        if entry is None:
            # First touch of a key: trivially grantable, nothing queued.
            entry = _LockEntry()
            self._table[key] = entry
            if len(self._table) > self.stats.table_peak:
                self.stats.table_peak = len(self._table)
            self._grant(entry, tid, mode, key)
            return True

        held = entry.granted.get(tid)
        if held is not None:
            if held.covers & mode.bit:
                return True  # re-entrant; already strong enough
            # Upgrade to the supremum of held and requested (S+X → X,
            # S+IX → SIX, ...); granted synchronously when compatible with
            # every *other* holder — for the flat manager's only upgrade
            # (S → X) that is exactly the "sole holder" rule.
            target = held.sup[mode.rank]
            if self._grantable(entry, target, ignore_tid=tid):
                entry.granted[tid] = target
                for probe in self.probes:
                    probe.lock("grant", tid, key, target)
                return True
            return False
        if not entry.queue and self._grantable(entry, mode):
            self._grant(entry, tid, mode, key)
            return True
        return False

    def acquire(self, tid: int, key, mode: LockMode,
                timeout_ms: Optional[float] = None):
        """Blocking acquire (generator).  Raises :class:`LockTimeoutError`
        if not granted within the timeout."""
        if self.try_acquire(tid, key, mode):
            return
        yield from self.acquire_wait(tid, key, mode, timeout_ms)

    def acquire_wait(self, tid: int, key, mode: LockMode,
                     timeout_ms: Optional[float] = None):
        """The wait path — only valid right after :meth:`try_acquire`
        returned ``False`` (the entry exists and is not grantable)."""
        entry = self._table[key]
        held = entry.granted.get(tid)
        upgrade = held is not None and not held.covers & mode.bit

        # Upgrades queue at the front (they already hold a lock and
        # would otherwise deadlock behind requests blocked on it).
        if self.fault_hook is not None and self.fault_hook(tid, key, mode):
            # Injected lock-timeout storm: fail as if the full timeout had
            # elapsed, without occupying a queue slot.
            self.stats.timeouts += 1
            self.stats.forced_timeouts += 1
            raise LockTimeoutError(tid, key, mode)
        gate = self.sim.event(name=f"lock:{key}:{tid}")
        request = _Request(tid, held.sup[mode.rank] if upgrade else mode,
                           gate, upgrade)
        if upgrade:
            entry.queue.appendleft(request)
        else:
            entry.queue.append(request)
        self.stats.waits += 1
        self._waiting[tid] = key
        if self.detection == "waits-for":
            cycle = self._find_cycle(tid)
            if cycle is not None:
                # The requester closed a waits-for cycle: it is the
                # victim, refused at block time (the timeout never runs).
                self.stats.cycles_detected += 1
                self.stats.deadlock_victims += 1
                del self._waiting[tid]
                entry.queue.remove(request)
                self._dispatch(entry, key)
                raise DeadlockError(tid, key, mode, cycle)
        wait_started = self.sim.now
        effective_timeout = (timeout_ms if timeout_ms is not None
                             else self.timeout_ms)
        if effective_timeout == float("inf"):
            effective_timeout = None  # wait forever (PQR's quiesce locks)
        try:
            yield Wait(gate, timeout=effective_timeout)
        except WaitTimeout:
            self.stats.timeouts += 1
            try:
                entry.queue.remove(request)
            except ValueError:
                pass  # granted concurrently with the timeout firing
            else:
                if self._waiting.get(tid) == key:
                    del self._waiting[tid]
                self._dispatch(entry, key)
                raise LockTimeoutError(tid, key, mode) from None
        except BaseException:
            # Killed while blocked (chaos kill): withdraw the queued
            # request so a later dispatch doesn't grant to the corpse.
            # A lock granted concurrently with the kill is settled when
            # the orphaned transaction is reaped (``release_all``).
            try:
                entry.queue.remove(request)
            except ValueError:
                pass
            else:
                self._dispatch(entry, key)
            if self._waiting.get(tid) == key:
                del self._waiting[tid]
            raise
        finally:
            self.stats.total_wait_ms += self.sim.now - wait_started

    # -- release -------------------------------------------------------------------

    def release(self, tid: int, key) -> None:
        """Release one lock (short-duration-lock mode, §4.1)."""
        entry = self._table.get(key)
        if entry is None or tid not in entry.granted:
            raise KeyError(f"txn {tid} holds no lock on {key}")
        del entry.granted[tid]
        held = self._held_by.get(tid)
        if held is not None:
            held.discard(key)
        for probe in self.probes:
            probe.lock("release", tid, key, None)
        self._dispatch(entry, key)

    def release_all(self, tid: int) -> Set[object]:
        """Release everything ``tid`` holds (strict 2PL at txn end)."""
        keys = self._held_by.pop(tid, set())
        table = self._table
        probes = self.probes
        for key in keys:
            entry = table.get(key)
            if entry is not None and tid in entry.granted:
                del entry.granted[tid]
                if probes:
                    for probe in probes:
                        probe.lock("release", tid, key, None)
                if entry.queue:
                    self._dispatch(entry, key)
                elif not entry.granted:
                    # ``_dispatch``'s empty-entry cleanup, inlined for the
                    # common uncontended release (nothing queued).
                    del table[key]
        return keys

    def transaction_finished(self, tid: int) -> None:
        """Clear §4.1 lock history for a completed transaction."""
        for key in self._tid_history.pop(tid, set()):
            lockers = self._history.get(key)
            if lockers is not None:
                lockers.discard(tid)
                if not lockers:
                    del self._history[key]

    # -- introspection ----------------------------------------------------------------

    def holders(self, key) -> Dict[int, LockMode]:
        entry = self._table.get(key)
        return dict(entry.granted) if entry else {}

    def holds(self, tid: int, key, mode: Optional[LockMode] = None) -> bool:
        held = self._table.get(key)
        if held is None or tid not in held.granted:
            return False
        if mode is None:
            return True
        return held.granted[tid].covers & mode.bit != 0

    def held_keys(self, tid: int) -> Set[object]:
        return set(self._held_by.get(tid, set()))

    def lock_count(self, tid: int) -> int:
        return len(self._held_by.get(tid, ()))

    def object_lock_count(self, tid: int) -> int:
        """Distinct *object-level* locks held — the unit of the paper's
        two-lock footprint guarantee.  Identical to :meth:`lock_count`
        here; the hierarchical manager excludes ancestor granules."""
        return len(self._held_by.get(tid, ()))

    def counters_summary(self) -> Dict[str, object]:
        """Lock-manager counters for metrics / bench payloads."""
        return self._counters("flat")

    def _counters(self, manager: str) -> Dict[str, object]:
        s = self.stats
        return {
            "manager": manager,
            "acquires": s.requests,
            "conflicts": s.waits,
            "escalations": s.escalations,
            "deescalations": s.deescalations,
            "table_peak": s.table_peak,
        }

    def waiter_count(self, key) -> int:
        entry = self._table.get(key)
        return len(entry.queue) if entry else 0

    def ever_lockers(self, key) -> Set[int]:
        """Active transactions that have ever locked ``key`` (§4.1).

        Answers from the history alone, which is kept only under
        ``track_history`` — an engine turns that on exactly when its
        transactions release read locks early, and under strict 2PL
        nothing calls this: every locker still holds its lock.
        """
        return set(self._history.get(key, ()))

    # -- waits-for deadlock detection ----------------------------------------------

    def _blockers(self, tid: int, key) -> Set[int]:
        """Tids that ``tid``'s queued request on ``key`` waits for: every
        granted holder (other than ``tid`` itself — upgrades hold S), plus
        every incompatible request queued ahead of it (grants are FIFO, so
        a request behind a blocked request is transitively blocked)."""
        entry = self._table.get(key)
        if entry is None:
            return set()
        out = {t for t in entry.granted if t != tid}
        for request in entry.queue:
            if request.tid == tid:
                break
            out.add(request.tid)
        return out

    def _find_cycle(self, start: int):
        """DFS over the waits-for graph from ``start`` (which just added
        a wait edge); returns the tid cycle as a list, or ``None``.  Only
        waiting tids have out-edges, so the graph is tiny — one node per
        blocked process."""
        path: list = []
        on_path: Set[int] = set()
        # stack of (tid, iterator over its blockers)
        key = self._waiting.get(start)
        if key is None:
            return None
        stack = [(start, iter(self._blockers(start, key)))]
        path.append(start)
        on_path.add(start)
        visited: Set[int] = {start}
        while stack:
            tid, edges = stack[-1]
            advanced = False
            for nxt in edges:
                if nxt in on_path:
                    # Found a cycle: slice the path from nxt onwards.
                    return path[path.index(nxt):]
                if nxt in visited:
                    continue
                visited.add(nxt)
                nxt_key = self._waiting.get(nxt)
                if nxt_key is None:
                    continue  # not blocked: no out-edges
                stack.append((nxt, iter(self._blockers(nxt, nxt_key))))
                path.append(nxt)
                on_path.add(nxt)
                advanced = True
                break
            if not advanced:
                stack.pop()
                on_path.discard(path.pop())
        return None

    # -- internals -----------------------------------------------------------------------

    def _grantable(self, entry: _LockEntry, mode: LockMode,
                   ignore_tid: Optional[int] = None) -> bool:
        # Allocation-free: this runs on every request (and again per
        # queued request on every release), so no throwaway mode list.
        # Identity fast paths for the four modes the managers request
        # (S/X fine locks, IS/IX intents); SIX only arises as an upgrade.
        granted = entry.granted
        if not granted:
            return True
        if mode is _S:
            for t, m in granted.items():
                if (m is _X or m is _IX or m is _SIX) and t != ignore_tid:
                    return False
            return True
        if mode is _X:
            for t in granted:
                if t != ignore_tid:
                    return False
            return True
        if mode is _IS:
            for t, m in granted.items():
                if m is _X and t != ignore_tid:
                    return False
            return True
        if mode is _IX:
            for t, m in granted.items():
                if m is not _IS and m is not _IX and t != ignore_tid:
                    return False
            return True
        compatible = mode.compatible
        for t, m in granted.items():
            if not m.bit & compatible and t != ignore_tid:
                return False
        return True

    def _grant(self, entry: _LockEntry, tid: int, mode: LockMode, key) -> None:
        # get-or-insert instead of ``setdefault``: this runs per grant,
        # and ``setdefault`` allocates its throwaway default set even on
        # the (overwhelmingly common) hit.
        entry.granted[tid] = mode
        held = self._held_by.get(tid)
        if held is None:
            held = self._held_by[tid] = set()
        held.add(key)
        if self.track_history:
            lockers = self._history.get(key)
            if lockers is None:
                lockers = self._history[key] = set()
            lockers.add(tid)
            keys = self._tid_history.get(tid)
            if keys is None:
                keys = self._tid_history[tid] = set()
            keys.add(key)
        if self.probes:
            for probe in self.probes:
                probe.lock("grant", tid, key, mode)

    def _dispatch(self, entry: _LockEntry, key) -> None:
        """Grant queued requests from the front while compatible (FIFO)."""
        while entry.queue:
            request = entry.queue[0]
            if request.upgrade:
                if self._grantable(entry, request.mode,
                                   ignore_tid=request.tid):
                    entry.queue.popleft()
                    self._waiting.pop(request.tid, None)
                    entry.granted[request.tid] = request.mode
                    for probe in self.probes:
                        probe.lock("grant", request.tid, key, request.mode)
                    request.event.succeed()
                    continue
                break
            if self._grantable(entry, request.mode):
                entry.queue.popleft()
                self._waiting.pop(request.tid, None)
                self._grant(entry, request.tid, request.mode, key)
                request.event.succeed()
                continue
            break
        if not entry.granted and not entry.queue and \
                self._table.get(key) is entry:
            # Keep the table from accumulating dead entries.
            del self._table[key]
