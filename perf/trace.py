"""Spans at layer boundaries, recorded from outside the program.

Before any engine is constructed the adapter hands :meth:`Tracer.install`
a fixed list of public entry points; each is replaced *on its class or
module* by a timing wrapper and restored by :meth:`Tracer.uninstall`.
Nothing inside ``src/`` knows it is being traced.

A span has a name, a layer, host start/end, simulated start/end, the
span that caused it and the simulated process (thread, reorganizer,
server…) it ran in.  Two shapes:

* a plain call is one host interval;
* a generator entry point is one span with one host *segment* per
  resume — the kernel suspends a generator at every ``yield`` and runs
  other processes in between, so only the segments are this span's time.

**Self time** is a span's host time minus the host time of the segments
and calls nested inside it; the nesting is the host call stack, so it is
exact even across ``yield from`` chains (the outer generator's resume
contains the inner one's).  **Simulated waiting** at a boundary is the
span's simulated duration; a generator span's simulated self time
subtracts the simulated durations of the generator spans it delegated
to, which leaves what it waited for on its own (for transaction
operations: the CPU).

Aggregates are kept per name as spans finish; the span list itself is
kept only when ``keep_spans`` is set (it is what ``trace-*.jsonl`` holds).
"""

from __future__ import annotations

import json
import re
import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

#: Indices into a per-name aggregate row.
CALLS, HOST_SELF, HOST_TOTAL, SIM_TOTAL, SIM_SELF = range(5)


@dataclass(frozen=True)
class TracePoint:
    """One public entry point to wrap: ``getattr(owner, attr)``."""

    owner: Any
    attr: str
    layer: str
    #: ``call`` (plain function), ``gen`` (generator function), ``run``
    #: (the simulator loop: also tracks the running simulator's clock) or
    #: ``spawn`` (names the process each spawned generator runs as).
    kind: str = "call"
    #: Optional ``(args, result) -> {counter: number}`` read at the
    #: boundary after the call and summed into :attr:`Tracer.counts`
    #: (e.g. the log records one recovery analysed and redid).
    capture: Optional[Callable[[tuple, Any], Dict[str, float]]] = None
    #: Optional ``args -> suffix`` splitting one generator entry point
    #: into several span names (``Resource.use[cpu]`` / ``[data-disk]``).
    label: Optional[Callable[[tuple], str]] = None

    @property
    def name(self) -> str:
        owner = getattr(self.owner, "__name__", repr(self.owner))
        return f"{owner.rsplit('.', 1)[-1]}.{self.attr}"


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 keep_spans: bool = False,
                 process_layers: Iterable[Tuple[str, str]] = ()):
        self.clock = clock
        self.keep_spans = keep_spans
        #: ``(process-name prefix, layer)``; first match names the layer
        #: of a spawned process's own (root) span.
        self.process_layers = tuple(process_layers)
        self.names: List[Tuple[str, str]] = []
        self.agg: List[List[float]] = []
        self._ids: Dict[str, int] = {}
        #: Open host intervals, innermost last: ``[child_host, owner,
        #: span_id]`` where ``owner`` is the generator span (or ``None``).
        self.stack: List[list] = []
        self.sim = None
        self.proc = ""
        self.spans: List[tuple] = []
        #: Counts captured at traced boundaries, summed by counter name.
        self.counts: Dict[str, float] = {}
        self._next_span = 0
        self._installed: List[Tuple[Any, str, Any]] = []

    # -- names ----------------------------------------------------------------

    def point(self, name: str, layer: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append((name, layer))
            self.agg.append([0, 0.0, 0.0, 0.0, 0.0])
        return nid

    def sim_now(self) -> float:
        sim = self.sim
        return sim.now if sim is not None else 0.0

    def _span_id(self) -> int:
        self._next_span += 1
        return self._next_span

    # -- wrappers -------------------------------------------------------------

    def wrap_call(self, fn: Callable, name: str, layer: str,
                  capture: Optional[Callable[[tuple, Any],
                                             Dict[str, float]]] = None,
                  tracks_sim: bool = False) -> Callable:
        nid = self.point(name, layer)
        row = self.agg[nid]
        stack = self.stack
        clock = self.clock
        counts = self.counts

        def traced(*args, **kwargs):
            span_id = self._span_id()
            rec = [0.0, None, span_id]
            parent = stack[-1] if stack else None
            if tracks_sim:
                outer_sim, self.sim = self.sim, args[0]
            sim0 = self.sim_now()
            stack.append(rec)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                sim1 = self.sim_now()
                if tracks_sim:
                    self.sim = outer_sim
                row[CALLS] += 1
                row[HOST_SELF] += duration - rec[0]
                row[HOST_TOTAL] += duration
                row[SIM_TOTAL] += sim1 - sim0
                if capture is not None and result is not None:
                    for key, value in capture(args, result).items():
                        counts[key] = counts.get(key, 0.0) + value
                if parent is not None:
                    parent[0] += duration
                if self.keep_spans:
                    self.spans.append((
                        span_id, parent[2] if parent else 0, nid, self.proc,
                        start, end, duration, sim0, sim1, 1))
        traced.__wrapped__ = fn
        return traced

    def wrap_gen(self, fn: Callable, name: str, layer: str,
                 label: Optional[Callable[[tuple], str]] = None) -> Callable:
        nid = self.point(name, layer)

        def traced(*args, **kwargs):
            return GenSpan(self, fn(*args, **kwargs), nid)

        def traced_labelled(*args, **kwargs):
            labelled = self.point(f"{name}[{label(args)}]", layer)
            return GenSpan(self, fn(*args, **kwargs), labelled)

        wrapper = traced if label is None else traced_labelled
        wrapper.__wrapped__ = fn
        return wrapper

    def wrap_spawn(self, fn: Callable) -> Callable:
        """``Simulator.spawn(gen, name)``: run ``gen`` under a root span
        named after the process kind (``thread-7`` → ``proc:thread-#``)."""
        def traced(sim, gen, name: str = ""):
            kind = re.sub(r"\d+", "#", name) or "anonymous"
            layer = "engine"
            for prefix, candidate in self.process_layers:
                if name.startswith(prefix):
                    layer = candidate
                    break
            if hasattr(gen, "send"):
                gen = GenSpan(self, gen, self.point(f"proc:{kind}", layer),
                              process=name or kind)
            return fn(sim, gen, name)
        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def root(self, name: str, layer: str = "bench"):
        """A span around benchmark-side code (one rep): whatever no
        traced entry point covers lands in its self time."""
        nid = self.point(name, layer)
        row = self.agg[nid]
        rec = [0.0, None, self._span_id()]
        self.stack.append(rec)
        start = self.clock()
        try:
            yield
        finally:
            end = self.clock()
            self.stack.pop()
            row[CALLS] += 1
            row[HOST_SELF] += (end - start) - rec[0]
            row[HOST_TOTAL] += end - start
            if self.stack:
                self.stack[-1][0] += end - start
            if self.keep_spans:
                self.spans.append((rec[2], 0, nid, "", start, end,
                                   end - start, 0.0, 0.0, 1))

    # -- installation ---------------------------------------------------------

    def install(self, points: Iterable[TracePoint]) -> None:
        for point in points:
            owner = point.owner
            # Patch only where the attribute is defined: wrapping an
            # inherited method again on the subclass would double-count.
            namespace = vars(owner)
            if point.attr not in namespace:
                raise AttributeError(
                    f"{point.name}: not defined on {owner!r} itself")
            original = namespace[point.attr]
            fn = original.__func__ if isinstance(
                original, (staticmethod, classmethod)) else original
            if point.kind == "gen":
                wrapped = self.wrap_gen(fn, point.name, point.layer,
                                        label=point.label)
            elif point.kind == "spawn":
                wrapped = self.wrap_spawn(fn)
            else:
                wrapped = self.wrap_call(fn, point.name, point.layer,
                                         capture=point.capture,
                                         tracks_sim=point.kind == "run")
            if isinstance(original, staticmethod):
                wrapped = staticmethod(wrapped)
            elif isinstance(original, classmethod):
                wrapped = classmethod(wrapped)
            setattr(owner, point.attr, wrapped)
            self._installed.append((owner, point.attr, original))

    def uninstall(self) -> None:
        while self._installed:
            owner, attr, original = self._installed.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def rows(self) -> Dict[str, tuple]:
        """A snapshot of the aggregates: span name -> ``(calls, host self,
        host total, sim total, sim self)``."""
        return {name: tuple(row)
                for (name, _), row in zip(self.names, self.agg)}

    def layer_of(self) -> Dict[str, str]:
        return dict(self.names)

    @property
    def span_count(self) -> int:
        return self._next_span

    def write_jsonl(self, path: str) -> int:
        """One JSON object per finished span; returns the count."""
        with open(path, "w") as handle:
            for (span_id, parent, nid, proc, h0, h1, host,
                 s0, s1, resumes) in self.spans:
                name, layer = self.names[nid]
                handle.write(json.dumps({
                    "id": span_id, "parent": parent, "name": name,
                    "layer": layer, "proc": proc, "host_start": h0,
                    "host_end": h1, "host_s": host, "sim_start_ms": s0,
                    "sim_end_ms": s1, "resumes": resumes}) + "\n")
        return len(self.spans)


class GenSpan:
    """A generator entry point under trace: an iterator that forwards
    ``send``/``throw``/``close`` to the real generator and times each
    resume.  The kernel and ``yield from`` drive it exactly as they
    would the generator itself."""

    __slots__ = ("tracer", "gen", "nid", "process", "proc", "span_id",
                 "parent", "parent_id", "resumes", "host", "child_sim",
                 "sim0", "host0", "closed")

    def __init__(self, tracer: Tracer, gen, nid: int,
                 process: Optional[str] = None):
        self.tracer = tracer
        self.gen = gen
        self.nid = nid
        #: Set for a process's root span: the name its resumes run under.
        self.process = process
        #: The process this span ran in (fixed at its first resume).
        self.proc = process or ""
        self.span_id = 0
        self.parent: Optional["GenSpan"] = None
        self.parent_id = 0
        self.resumes = 0
        self.host = 0.0
        self.child_sim = 0.0
        self.sim0 = 0.0
        self.host0 = 0.0
        self.closed = False

    def __iter__(self):
        return self

    def __next__(self):
        return self._resume(self.gen.send, (None,))

    def send(self, value):
        return self._resume(self.gen.send, (value,))

    def throw(self, typ, val=None, tb=None):
        if val is None and tb is None:
            return self._resume(self.gen.throw, (typ,))
        return self._resume(self.gen.throw, (typ, val, tb))

    def close(self):
        try:
            self.gen.close()
        finally:
            self._finish(self.tracer.clock())

    def _resume(self, method, args):
        tracer = self.tracer
        stack = tracer.stack
        if self.resumes == 0:
            self.span_id = tracer._span_id()
            if stack:
                top = stack[-1]
                self.parent, self.parent_id = top[1], top[2]
            self.sim0 = tracer.sim_now()
            if self.process is None:
                self.proc = tracer.proc
        self.resumes += 1
        rec = [0.0, self, self.span_id]
        outer_proc = tracer.proc
        if self.process is not None:
            tracer.proc = self.process
        stack.append(rec)
        finished = False
        start = tracer.clock()
        if self.resumes == 1:
            self.host0 = start
        try:
            return method(*args)
        except BaseException:
            finished = True
            raise
        finally:
            end = tracer.clock()
            stack.pop()
            tracer.proc = outer_proc
            duration = end - start
            self.host += duration
            row = tracer.agg[self.nid]
            row[HOST_SELF] += duration - rec[0]
            row[HOST_TOTAL] += duration
            if stack:
                stack[-1][0] += duration
            if finished:
                self._finish(end)

    def _finish(self, host_end: float) -> None:
        if self.closed or self.resumes == 0:
            return
        self.closed = True
        tracer = self.tracer
        sim1 = tracer.sim_now()
        sim = sim1 - self.sim0
        row = tracer.agg[self.nid]
        row[CALLS] += 1
        row[SIM_TOTAL] += sim
        row[SIM_SELF] += sim - self.child_sim
        if self.parent is not None:
            self.parent.child_sim += sim
        if tracer.keep_spans:
            tracer.spans.append((
                self.span_id, self.parent_id, self.nid, self.proc,
                self.host0, host_end,
                self.host, self.sim0, sim1, self.resumes))
