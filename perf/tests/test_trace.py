"""Span self time, simulated durations and installation."""

import pytest

from perf.trace import (CALLS, HOST_SELF, HOST_TOTAL, SIM_SELF, SIM_TOTAL,
                        TracePoint, Tracer)


class FakeHost:
    """A host clock that advances only when the code under test says so."""

    def __init__(self):
        self.now = 0.0

    def clock(self):
        return self.now

    def work(self, seconds):
        self.now += seconds


class FakeSim:
    def __init__(self):
        self.now = 0.0


def rows(tracer):
    return {name: row for (name, _), row in zip(tracer.names, tracer.agg)}


def test_self_time_on_a_nested_yield_from_chain():
    host, sim = FakeHost(), FakeSim()
    tracer = Tracer(clock=host.clock)
    tracer.sim = sim

    def inner():
        host.work(1.0)
        yield "wait-a"            # suspended: other processes run
        host.work(2.0)
        return "inner-done"

    def outer():
        host.work(10.0)
        result = yield from traced_inner()
        host.work(20.0)
        yield "wait-b"
        host.work(30.0)
        return result

    traced_inner = tracer.wrap_gen(inner, "inner", "low")
    traced_outer = tracer.wrap_gen(outer, "outer", "high")

    gen = traced_outer()
    assert gen.send(None) == "wait-a"
    host.work(1000.0)             # somebody else's time: in no span
    sim.now = 5.0
    assert gen.send(None) == "wait-b"
    host.work(1000.0)
    sim.now = 9.0
    with pytest.raises(StopIteration) as done:
        gen.send(None)
    assert done.value.value == "inner-done"

    by_name = rows(tracer)
    assert by_name["inner"][HOST_TOTAL] == pytest.approx(3.0)
    assert by_name["inner"][HOST_SELF] == pytest.approx(3.0)
    # The outer resumes contain the inner ones; self time subtracts them.
    assert by_name["outer"][HOST_TOTAL] == pytest.approx(63.0)
    assert by_name["outer"][HOST_SELF] == pytest.approx(60.0)
    assert by_name["inner"][CALLS] == by_name["outer"][CALLS] == 1
    # Simulated: inner waited 0 -> 5, outer 0 -> 9 of which 4 on its own.
    assert by_name["inner"][SIM_TOTAL] == pytest.approx(5.0)
    assert by_name["outer"][SIM_TOTAL] == pytest.approx(9.0)
    assert by_name["outer"][SIM_SELF] == pytest.approx(4.0)
    assert not tracer.stack


def test_plain_calls_nest_inside_generator_resumes():
    host = FakeHost()
    tracer = Tracer(clock=host.clock, keep_spans=True)

    def leaf():
        host.work(0.5)

    traced_leaf = tracer.wrap_call(leaf, "leaf", "low")

    def body():
        host.work(1.0)
        traced_leaf()
        yield
        traced_leaf()

    gen = tracer.wrap_gen(body, "body", "high")()
    next(gen)
    with pytest.raises(StopIteration):
        next(gen)
    by_name = rows(tracer)
    assert by_name["leaf"][CALLS] == 2
    assert by_name["leaf"][HOST_SELF] == pytest.approx(1.0)
    assert by_name["body"][HOST_SELF] == pytest.approx(1.0)
    assert by_name["body"][HOST_TOTAL] == pytest.approx(2.0)
    # Both leaf spans name the generator span as the span that caused them.
    body_id = next(s[0] for s in tracer.spans
                   if tracer.names[s[2]][0] == "body")
    assert [s[1] for s in tracer.spans
            if tracer.names[s[2]][0] == "leaf"] == [body_id, body_id]


def test_spawned_processes_get_a_root_span_and_own_their_spans():
    host = FakeHost()
    tracer = Tracer(clock=host.clock, keep_spans=True,
                    process_layers=(("thread-", "workload"),))
    spawned = []

    class Kernel:
        def spawn(self, gen, name=""):
            spawned.append(gen)

    def op():
        host.work(1.0)
        yield

    traced_op = tracer.wrap_gen(op, "op", "txn")

    def thread():
        host.work(2.0)
        yield from traced_op()

    tracer.install([TracePoint(Kernel, "spawn", "sim", kind="spawn")])
    try:
        Kernel().spawn(thread(), name="thread-7")
    finally:
        tracer.uninstall()
    proc = spawned[0]
    next(proc)
    with pytest.raises(StopIteration):
        next(proc)
    by_name = rows(tracer)
    assert tracer.names[tracer._ids["proc:thread-#"]][1] == "workload"
    assert by_name["proc:thread-#"][HOST_SELF] == pytest.approx(2.0)
    assert by_name["op"][HOST_SELF] == pytest.approx(1.0)
    assert {s[3] for s in tracer.spans} == {"thread-7"}


def test_install_wraps_in_place_and_uninstall_restores():
    class Base:
        def go(self):
            return "went"

    class Child(Base):
        pass

    original = Base.__dict__["go"]
    tracer = Tracer()
    tracer.install([TracePoint(Base, "go", "layer")])
    assert Child().go() == "went"
    assert rows(tracer)["Base.go"][CALLS] == 1
    tracer.uninstall()
    assert Base.__dict__["go"] is original
    # Wrapping an inherited method on the subclass would double-count.
    with pytest.raises(AttributeError):
        tracer.install([TracePoint(Child, "go", "layer")])


def test_counts_captured_at_a_boundary_are_summed():
    tracer = Tracer()
    traced = tracer.wrap_call(lambda n: n, "f", "layer",
                              capture=lambda args, result: {"seen": result})
    traced(2)
    traced(5)
    assert tracer.counts == {"seen": 7}
