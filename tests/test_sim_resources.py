"""Unit tests for FCFS resources, the CPU meter and mutexes."""

import re
from pathlib import Path

import pytest

import repro
from repro.sim import CpuMeter, Delay, Hold, Mutex, Resource, Simulator


def test_resource_grants_immediately_when_free():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")

    def proc():
        yield from cpu.use(5.0)
        return sim.now

    assert sim.run_process(proc()) == 5.0


def test_resource_serializes_capacity_one():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    finish = {}

    def proc(tag):
        yield from cpu.use(10.0)
        finish[tag] = sim.now

    sim.spawn(proc("a"))
    sim.spawn(proc("b"))
    sim.run()
    assert finish == {"a": 10.0, "b": 20.0}


def test_resource_fifo_ordering():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    order = []

    def proc(tag):
        yield from cpu.use(1.0)
        order.append(tag)

    for tag in range(5):
        sim.spawn(proc(tag))
    sim.run()
    assert order == [0, 1, 2, 3, 4]


def test_resource_capacity_two_overlaps():
    sim = Simulator()
    disk = Resource(sim, capacity=2)
    finish = {}

    def proc(tag):
        yield from disk.use(10.0)
        finish[tag] = sim.now

    for tag in ("a", "b", "c"):
        sim.spawn(proc(tag))
    sim.run()
    assert finish == {"a": 10.0, "b": 10.0, "c": 20.0}


def test_release_without_acquire_is_an_error():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    with pytest.raises(RuntimeError):
        cpu.release()


def test_resource_released_on_exception_via_use():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)

    def bad():
        try:
            gen = cpu.use(10.0)
            yield from gen
        finally:
            pass

    def killer():
        yield Delay(5)
        handle.kill()

    handle = sim.spawn(bad())
    sim.spawn(killer())
    sim.run()
    assert cpu.in_use == 0  # the finally inside use() released it


def test_utilization_accounting():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)

    def proc():
        yield from cpu.use(30.0)
        yield Delay(70.0)

    sim.run_process(proc())
    assert cpu.utilization() == pytest.approx(0.3)


def test_invalid_capacity_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        Resource(sim, capacity=0)


def test_cpu_meter_batches_charges():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    meter = CpuMeter(cpu, chunk_ms=10.0)

    def proc():
        for _ in range(25):
            yield from meter.charge(1.0)
        yield from meter.flush()
        return sim.now

    # 25 ms of work paid in 10+10+5 chunks.
    assert sim.run_process(proc()) == 25.0
    assert cpu.total_acquisitions == 3


def test_cpu_meter_flush_empty_is_noop():
    sim = Simulator()
    cpu = Resource(sim, capacity=1)
    meter = CpuMeter(cpu, chunk_ms=10.0)

    def proc():
        yield from meter.flush()
        return sim.now

    assert sim.run_process(proc()) == 0.0
    assert cpu.total_acquisitions == 0


def test_mutex_mutual_exclusion():
    sim = Simulator()
    mutex = Mutex(sim)
    trace = []

    def proc(tag):
        yield from mutex.acquire()
        trace.append((tag, "in", sim.now))
        yield Delay(5)
        trace.append((tag, "out", sim.now))
        mutex.release()

    sim.spawn(proc("a"))
    sim.spawn(proc("b"))
    sim.run()
    assert trace == [("a", "in", 0), ("a", "out", 5),
                     ("b", "in", 5), ("b", "out", 10)]


def test_mutex_locked_flag():
    sim = Simulator()
    mutex = Mutex(sim)

    def proc():
        assert not mutex.locked
        yield from mutex.acquire()
        assert mutex.locked
        mutex.release()
        assert not mutex.locked

    sim.run_process(proc())


# -- kill safety --------------------------------------------------------------
#
# A process killed at its resource wait (the chaos-kill path: the fleet
# reaps a dead reorganizer worker and the sim keeps running) must leak
# neither its queue entry nor a just-granted slot — otherwise the
# resource wedges for every later user.

def test_kill_while_queued_does_not_wedge_resource():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish = {}

    def proc(tag, duration):
        yield from cpu.use(duration)
        finish[tag] = sim.now

    sim.spawn(proc("holder", 50.0))
    victim = sim.spawn(proc("victim", 10.0))
    sim.spawn(proc("survivor", 10.0))
    sim.call_later(20.0, victim.kill)
    sim.run()
    # The victim's queue entry is withdrawn: the slot freed at t=50 goes
    # straight to the survivor, and the resource ends idle.
    assert finish == {"holder": 50.0, "survivor": 60.0}
    assert cpu.in_use == 0
    assert cpu.queue_length == 0


def test_kill_after_grant_before_resume_releases_slot():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish = {}

    def proc(tag, duration):
        yield from cpu.use(duration)
        finish[tag] = sim.now

    sim.spawn(proc("holder", 50.0))
    victim = sim.spawn(proc("victim", 10.0))
    sim.spawn(proc("survivor", 10.0))
    # release() pre-grants the slot to the victim's gate at t=50; the
    # kill lands in the same instant, before the victim resumes.
    sim.call_later(50.0, victim.kill)
    sim.run()
    assert finish == {"holder": 50.0, "survivor": 60.0}
    assert cpu.in_use == 0
    assert cpu.queue_length == 0


def test_kill_while_queued_on_acquire_path():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish = {}

    def holder():
        yield from cpu.use(30.0)

    def via_acquire(tag):
        yield from cpu.acquire()
        try:
            yield Delay(10.0)
        finally:
            cpu.release()
        finish[tag] = sim.now

    sim.spawn(holder())
    victim = sim.spawn(via_acquire("victim"))
    sim.spawn(via_acquire("survivor"))
    sim.call_later(10.0, victim.kill)
    sim.run()
    assert finish == {"survivor": 40.0}
    assert cpu.in_use == 0
    assert cpu.queue_length == 0


# The same guarantees for the ``Hold`` command itself, which parks the
# process (not a gate) on the FIFO and leaves the generator no ``finally``
# to clean up in: the kernel's ``Process._cancel_hold`` does it.

def _hold_users(sim, cpu, finish, *specs):
    def proc(tag, duration):
        yield Hold(cpu, duration)
        finish[tag] = sim.now

    return {tag: sim.spawn(proc(tag, duration), name=tag)
            for tag, duration in specs}


def _kill_at(sim, when, victim, seen, cpu):
    """Kill from a process spawned last: at a shared instant its step
    runs after every earlier-scheduled completion (hence after the
    hand-off that completion makes) and before the ready-FIFO wake-up."""
    def killer():
        yield Delay(when)
        seen.append((cpu.in_use, cpu.queue_length))
        victim.kill()

    sim.spawn(killer(), name="killer")


def test_hold_kill_while_queued():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish, seen = {}, []
    procs = _hold_users(sim, cpu, finish, ("holder", 50.0),
                        ("victim", 10.0), ("survivor", 10.0))
    _kill_at(sim, 20.0, procs["victim"], seen, cpu)
    sim.run()
    assert seen == [(1, 2)]
    assert finish == {"holder": 50.0, "survivor": 60.0}
    assert (cpu.in_use, cpu.queue_length) == (0, 0)
    assert cpu.total_acquisitions == 2


def test_hold_kill_between_grant_and_start():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish, seen = {}, []
    procs = _hold_users(sim, cpu, finish, ("holder", 50.0),
                        ("victim", 10.0), ("survivor", 10.0))
    _kill_at(sim, 50.0, procs["victim"], seen, cpu)
    sim.run()
    # At the kill the holder is gone and the slot is already the
    # victim's (one in use, only the survivor queued): the kill hands it
    # on in the same instant, and the victim's pending start is inert.
    assert seen == [(1, 1)]
    assert finish == {"holder": 50.0, "survivor": 60.0}
    assert (cpu.in_use, cpu.queue_length) == (0, 0)
    assert cpu.total_acquisitions == 3  # the victim's grant counted


def test_hold_kill_mid_service():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish, seen = {}, []
    procs = _hold_users(sim, cpu, finish, ("victim", 50.0),
                        ("survivor", 10.0))
    _kill_at(sim, 20.0, procs["victim"], seen, cpu)
    sim.run()
    # The survivor is served from the kill, not from t=50 — and the
    # victim's end-of-service entry at t=50 releases nothing.
    assert seen == [(1, 1)]
    assert finish == {"survivor": 30.0}
    assert sim.now == 50.0
    assert (cpu.in_use, cpu.queue_length) == (0, 0)
    assert cpu.total_busy_time == 30.0


def test_hold_kill_all_with_queue_three_deep():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    finish = {}
    _hold_users(sim, cpu, finish, ("holder", 50.0), ("q1", 10.0),
                ("q2", 10.0), ("q3", 10.0))
    sim.run(until=20.0)
    assert (cpu.in_use, cpu.queue_length) == (1, 3)
    sim.kill_all()
    assert (cpu.in_use, cpu.queue_length) == (0, 0)
    # The resource is usable afterwards.
    _hold_users(sim, cpu, finish, ("after", 5.0))
    sim.run()
    assert finish == {"after": 25.0}


def test_hold_capacity_two_kill_frees_one_slot():
    sim = Simulator()
    disk = Resource(sim, capacity=2, name="disk")
    finish, seen = {}, []
    procs = _hold_users(sim, disk, finish, ("a", 30.0), ("victim", 30.0),
                        ("c", 10.0), ("d", 10.0))
    _kill_at(sim, 5.0, procs["victim"], seen, disk)
    sim.run()
    assert seen == [(2, 2)]
    assert finish == {"a": 30.0, "c": 15.0, "d": 25.0}
    assert (disk.in_use, disk.queue_length) == (0, 0)


def test_fifo_across_gate_waiters_and_hold_waiters():
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    order = []

    def via_hold(tag):
        yield Hold(cpu, 1.0)
        order.append((tag, sim.now))

    def via_acquire(tag):
        yield from cpu.acquire()
        try:
            yield Delay(1.0)
        finally:
            cpu.release()
        order.append((tag, sim.now))

    for tag, user in enumerate([via_hold, via_acquire, via_hold, via_hold,
                                via_acquire, via_acquire, via_hold]):
        sim.spawn(user(tag))
    sim.run()
    assert order == [(tag, tag + 1.0) for tag in range(7)]
    assert cpu.total_acquisitions == 7


@pytest.mark.parametrize("busy", [False, True])
def test_negative_hold_raises_before_taking_slot_or_queue_place(busy):
    sim = Simulator()
    cpu = Resource(sim, capacity=1, name="cpu")
    seen = []

    def proc():
        try:
            yield from cpu.use(-1.0)
        except ValueError:
            seen.append((cpu.in_use, cpu.queue_length))
            raise

    if busy:
        _hold_users(sim, cpu, {}, ("holder", 5.0))
    bad = sim.spawn(proc())
    with pytest.raises(ValueError):
        sim.run()
    assert not bad.alive
    assert seen == [(1, 0) if busy else (0, 0)]
    assert cpu.total_acquisitions == (1 if busy else 0)
    with pytest.raises(ValueError):
        Hold(cpu, -0.5)


# -- the structural guard -----------------------------------------------------

def test_one_way_to_charge_a_resource_and_one_to_take_it():
    """``Hold`` (directly or through ``Resource.use``) charges a resource
    for time; ``acquire``/``release`` bracket a critical section.  The
    hand-inlined third way (``try_use`` / ``wait_gate`` / ``cancel_wait``
    around a ``Delay``) must not grow back."""
    src = Path(repro.__file__).parent
    hits = sorted(
        (path.relative_to(src).as_posix(), number)
        for path in src.rglob("*.py")
        for number, line in enumerate(path.read_text().splitlines(), 1)
        if re.search(r"\b(try_use|wait_gate|cancel_wait)\b", line))
    assert hits == []
