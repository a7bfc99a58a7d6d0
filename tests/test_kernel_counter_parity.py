"""Counter parity across the modes of the kernel's one dispatch loop.

``Simulator.run`` has a single loop with two optional steps: the
horizon check (``until``) and the installed policy's ready-set gather.
With or without either it must dispatch the same schedule AND do the
same bookkeeping: ``events_dispatched``, ``timers_cancelled`` and
``heap_peak`` feed the committed BENCH.json figures, so a mode that
dispatched identically but *counted* differently would corrupt the
perf-regression gate silently.  The contract: no policy ≡ FIFO policy ≡
far horizon.

Three parity vehicles:

* the full engine workload, run plain and under a ``TracingPolicy`` —
  FIFO decisions, so the schedule is untouched but every step goes
  through the policy machinery;
* a kernel-level traffic pattern, run plain and with a far horizon
  (``until`` beyond the last event), the other optional step;
* ``Hold(resource, dt)`` against the generator code it replaced (kept
  here as the oracle): same finish instants, same counters, and — under
  a recording policy — the same ``(when, seq, label)`` ready sets at
  every consultation, i.e. the command consumes the ``seq`` stream
  exactly as gate-wait-then-delay did.
"""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro import Database, SystemConfig, WorkloadConfig
from repro.config import ExperimentConfig
from repro.core import CompactionPlan
from repro.explore.scheduler import RandomWalkPolicy, TracingPolicy
from repro.sim import Delay, Event, Hold, Resource, Simulator, Wait
from repro.workload import WorkloadDriver

WORKLOAD = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                          mpl=4, seed=7)


def _engine_run(policy=None):
    db, layout = Database.with_workload(WORKLOAD)
    engine = db.engine
    if policy is not None:
        engine.sim.set_policy(policy)
    driver = WorkloadDriver(engine, layout, ExperimentConfig(
        workload=WORKLOAD))
    metrics = driver.run(
        reorganizer=db.reorganizer(1, "ira", plan=CompactionPlan()))
    return engine.sim.now, engine.sim.counters(), metrics.summary()


def test_engine_workload_counters_match_across_loops():
    now_fast, counters_fast, summary_fast = _engine_run()
    policy = TracingPolicy()
    now_general, counters_general, summary_general = _engine_run(policy)
    assert policy.consultations > 0  # the general loop really ran
    assert now_general == now_fast
    assert counters_general == counters_fast
    assert summary_general == summary_fast
    # The counters the BENCH gate records moved at all.
    assert counters_fast["events_dispatched"] > 0
    assert counters_fast["timers_cancelled"] > 0
    assert counters_fast["heap_peak"] > 1


def _kernel_traffic(sim):
    """Delays, event waits and granted (hence cancelled) timeouts."""
    gate = Event(sim, name="gate")

    def opener():
        yield Delay(7.0)
        gate.succeed("open")

    def worker(index):
        for step in range(6):
            yield Delay(0.5 * ((index + step) % 3))
        # Granted before the timeout fires -> the timer is cancelled,
        # which is exactly the ``timers_cancelled`` traffic under test.
        yield Wait(gate, timeout=500.0)

    sim.spawn(opener(), name="opener")
    for index in range(5):
        sim.spawn(worker(index), name=f"worker-{index}")


def test_kernel_traffic_counters_match_with_far_horizon():
    fast = Simulator()
    _kernel_traffic(fast)
    now_fast = fast.run()

    general = Simulator()
    _kernel_traffic(general)
    now_general = general.run(until=10_000.0)

    assert now_general == now_fast
    assert general.counters() == fast.counters()
    assert fast.counters()["timers_cancelled"] > 0
    assert fast.counters()["events_dispatched"] > 0


# -- Hold ≡ the generator code it replaced --------------------------------------

def _legacy_use(resource, duration):
    """The oracle: ``Resource.use`` as it was before ``Hold`` — queue on
    ``acquire()``'s gate (withdrawn or released onward if killed there),
    ``Delay``, ``finally: release()``."""
    yield from resource.acquire()
    try:
        yield Delay(duration)
    finally:
        resource.release()


class _Recording:
    """Mixin: log every ready set the kernel shows the policy."""

    def schedule(self, now, ready):
        self.seen.append((now, tuple(ready)))
        return super().schedule(now, ready)


class _RecordingFifo(_Recording, TracingPolicy):
    def __init__(self):
        super().__init__()
        self.seen = []


class _RecordingWalk(_Recording, RandomWalkPolicy):
    def __init__(self):
        super().__init__(seed=5, permute_prob=0.5, defer_prob=0.2)
        self.seen = []


def _resource_traffic(capacity, users, kills, policy, legacy):
    """Run ``users`` against one resource; returns everything observable.

    A user is ``(kind, start, durations)``: ``"use"`` goes through
    ``Resource.use``, ``"hold"`` yields one shared ``Hold`` per duration
    (the transaction paths' idiom), ``"acquire"`` brackets a ``Delay``
    with ``acquire()``/``release()`` — a gate waiter on the same FIFO,
    identical on both sides.  ``legacy`` swaps the first two for the
    oracle.
    """
    sim = Simulator()
    sim.set_policy(policy)
    resource = Resource(sim, capacity=capacity, name="cpu")
    holds = {}
    finished = {}

    def user(tag, kind, start, durations):
        yield Delay(start)
        for duration in durations:
            if kind == "acquire" or legacy:
                yield from _legacy_use(resource, duration)
            elif kind == "use":
                yield from resource.use(duration)
            else:
                yield holds.setdefault(duration, Hold(resource, duration))
            finished.setdefault(tag, []).append(sim.now)

    procs = [sim.spawn(user(tag, *spec), name=f"user-{tag}")
             for tag, spec in enumerate(users)]
    for when, victim in kills:
        sim.call_later(when, procs[victim % len(procs)].kill, label="kill")
    sim.run()
    return {
        "now": sim.now,
        "finished": finished,
        "counters": sim.counters(),
        "seen": getattr(policy, "seen", None),
        "alive": [proc.alive for proc in procs],
        "resource": (resource.in_use, resource.queue_length,
                     resource.total_acquisitions, resource.total_busy_time),
    }


# A coarse grid (zero included) makes same-instant grants, kills and
# completions the common case rather than the rare one.
_instants = st.integers(0, 8).map(lambda n: n * 0.5)
_users = st.lists(
    st.tuples(st.sampled_from(["use", "hold", "acquire"]), _instants,
              st.lists(_instants, min_size=1, max_size=3)),
    min_size=1, max_size=6)
_kills = st.lists(st.tuples(st.integers(0, 24).map(lambda n: n * 0.5),
                            st.integers(0, 5)), max_size=4)


@pytest.mark.parametrize("make_policy", [lambda: None, _RecordingFifo,
                                         _RecordingWalk],
                         ids=["plain", "tracing", "random-walk"])
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(capacity=st.integers(1, 2), users=_users, kills=_kills)
def test_hold_matches_the_generator_code_it_replaced(
        make_policy, capacity, users, kills):
    new = _resource_traffic(capacity, users, kills, make_policy(), False)
    old = _resource_traffic(capacity, users, kills, make_policy(), True)
    assert new == old
    assert new["resource"][:2] == (0, 0)  # idle, nobody left queued
