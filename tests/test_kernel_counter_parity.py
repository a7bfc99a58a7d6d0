"""Counter parity across the modes of the kernel's one dispatch loop.

``Simulator.run`` has a single loop with two optional steps: the
horizon check (``until``) and the installed policy's ready-set gather.
With or without either it must dispatch the same schedule AND do the
same bookkeeping: ``events_dispatched``, ``timers_cancelled`` and
``heap_peak`` feed the committed BENCH.json figures, so a mode that
dispatched identically but *counted* differently would corrupt the
perf-regression gate silently.  The contract: no policy ≡ FIFO policy ≡
far horizon.

Two parity vehicles:

* the full engine workload, run plain and under a ``TracingPolicy`` —
  FIFO decisions, so the schedule is untouched but every step goes
  through the policy machinery;
* a kernel-level traffic pattern, run plain and with a far horizon
  (``until`` beyond the last event), the other optional step.
"""

from repro import Database, SystemConfig, WorkloadConfig
from repro.config import ExperimentConfig
from repro.core import CompactionPlan
from repro.explore.scheduler import TracingPolicy
from repro.sim import Delay, Event, Simulator, Wait
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
