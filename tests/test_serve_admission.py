"""The front end: arrival processes, admission control, deadlines.

Everything here is deterministic at a fixed seed — the serving layer is
benchmarked and baselined, so two runs of the same configuration must
produce byte-identical summaries.
"""

import random

import pytest

from repro.config import ServeConfig, SystemConfig, WorkloadConfig
from repro.database import Database
from repro.serve import (AdmissionQueue, Request, ServingLayer,
                         ZipfPartitions, interarrival_ms, rate_at)
from repro.sim import Delay, Simulator


# -- arrival processes --------------------------------------------------------

def test_flash_crowd_rate_window():
    cfg = ServeConfig(arrival="flash-crowd", arrival_rate_tps=30.0,
                      flash_multiplier=6.0, flash_start_ms=1_000.0,
                      flash_duration_ms=500.0)
    assert rate_at(cfg, 0.0) == 30.0
    assert rate_at(cfg, 999.9) == 30.0
    assert rate_at(cfg, 1_000.0) == 180.0
    assert rate_at(cfg, 1_499.9) == 180.0
    assert rate_at(cfg, 1_500.0) == 30.0


def test_diurnal_rate_oscillates_around_mean():
    cfg = ServeConfig(arrival="diurnal", arrival_rate_tps=40.0,
                      diurnal_period_ms=10_000.0, diurnal_amplitude=0.5)
    rates = [rate_at(cfg, t) for t in range(0, 10_000, 100)]
    assert max(rates) > 40.0 > min(rates)
    assert min(rates) > 0.0
    mean = sum(rates) / len(rates)
    assert abs(mean - 40.0) < 1.0


def test_interarrival_deterministic_and_rate_consistent():
    cfg = ServeConfig(arrival="poisson", arrival_rate_tps=50.0)
    draws = [interarrival_ms(cfg, random.Random(7), 0.0)
             for _ in range(3)]
    again = [interarrival_ms(cfg, random.Random(7), 0.0)
             for _ in range(3)]
    assert draws == again
    rng = random.Random(7)
    gaps = [interarrival_ms(cfg, rng, 0.0) for _ in range(5_000)]
    # Mean gap for 50 tps is 20 ms.
    assert abs(sum(gaps) / len(gaps) - 20.0) < 1.5


def test_zipf_partitions_skew_and_determinism():
    zipf = ZipfPartitions(4, s=1.1)
    shares = [zipf.share(pid) for pid in range(1, 5)]
    assert abs(sum(shares) - 1.0) < 1e-9
    assert shares == sorted(shares, reverse=True)  # pid 1 hottest
    picks = [ZipfPartitions(4, s=1.1).choose(random.Random(3))
             for _ in range(4)]
    assert len(set(picks)) == 1
    rng = random.Random(3)
    sample = [zipf.choose(rng) for _ in range(2_000)]
    assert set(sample) <= {1, 2, 3, 4}
    counts = [sample.count(pid) for pid in range(1, 5)]
    assert counts[0] > counts[-1]


def test_zipf_uniform_when_s_zero():
    zipf = ZipfPartitions(5, s=0.0)
    assert all(abs(zipf.share(pid) - 0.2) < 1e-9 for pid in range(1, 6))


# -- admission queue ----------------------------------------------------------

def _request(n, now=0.0):
    return Request(request_id=n, partition_id=1, arrived_ms=now,
                   queue_deadline_ms=now + 1_000.0,
                   response_deadline_ms=now + 5_000.0, txn_seed=n)


def test_admission_queue_fifo_and_shed_on_full():
    sim = Simulator()
    queue = AdmissionQueue(sim, depth=2)
    first, second, third = _request(1), _request(2), _request(3)
    assert queue.put(first)
    assert queue.put(second)
    assert not queue.put(third)
    assert third.outcome == "shed-queue-full"
    got = []

    def consumer():
        while True:
            request = yield from queue.get()
            if request is None:
                return
            got.append(request.request_id)

    sim.spawn(consumer())
    queue.close()
    sim.run()
    assert got == [1, 2]


def test_admission_queue_wakes_blocked_consumer():
    sim = Simulator()
    queue = AdmissionQueue(sim, depth=4)
    got = []

    def consumer():
        request = yield from queue.get()
        got.append((request.request_id, sim.now))

    sim.spawn(consumer())
    sim.call_later(25.0, lambda: queue.put(_request(9, now=25.0)))
    sim.run()
    assert got == [(9, 25.0)]


# -- hand-off: one wake-up per arrival -----------------------------------------

def _consumers(sim, queue, idle_at, service_ms=5.0):
    """Consumer ``i`` first asks for work at ``idle_at[i]`` ms, and holds
    each request for ``service_ms`` (a server never re-idles in the
    instant it popped).  Returns the log of ``(consumer, request_id or
    None, now)`` and the processes."""
    served = []

    def consumer(index):
        yield Delay(idle_at[index])
        while True:
            request = yield from queue.get()
            served.append((index, request and request.request_id, sim.now))
            if request is None:
                return
            yield Delay(service_ms)

    procs = [sim.spawn(consumer(index), name=f"consumer-{index}")
             for index in range(len(idle_at))]
    return served, procs


def test_one_put_resumes_one_of_thirty_idle_consumers():
    sim = Simulator()
    queue = AdmissionQueue(sim, depth=4)
    served, _ = _consumers(sim, queue, [0.0] * 30)
    sim.call_later(10.0, lambda: queue.put(_request(1, now=10.0)))
    sim.run(until=9.0)
    before = sim.counters()["events_dispatched"]
    sim.run(until=10.0)
    # The put's own callback plus exactly one consumer resume — a
    # broadcast to every idle consumer would dispatch 1 + 30.
    assert sim.counters()["events_dispatched"] - before == 2
    assert served == [(0, 1, 10.0)]


def test_idle_consumers_are_served_in_the_order_they_went_idle():
    sim = Simulator()
    queue = AdmissionQueue(sim, depth=8)
    # Spawned 0..4, idle 4, 3, 2, 1, 0.
    served, _ = _consumers(sim, queue, [5.0, 4.0, 3.0, 2.0, 1.0])
    for n in range(6):
        sim.call_later(10.0 + 10.0 * n,
                       lambda n=n: queue.put(_request(n, now=sim.now)))
    sim.run(until=100.0)
    # A served consumer re-idles behind everyone already waiting.
    assert [index for index, _, _ in served] == [4, 3, 2, 1, 0, 4]


def test_close_wakes_every_idle_consumer_after_the_queue_drains():
    sim = Simulator()
    queue = AdmissionQueue(sim, depth=8)
    served, procs = _consumers(sim, queue, [0.0] * 5)

    def burst():
        queue.put(_request(1, now=sim.now))
        queue.put(_request(2, now=sim.now))
        queue.close()

    sim.call_later(10.0, burst)
    sim.run()
    assert not any(proc.alive for proc in procs)
    by_consumer = {index: [rid for i, rid, _ in served if i == index]
                   for index in range(5)}
    assert by_consumer == {0: [1, None], 1: [2, None], 2: [None],
                           3: [None], 4: [None]}
    # No None was handed out while a request still waited.
    assert [rid for _, rid, _ in served[:2]] == [1, 2]


def test_consumer_finishing_at_the_put_instant_takes_the_request():
    sim = Simulator()
    queue = AdmissionQueue(sim, depth=8)
    # Scheduled before any consumer's first Delay: at t=10 the put runs
    # first, then consumer 2's own wake-up (it was busy until t=10) —
    # ahead of the resume the put scheduled for consumer 0.
    sim.call_later(10.0, lambda: queue.put(_request(1, now=sim.now)))
    sim.call_later(12.0, lambda: queue.put(_request(2, now=sim.now)))
    served, _ = _consumers(sim, queue, [0.0, 1.0, 10.0])
    sim.run(until=50.0)
    # Consumer 2 took the first request; consumer 0, woken for nothing,
    # went back to the head of the idle FIFO (ahead of consumer 1) and
    # serves the next put.
    assert served[:2] == [(2, 1, 10.0), (0, 2, 12.0)]


@pytest.mark.parametrize("killed_after_wake", [False, True])
def test_killed_idle_consumer_never_swallows_a_put(killed_after_wake):
    sim = Simulator()
    queue = AdmissionQueue(sim, depth=8)
    served, procs = _consumers(sim, queue, [0.0, 1.0])

    def arrive():
        queue.put(_request(1, now=sim.now))
        if killed_after_wake:
            # Woken by this very put, dead before it could pop.
            procs[0].kill()

    if not killed_after_wake:
        sim.call_later(5.0, procs[0].kill)
    sim.call_later(10.0, arrive)
    sim.run(until=50.0)
    # The next live idle consumer got it at the put instant; nothing
    # waits behind the corpse.
    assert served == [(1, 1, 10.0)]
    assert len(queue) == 0


# -- the serving layer end to end --------------------------------------------

def _serve(seed=42, **overrides):
    workload = WorkloadConfig(num_partitions=2, objects_per_partition=170,
                              mpl=4, seed=seed)
    db, layout = Database.with_workload(
        workload, system=SystemConfig(deadlock_detection="waits-for"))
    cfg = ServeConfig(arrival="poisson", arrival_rate_tps=20.0,
                      duration_ms=4_000.0, servers=4,
                      seed=seed).copy(**overrides)
    layer = ServingLayer(db.engine, layout, cfg, workload)
    metrics = layer.run()
    return db, metrics


def test_serving_layer_runs_and_summarizes():
    db, metrics = _serve()
    assert metrics.arrivals > 0
    assert metrics.completed > 0
    assert db.verify_integrity().ok
    summary = metrics.summary()
    for key in ("arrivals", "admitted", "offered_tps", "shed_rate",
                "deadline_miss_rate", "p99_response_ms",
                "p999_response_ms", "avg_queue_wait_ms"):
        assert key in summary
    assert summary["admitted"] <= summary["arrivals"]


def test_serving_layer_is_deterministic():
    _, first = _serve()
    _, second = _serve()
    assert first.summary() == second.summary()


def test_tiny_queue_sheds_and_counts():
    _, metrics = _serve(arrival_rate_tps=80.0, queue_depth=1, servers=1)
    assert metrics.shed_queue_full > 0
    assert metrics.shed == metrics.shed_queue_full + metrics.shed_stale
    assert 0.0 < metrics.shed_rate <= 1.0
    # Open loop: arrivals keep coming regardless of service capacity.
    assert metrics.arrivals > metrics.admitted


def test_stale_requests_are_shed_at_dequeue():
    _, metrics = _serve(arrival_rate_tps=120.0, queue_depth=256,
                        servers=1, queue_deadline_ms=40.0)
    assert metrics.shed_stale > 0


def test_deadline_misses_recorded():
    _, metrics = _serve(arrival_rate_tps=120.0, servers=2,
                        response_deadline_ms=30.0)
    assert metrics.deadline_misses > 0
    assert metrics.deadline_miss_rate > 0.0
