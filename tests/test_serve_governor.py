"""The reorg governor: SLO breach detection, pacing, pausing.

The acceptance criterion — under a flash crowd the governed fleet arm
interferes with serving strictly less than the ungoverned one — is the
``scale`` experiment's verdict, pinned in ``test_bench_figures.py``.
"""

from repro.config import GovernorConfig
from repro.serve import ReorgGovernor, ServeMetrics
from repro.sim import Delay, Simulator


def _governor(sim, **overrides):
    config = GovernorConfig(tick_ms=100.0, window_ms=400.0,
                            shed_slo=0.1, deadline_miss_slo=0.5,
                            pace_delay_ms=30.0,
                            pause_after_breaches=3).copy(**overrides)
    metrics = ServeMetrics(algorithm="test", mpl=1)
    governor = ReorgGovernor(sim, config, metrics=metrics)
    return governor, metrics


def test_governor_stays_in_run_below_slo():
    sim = Simulator()
    governor, metrics = _governor(sim)

    def load():
        for _ in range(10):
            metrics.arrivals += 20
            metrics.admitted += 20
            yield Delay(100.0)
        governor.stop()

    sim.spawn(governor.tick_process(), name="gov")
    sim.spawn(load(), name="load")
    sim.run()
    assert governor.state == "run"
    assert governor.breaches == 0
    assert governor.paced == 0


def test_governor_paces_then_pauses_then_recovers():
    sim = Simulator()
    governor, metrics = _governor(sim)
    states = []

    def load():
        # Healthy, then an overload burst breaching the shed SLO, then
        # recovery.
        for phase, shed_per_tick in (("ok", 0), ("bad", 10), ("ok", 0)):
            for _ in range(6):
                metrics.arrivals += 20
                metrics.admitted += 20 - shed_per_tick
                metrics.shed += shed_per_tick
                yield Delay(100.0)
                states.append(governor.state)
        governor.stop()

    sim.spawn(governor.tick_process(), name="gov")
    sim.spawn(load(), name="load")
    sim.run()
    assert "pace" in states          # first breaches pace
    assert "pause" in states         # a streak pauses
    assert states[-1] == "run"       # recovery releases the fleet
    assert governor.breaches >= 3
    assert governor.state_changes >= 2


def test_gate_injects_pace_delay_and_blocks_on_pause():
    sim = Simulator()
    governor, _ = _governor(sim)
    timeline = {}

    def reorg_like():
        yield from governor.gate()       # state "run": free
        timeline["run_gate"] = sim.now
        governor.state = "pace"
        yield from governor.gate()       # injects pace_delay_ms
        timeline["pace_gate"] = sim.now
        governor.state = "pause"
        sim.call_later(250.0, governor.stop)
        yield from governor.gate()       # blocks until stop()
        timeline["pause_gate"] = sim.now

    sim.run_process(reorg_like())
    assert timeline["run_gate"] == 0.0
    assert timeline["pace_gate"] == 30.0
    assert timeline["pause_gate"] >= 250.0
    assert governor.paced == 1
    assert governor.paused_ms > 0


def test_stop_releases_paused_reorganizers():
    sim = Simulator()
    governor, _ = _governor(sim)
    governor.state = "pause"
    done = {}

    def reorg_like():
        yield from governor.gate()
        done["at"] = sim.now

    sim.spawn(reorg_like(), name="paused")
    sim.call_later(500.0, governor.stop)
    sim.run()
    assert done["at"] >= 500.0
