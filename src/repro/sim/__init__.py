"""Deterministic discrete-event simulation kernel.

See :mod:`repro.sim.kernel` for the process model and DESIGN.md for why the
paper's threaded performance study is reproduced on a simulator.
"""

from .errors import ProcessKilled, SimError, SimulationDeadlock, WaitTimeout
from .kernel import (Delay, Event, Hold, Process, ScheduleEntry,
                     SchedulerPolicy, Simulator, TimerHandle, Wait)
from .resources import CpuMeter, Mutex, Resource

__all__ = [
    "CpuMeter",
    "Delay",
    "Event",
    "Hold",
    "Mutex",
    "Process",
    "ProcessKilled",
    "Resource",
    "ScheduleEntry",
    "SchedulerPolicy",
    "SimError",
    "SimulationDeadlock",
    "Simulator",
    "TimerHandle",
    "Wait",
    "WaitTimeout",
]
