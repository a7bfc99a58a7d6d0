"""Calibrated seconds: host time in units of a fixed pure-Python loop.

Raw ``perf_counter`` walls do not repeat on a shared host (six fresh
processes of one workload gave medians 21 % apart); the same walls
divided by a fixed loop run right before and after them repeated within
6.5 %.  The loop does what the simulator does — resume a generator, push
and pop a heap, touch a dict — so a host that is slow for one is slow
for the other.  This module never imports ``repro``: the unit must not
move when the program under test does.
"""

from __future__ import annotations

import heapq
import time
from typing import Callable, Iterable, List

#: Calibrated seconds are reported as if one loop took exactly this long.
REFERENCE_LOOP_S = 0.100

#: Iterations of :func:`calibration_loop`; ~0.1 s on the reference host
#: (2-core shared VM, CPython 3.11).  Changing it changes the unit.
LOOP_ITERATIONS = 175_000


def _ticker(limit: int):
    value = 0
    while value < limit:
        value = (yield value) + 1


def calibration_loop(iterations: int = LOOP_ITERATIONS,
                     clock: Callable[[], float] = time.perf_counter
                     ) -> float:
    """Run the fixed loop once; returns its wall time in seconds."""
    start = clock()
    gen = _ticker(iterations)
    value = next(gen)
    heap: List[tuple] = []
    table: dict = {}
    push, pop = heapq.heappush, heapq.heappop
    try:
        while True:
            push(heap, ((value * 7919) % 1013, value))
            table[value & 1023] = value
            if len(heap) > 32:
                _, popped = pop(heap)
                table.pop(popped & 1023, None)
            value = gen.send(value)
    except StopIteration:
        pass
    return clock() - start


def factor(loop_walls: Iterable[float]) -> float:
    """Multiplier turning a measured wall into calibrated seconds: the
    reference loop time over the mean of the bracketing loops."""
    walls = list(loop_walls)
    if not walls or min(walls) <= 0:
        raise ValueError("need at least one positive calibration wall")
    return REFERENCE_LOOP_S / (sum(walls) / len(walls))

