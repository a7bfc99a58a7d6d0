"""``perf/`` holds on to ``src/`` by name, and tier-1 could not see it.

``perf/adapter.py`` binds some sixty symbols and wraps as many entry
points *on the class that defines them*; ``perf/`` may not change in a
PR that is judged by it, so a refactor that moves or merges a bound
method has to fail here — ``not defined on <owner> itself`` — instead
of failing the benchmark run after the fact.  ``tests/data/
perf_surface.txt`` is ``python3 perf/bench.py --surface`` at the commit
that last changed the surface deliberately.
"""

import pathlib

from perf import adapter
from perf.trace import Tracer

SURFACE = pathlib.Path(__file__).parent / "data" / "perf_surface.txt"


def test_every_trace_point_resolves_on_its_defining_class():
    points = adapter.trace_points()
    assert len(points) >= 60
    tracer = Tracer()
    try:
        tracer.install(points)      # raises on an inherited or moved name
    finally:
        tracer.uninstall()


def test_the_bound_surface_is_the_committed_one():
    assert adapter.surface_listing() + "\n" == SURFACE.read_text()
