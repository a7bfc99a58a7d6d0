"""The repository's benchmark: six workloads, calibrated host cost, exact
simulated metrics and a per-layer trace.  See ``perf/README.md``."""
