"""Schedule-space exploration: a model-checking layer over the DES kernel.

The deterministic simulation kernel makes every run a pure function of
its schedule.  This package turns that into a checker: scheduler
policies (``scheduler``) perturb and record same-timestamp execution
order, a history recorder and oracle suite (``history``, ``oracles``)
judge each run against the paper's claimed invariants, planted bugs
(``mutations``) prove the oracles can fire, and the explorer
(``explorer``) searches the schedule space and shrinks failures into
replayable artifacts (``minimize``).  See EXPLORING.md for the guided
tour.
"""

from .explorer import (
    DEFAULT_HORIZON_MS,
    ExploreReport,
    ScheduleResult,
    build_artifact,
    default_workload,
    explore,
    replay_artifact,
    run_schedule,
)
from .history import (
    Access,
    HistoryRecorder,
    SerializabilityReport,
    SnapshotHistory,
    check_serializability,
    conflict_graph,
)
from .minimize import minimize_decisions
from .mutations import MUTATIONS, Mutation
from .oracles import (
    LockFootprintMonitor,
    LockHierarchyMonitor,
    OracleContext,
    OracleVerdict,
    check_recovery_idempotence,
    check_transparency,
    run_oracles,
)
from .scheduler import (
    RandomWalkPolicy,
    ReplayPolicy,
    TracingPolicy,
    decode_decisions,
    encode_decisions,
    hash_decisions,
    systematic_deviations,
)

__all__ = [
    "Access",
    "DEFAULT_HORIZON_MS",
    "ExploreReport",
    "HistoryRecorder",
    "LockFootprintMonitor",
    "LockHierarchyMonitor",
    "MUTATIONS",
    "Mutation",
    "OracleContext",
    "OracleVerdict",
    "RandomWalkPolicy",
    "ReplayPolicy",
    "ScheduleResult",
    "SerializabilityReport",
    "SnapshotHistory",
    "TracingPolicy",
    "build_artifact",
    "check_recovery_idempotence",
    "check_serializability",
    "check_transparency",
    "conflict_graph",
    "decode_decisions",
    "default_workload",
    "encode_decisions",
    "explore",
    "hash_decisions",
    "minimize_decisions",
    "replay_artifact",
    "run_oracles",
    "run_schedule",
    "systematic_deviations",
]
