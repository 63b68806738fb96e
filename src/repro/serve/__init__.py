"""Online read-serving layer: replicas as read capacity (DESIGN.md §13).

The K+1-way replication that makes recovery cheap also makes every
vertex readable from K+1 places — this package turns that into a query
path that runs *concurrently* with supersteps and recovery:

* :mod:`repro.serve.view` — snapshot-isolated reads of the last
  committed superstep, straight from the value columns;
* :mod:`repro.serve.router` — seeded replica selection with the
  explicit degraded policy (and the selfish-vertex master fence);
* :mod:`repro.serve.workload` — seeded open-loop traffic (Poisson
  arrivals, Zipf keys, configurable QPS);
* :mod:`repro.serve.server` — the query server, latency accounting and
  the engine pump hook;
* :mod:`repro.serve.replay` — the post-hoc bit-equality differential
  check against a serving-free replay.
"""

from repro.serve.replay import (
    HistoryRecorder,
    check_responses,
    replay_committed_history,
)
from repro.serve.router import MISS, ReplicaRouter
from repro.serve.server import (
    PHASE_PROGRESS,
    ReadResponse,
    ReadServer,
    ServePump,
    ServeStats,
    WorkloadCursor,
)
from repro.serve.view import CommittedView
from repro.serve.workload import (
    KIND_NAMES,
    NEIGHBORHOOD,
    POINT,
    TOPK,
    WORKLOAD_KEYS,
    OpenLoopWorkload,
    Query,
    workload_from_config,
)

__all__ = [
    "CommittedView",
    "HistoryRecorder",
    "KIND_NAMES",
    "MISS",
    "NEIGHBORHOOD",
    "OpenLoopWorkload",
    "PHASE_PROGRESS",
    "POINT",
    "Query",
    "ReadResponse",
    "ReadServer",
    "ReplicaRouter",
    "ServePump",
    "ServeStats",
    "TOPK",
    "WORKLOAD_KEYS",
    "WorkloadCursor",
    "check_responses",
    "replay_committed_history",
    "workload_from_config",
]
