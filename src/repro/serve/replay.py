"""Post-hoc differential check for served responses (DESIGN.md §13).

The acceptance bar for the serving layer is *bit-equality*: every
response must equal the value committed at the superstep it was tagged
with.  The check replays the identical job (same spec, same chaos
schedule) on the deterministic simulator *without* serving, records
the full committed value map at every commit point, and verifies each
response against that history.  Because both backends are bit-identical
to the simulator (the cross-backend differential oracle, DESIGN.md
§12), the same replay history checks multiprocessing responses too.

A mismatch means a read observed uncommitted or torn state — the bug
class the snapshot rule exists to prevent — so the checkers return
the offending responses rather than a bare count.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any

from repro.serve.workload import NEIGHBORHOOD, POINT, TOPK

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.serve.server import ReadResponse


class HistoryRecorder:
    """Serve hook recording ``{superstep: {gid: value}}`` at commits.

    ``-1`` (initial values) is captured at the first phase hook; each
    later superstep at its commit, as a full ``values()`` sweep.
    """

    def __init__(self):
        self.history: dict[int, dict[int, Any]] = {}

    def on_phase(self, engine, phase: str) -> None:
        tag = engine.committed_iteration
        if tag not in self.history:
            self.history[tag] = engine.values()


def replay_committed_history(graph, spec) -> dict[int, dict[int, Any]]:
    """Run ``spec`` on the simulator, recording every commit's values."""
    from repro.api import make_engine

    engine = make_engine(graph, **spec.engine_kwargs())
    for iteration, ranks, phase in spec.failures:
        engine.schedule_failure(iteration, list(ranks), phase)
    recorder = HistoryRecorder()
    engine.attach_serve(recorder)
    engine.run()
    # The final state is also a valid read target for tail-drained
    # queries; it is the last commit, already recorded above.
    return recorder.history


def check_responses(responses: "list[ReadResponse]",
                    history: dict[int, dict[int, Any]],
                    ) -> list[tuple["ReadResponse", Any]]:
    """Every response vs the committed value at its tagged superstep.

    Returns ``(response, expected)`` pairs for mismatches (empty list =
    every read was bit-equal to committed state).  Point and
    neighborhood reads are checked value-for-value; top-K responses
    are checked against the recomputed top-K of the tagged snapshot,
    skipping degraded ones (mid-recovery snapshots are not in the
    commit history by construction).  Misses (``value is None`` with
    ``degraded=True``) are not mismatches — they are the explicit
    degraded contract for vertices with no alive copy.
    """
    mismatches: list[tuple[Any, Any]] = []
    topk_cache: dict[tuple[int, int], list] = {}
    for resp in responses:
        committed = history.get(resp.superstep)
        if committed is None:
            mismatches.append((resp, f"unknown superstep "
                                     f"{resp.superstep}"))
            continue
        if resp.kind == POINT:
            if resp.value is None and resp.degraded:
                continue
            expected = committed[resp.gid]
            if resp.value != expected:
                mismatches.append((resp, expected))
        elif resp.kind == NEIGHBORHOOD:
            for nbr, value in resp.value:
                if value is None and resp.degraded:
                    continue
                expected = committed[nbr]
                if value != expected:
                    mismatches.append((resp, (nbr, expected)))
        elif resp.kind == TOPK:
            if resp.degraded:
                continue
            k = len(resp.value)
            key = (resp.superstep, k)
            expected_top = topk_cache.get(key)
            if expected_top is None:
                ranked = sorted(committed.items(),
                                key=lambda t: (-t[1], t[0]))
                expected_top = topk_cache[key] = ranked[:k]
            if list(resp.value) != expected_top:
                mismatches.append((resp, expected_top))
    return mismatches
