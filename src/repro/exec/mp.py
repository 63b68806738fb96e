"""Multiprocessing execution backend (DESIGN.md §12).

Each cluster node runs as a real ``multiprocessing.Process`` (fork
start method) owning one partition's :class:`LocalGraph`, forked from
a pristine parent-side ``Engine`` that itself never runs a superstep.
Workers drive the per-node operations the simulator drives — the array
operations of :class:`~repro.engine.vectorized.VectorProtocol` when the
program declares a kernel and ``spec.vectorized`` is set, the scalar
:class:`~repro.exec.protocol.NodeProtocol` otherwise (column rules in
:func:`_worker_main`); the coordinator drives the superstep rounds over
per-worker duplex pipes (star topology) and routes the encoded columnar
batches between workers.

Determinism / parity
--------------------
Committed values and logical-message counts are identical to the
simulator by construction: both backends run the same per-node
protocol over the same forked per-node state, and the protocol is
order-independent across senders (each gid has a single master, partial
gathers fold in sorted sender order, activations are idempotent), so
nondeterministic frame arrival cannot change outcomes.  The coordinator
books traffic per routed batch with the simulator's own units — logical
records per batch, payload bytes plus ``BYTES_PER_MSG_HEADER`` per
physical batch.

Failure handling
----------------
The chaos schedule (``BackendSpec.failures``) delivers real
``SIGKILL``s.  Death is detected by the coordinator's heartbeat loop —
``multiprocessing.connection.wait`` over worker pipes *and* process
sentinels, with consecutive-miss counting as the hang guard.  A death
inside a compute round — or anywhere up to the finalize round of the
commit exchange, since nothing commits before ``finalize_commit`` —
aborts the iteration on the survivors (staged state is discarded) and
the iteration is redone after recovery, bounded by
``max_iteration_retries`` redos per iteration; a death between
iterations recovers in place.  Only a death inside the finalize round
itself is unrecoverable (some workers may already have committed).
Recovery elects a recovery leader with the simulator's seeded election
(bookkeeping parity; the coordinator still drives the protocol).
Recovery is the rebirth rung only: a replacement worker is
forked from the pristine parent engine, survivors ship the replication
state they hold for the dead rank (mirror copies preferred, lowest
surviving rank breaking ties), the replacement's masters are
conservatively reactivated, and — under vertex-cut — every rank's next
phase-0 broadcast is forced so activity flags re-converge.

Elastic membership
------------------
``BackendSpec.membership`` events run at the same logical points as on
the simulator — flaps at superstep start, joins and drains after the
commit barrier of their iteration.  A flap is a real ``SIGSTOP`` /
``SIGCONT`` stall of the worker process, absorbed by the heartbeat
loop's consecutive-miss counting (flap tolerance: a slow worker is not
a dead worker).  Joins and drains run as a stop-the-world
**fullstate reshape-restart**: the coordinator pulls every rank's
committed master state into the parent engine, replays the change
through the simulator's own :class:`~repro.membership.manager.
MembershipManager` (same Fennel plan seed, so the resulting placement
matches the simulator's), and re-forks every worker from the reshaped
parent.  Values are untouched throughout — the cross-backend oracle
compares elastic runs bit-for-bit.

Scope limits (rejected specs raise :class:`BackendError`): fork start
method required, edge-mutating programs unsupported, ``ft_mode`` must
be ``none``/``replication``, recovery must be ``rebirth``, batched
syncs are mandatory (the wire format is the batch), and joins/drains
need replication over an edge-cut partitioning (the simulator's
``check_supported`` contract).
"""

from __future__ import annotations

import os
import signal
import time
from collections import defaultdict
from dataclasses import dataclass
from typing import Any

from repro.api import make_engine
from repro.config import MP_HEARTBEAT_INTERVAL_S, MP_HEARTBEAT_MISSES
from repro.engine.vectorized import VectorProtocol
from repro.engine.vertex_program import ApplyContext
from repro.errors import UnrecoverableFailureError
from repro.exec.base import (BackendError, BackendRunResult, BackendSpec,
                             ExecutionBackend)
from repro.membership.election import elect_leader
from repro.exec.protocol import NodeProtocol
from repro.exec.serialize import (TAG_GATHER, TAG_RAW_GATHER, decode_batch,
                                  encode_batch, encoded_logical_nbytes,
                                  encoded_logical_records,
                                  encoded_precombine_records,
                                  encoded_records)
from repro.serve.router import MISS, ReplicaRouter
from repro.serve.server import ReadResponse, ServeStats, WorkloadCursor
from repro.serve.view import CommittedView
from repro.serve.workload import (NEIGHBORHOOD, POINT, TOPK,
                                  workload_from_config)
from repro.utils.sizing import BYTES_PER_MSG_HEADER


class _WorkerDeath(Exception):
    """Internal: one or more workers died (carries the dead ranks)."""

    def __init__(self, ranks: set[int]):
        super().__init__(f"workers died: {sorted(ranks)}")
        self.ranks = set(ranks)


# ---------------------------------------------------------------------------
# Worker side
# ---------------------------------------------------------------------------


def _force_rebroadcast(lg, pending_broadcast: set[int]) -> None:
    """Queue a full activity re-broadcast (vertex-cut recovery).

    Replica activity flags may be stale after a rebirth — the
    replacement worker's copies restart at forked-initial activity — so
    every master marks its replicas stale and re-broadcasts on the next
    phase 0 (the simulator's ``_refresh_broadcast_state`` analogue,
    made total because survivors cannot know which flags the dead rank
    lost).
    """
    for slot in lg.iter_masters():
        slot.replicas_known_active = not slot.active
        pending_broadcast.add(slot.gid)


def _extract_records(lg, dead: tuple[int, ...]) -> tuple[list, list]:
    """Survivor-side replication-state scan for the dead ranks.

    Returns ``(master_records, replica_records)``:

    * master records — this rank's replica/mirror copies of vertices
      mastered on a dead rank, ``(gid, master_node, value,
      last_activates, last_update_iter, mirror_self_active, is_mirror)``;
    * replica records — this rank's own masters that keep copies on a
      dead rank, ``(gid, value, last_activates, last_update_iter,
      self_active, active, dead_targets)``.
    """
    dead_set = set(dead)
    masters: list = []
    replicas: list = []
    for slot in lg.iter_slots():
        if slot.is_master:
            targets = tuple(node for node, _m in slot.meta.sync_targets()
                            if node in dead_set)
            if targets:
                replicas.append((slot.gid, slot.value, slot.last_activates,
                                 slot.last_update_iter,
                                 slot.mirror_self_active, slot.active,
                                 targets))
        elif slot.master_node in dead_set:
            masters.append((slot.gid, slot.master_node, slot.value,
                            slot.last_activates, slot.last_update_iter,
                            slot.mirror_self_active, slot.is_mirror))
    return masters, replicas


def _apply_reseed(lg, masters, replicas, activate_gids) -> None:
    """Replacement-worker state seeding from survivor records.

    Masters take the surviving copy's committed value and are
    conservatively reactivated (every dead-rank master recomputes once;
    safe because ``apply`` is a pure function of neighbor state, and
    exact whenever the vertex was in fact active at the kill point).
    The replacement's replica copies take their owners' current
    committed values — the local gathers of the next superstep read
    them directly.
    """
    for gid, _master_node, value, la, lui, msa, is_mirror in masters:
        slot = lg.slot_of(gid)
        slot.value = value
        slot.last_activates = la
        slot.last_update_iter = lui
        # Plain replicas never saw the master's self-active flag; assume
        # active, consistent with the conservative reactivation below.
        slot.mirror_self_active = msa if is_mirror else True
    for gid, value, la, lui, self_active, active, _targets in replicas:
        slot = lg.slot_of(gid)
        slot.value = value
        slot.last_activates = la
        slot.last_update_iter = lui
        slot.mirror_self_active = self_active
        lg.set_active(slot, active)
    for gid in activate_gids:
        lg.set_active(lg.slot_of(gid), True)


def _worker_main(rank: int, conn, close_conns, engine) -> None:
    """Worker process main loop: one partition, frame-driven rounds.

    Drives :class:`~repro.engine.vectorized.VectorProtocol` when the
    parent engine installed the array kernels, else the scalar
    :class:`NodeProtocol`, through the same calls the simulator makes.
    Column rules: the forked graph's columns are the only copy of the
    dynamic state, read and written alike by the operations, the slot
    attributes of the recovery frames and the reads; the SoA topology
    is the one loading seeded in the parent, inherited through the
    fork, until a recovery frame's slot changes drop it.  Committed
    columns change only in the finalize round (``commit2``), so
    ``abort`` drops just the pending arrays.
    """
    for other in close_conns:
        try:
            other.close()
        except OSError:
            pass
    # A worker must never outlive an abruptly-gone coordinator; pipes
    # raise EOFError on recv once the parent closes, which exits below.
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    lg = engine.local_graphs[rank]
    knobs = dict(sync_elision=engine._sync_elision,
                 selfish_opt=engine.selfish_opt_active,
                 combining=engine._combining)
    proto = NodeProtocol(engine.program, engine.is_edge_cut, **knobs)
    vectorized = engine._vec is not None
    ops = (VectorProtocol(engine._vec.kernel, engine.is_edge_cut, **knobs)
           if vectorized else proto)
    num_vertices = engine.graph.num_vertices
    num_edges = engine.graph.num_edges
    # The operations' per-node state: staged slots (scalar) or the
    # topology and staging arrays (vectorized; None until built).
    state: Any = None
    partials: Any = None
    pending_broadcast: set[int] = set()

    def ctx(iteration: int) -> ApplyContext:
        return ApplyContext(iteration=iteration, num_vertices=num_vertices,
                            num_edges=num_edges)

    def encode_outbox(outbox: dict) -> list:
        return [(dst, kind.value, encode_batch(batch))
                for (dst, kind), batch in outbox.items()]

    while True:
        try:
            frame = conn.recv()
        except (EOFError, OSError):
            return
        tag = frame[0]
        if tag == "compute":
            it = frame[1]
            state = ops.begin(lg, state)
            outbox, edges, vertices, elided = ops.edge_cut_compute_node(
                lg, state, ctx(it))
            conn.send(("computed", it, encode_outbox(outbox),
                       edges, vertices, elided))
        elif tag == "vc0":
            it = frame[1]
            outbox = proto.broadcast_build(lg, pending_broadcast)
            pending_broadcast = set()
            conn.send(("vc0_done", it, encode_outbox(outbox)))
        elif tag == "vc1":
            it = frame[1]
            for _src, enc in frame[2]:
                proto.broadcast_apply(lg, decode_batch(enc))
            state = ops.begin(lg, state)
            outbox, partials, edges = ops.vertex_gather(lg, state, ctx(it))
            conn.send(("vc1_done", it, encode_outbox(outbox), edges))
        elif tag == "vc2":
            it = frame[1]
            for src, enc in frame[2]:
                ops.receive_gather(lg, state, partials, src,
                                   decode_batch(enc))
            outbox, vertices, elided = ops.master_fold_apply(
                lg, state, partials, ctx(it))
            conn.send(("vc2_done", it, encode_outbox(outbox),
                       vertices, elided))
        elif tag == "commit":
            it = frame[1]
            for _src, enc in frame[2]:
                ops.apply_sync_batch(lg, state, decode_batch(enc))
            acts = ops.commit_stage1(lg, state, it)
            conn.send(("staged", it, [(dst, encode_batch(batch))
                                      for (dst, _k), batch in acts.items()]))
        elif tag == "commit2":
            it = frame[1]
            for _src, enc in frame[2]:
                ops.apply_activations(lg, state, decode_batch(enc).gids)
            pending_broadcast.update(ops.finalize_commit(lg, state, it))
            conn.send(("committed", it, len(lg.active_masters)))
        elif tag == "abort":
            if state is not None:
                ops.abort(lg, state)
            partials = None
            conn.send(("aborted", frame[1]))
        elif tag == "extract":
            masters, replicas = _extract_records(lg, frame[1])
            conn.send(("extracted", masters, replicas))
        elif tag == "reseed":
            _, masters, replicas, activate_gids, force = frame
            _apply_reseed(lg, masters, replicas, activate_gids)
            if force:
                _force_rebroadcast(lg, pending_broadcast)
            conn.send(("reseeded",))
        elif tag == "recovered":
            if frame[1]:
                _force_rebroadcast(lg, pending_broadcast)
            conn.send(("recovered_ack",))
        elif tag == "read":
            # Point reads of committed state: the coordinator only
            # sends these at protocol-safe points (workers idle between
            # rounds, never inside the commit exchange), so every value
            # here is the last committed one.  Any local copy — master,
            # replica or mirror — answers.
            req_id, gids = frame[1], frame[2]
            index = lg.index_of
            out = {gid: (lg.slots[index[gid]].value
                         if gid in index else None) for gid in gids}
            conn.send(("read_done", req_id, out))
        elif tag == "topk":
            # Local-masters top-K by (value desc, gid asc); the
            # coordinator merges the per-rank lists.
            req_id, k = frame[1], frame[2]
            out = [(gid, value) for value, gid in lg.top_k_masters(k)]
            conn.send(("topk_done", req_id, out))
        elif tag == "values":
            conn.send(("values_done",
                       {slot.gid: slot.value for slot in lg.iter_masters()},
                       vectorized))
        elif tag == "fullstate":
            # Committed full state of every local master — the
            # coordinator writes it back into the parent engine before a
            # membership reshape (only ever sent at a commit barrier, so
            # no pending fields exist).
            conn.send(("fullstate_done",
                       [(slot.gid, slot.value, slot.last_activates,
                         slot.last_update_iter, slot.mirror_self_active,
                         slot.active, slot.replicas_known_active)
                        for slot in lg.iter_masters()]))
        elif tag == "shutdown":
            return
        else:  # pragma: no cover - protocol bug guard
            conn.send(("error", f"unknown frame tag {tag!r}"))
            return


# ---------------------------------------------------------------------------
# Coordinator side
# ---------------------------------------------------------------------------


@dataclass
class _Worker:
    proc: Any
    conn: Any


class _TrafficBook:
    """Simulator-unit traffic accounting over routed encoded batches.

    Charges the *logical* (combined-equivalent) tier — the paper's
    message unit, invariant under the combining knob (DESIGN.md §15) —
    and tracks the pre-combine/physical gather record counts feeding
    ``combined_records`` / ``combine_ratio``, mirroring the simulator
    ``Network``'s combine counters.
    """

    def __init__(self) -> None:
        self.total_msgs = 0
        self.total_bytes = 0
        self.total_batches = 0
        self.by_kind: dict[str, int] = defaultdict(int)
        self.combine_pre = 0
        self.combine_phys = 0

    def count(self, kind: str, enc: tuple) -> None:
        records = encoded_logical_records(enc)
        self.total_msgs += records
        self.total_bytes += encoded_logical_nbytes(enc) + BYTES_PER_MSG_HEADER
        self.total_batches += 1
        self.by_kind[kind] += records
        if enc[0] in (TAG_GATHER, TAG_RAW_GATHER):
            self.combine_pre += encoded_precombine_records(enc)
            self.combine_phys += encoded_records(enc)


class _MpReadServer:
    """Coordinator-side query server over worker read frames.

    Routing and accounting reuse the simulator's serve layer —
    :class:`~repro.serve.router.ReplicaRouter` /
    :class:`~repro.serve.server.ServeStats` — over the pristine parent
    engine, whose placement is the workers' placement (static under
    rebirth-only recovery).  The parent's cluster never crashes, so the
    router runs with ``use_cluster_liveness=False`` and the coordinator
    passes the ranks it knows dead explicitly.  Reads execute as
    batched ``read``/``topk`` frames against the workers holding the
    routed copies, only at protocol-safe points (workers idle between
    rounds), so every answer is a committed slot value.  Queries due at
    one drain point share the drain's round-trip latency — they are
    served concurrently by one frame exchange.
    """

    def __init__(self, backend: "MultiprocessingBackend", engine,
                 workload, cfg: dict):
        self.backend = backend
        self.engine = engine
        self.view = CommittedView(engine)  # static topology reads only
        self.cursor = WorkloadCursor(workload, cfg["expected_supersteps"])
        self.router = ReplicaRouter(
            engine, seed=cfg.get("route_seed", 0),
            policy=cfg.get("policy", "round_robin"),
            use_cluster_liveness=False)
        self.stats = ServeStats(cfg.get("keep_responses", True))
        self.neighborhood_limit = workload.neighborhood_limit
        self._req = 0

    def drain(self, progress: float, committed: int,
              dead=frozenset(), force_degraded: bool = False) -> None:
        """Serve every query whose arrival progress has passed."""
        queries = self.cursor.due(progress)
        if queries:
            self._serve_batch(queries, committed, dead, force_degraded)

    def finish(self, committed: int) -> None:
        queries = self.cursor.drain()
        if queries:
            self._serve_batch(queries, committed, frozenset(), False)

    def report(self) -> dict:
        return self.stats.report(self.router, self.engine.metrics)

    # -- execution -------------------------------------------------------

    def _serve_batch(self, queries, committed: int, dead,
                     force_degraded: bool) -> None:
        start = time.perf_counter()
        alive = sorted(self.backend._workers)
        # Route every point/neighborhood gid, bucket by serving rank.
        plans: list = []
        by_rank: dict[int, set] = defaultdict(set)
        topk_ks: set[int] = set()
        for query in queries:
            if query.kind == TOPK:
                topk_ks.add(query.k)
                plans.append(None)
                continue
            gids = ([query.gid] if query.kind == POINT
                    else self.view.out_neighbors(
                        query.gid, limit=self.neighborhood_limit))
            routed: list[tuple[int, int]] = []
            degraded = force_degraded
            for gid in gids:
                node, deg = self.router.route(
                    gid, dead=dead, force_degraded=force_degraded)
                degraded = degraded or deg
                routed.append((gid, node))
                if node == MISS:
                    self.stats.misses += 1
                else:
                    by_rank[node].add(gid)
            plans.append((routed, degraded))
        # One read frame per involved rank, one topk frame per distinct
        # K — the whole drain is two collect round-trips at most.
        values: dict[int, dict] = {}
        if by_rank:
            self._req += 1
            req = self._req
            for rank in sorted(by_rank):
                self.backend._send(rank, ("read", req,
                                          sorted(by_rank[rank])))
            frames = self.backend._collect("read_done", req,
                                           sorted(by_rank))
            values = {rank: frame[2] for rank, frame in frames.items()}
        topk_merged: dict[int, tuple] = {}
        for k in sorted(topk_ks):
            self._req += 1
            for rank in alive:
                self.backend._send(rank, ("topk", self._req, k))
            frames = self.backend._collect("topk_done", self._req, alive)
            merged = sorted((pair for frame in frames.values()
                             for pair in frame[2]),
                            key=lambda t: (-t[1], t[0]))
            topk_merged[k] = tuple((int(gid), value)
                                   for gid, value in merged[:k])
        latency_s = time.perf_counter() - start
        # Top-K coverage is partial whenever any rank is out of the
        # aggregation or recovery-recomputed selfish masters are still
        # in the ranking — the explicit-degradation contract.
        topk_degraded = (force_degraded or bool(dead)
                         or bool(self.engine.selfish_read_fence)
                         or len(alive)
                         < self.engine.cluster.expected_workers())
        for query, plan in zip(queries, plans):
            if query.kind == TOPK:
                resp = ReadResponse(
                    gid=-1, kind=TOPK, value=topk_merged[query.k],
                    superstep=committed, degraded=topk_degraded,
                    replica_node=MISS)
            else:
                routed, degraded = plan
                parts = [(gid, None if node == MISS
                          else values[node][gid])
                         for gid, node in routed]
                if query.kind == POINT:
                    resp = ReadResponse(
                        gid=query.gid, kind=POINT, value=parts[0][1],
                        superstep=committed, degraded=degraded,
                        replica_node=routed[0][1])
                else:
                    node0 = next((node for _gid, node in routed
                                  if node != MISS), MISS)
                    resp = ReadResponse(
                        gid=query.gid, kind=NEIGHBORHOOD,
                        value=tuple(parts), superstep=committed,
                        degraded=degraded, replica_node=node0)
            self.stats.record(resp, latency_s)


class MultiprocessingBackend(ExecutionBackend):
    """Real-process backend: one forked worker per cluster node."""

    name = "multiprocessing"

    #: Redo budget per iteration for deaths caught before the finalize
    #: round (compute and commit stage 1 are abortable); exceeding it is
    #: a structured :class:`BackendError`, not a silent loop.
    max_iteration_retries = 3

    def __init__(self, heartbeat_s: float = MP_HEARTBEAT_INTERVAL_S,
                 heartbeat_misses: int = MP_HEARTBEAT_MISSES):
        self.heartbeat_s = heartbeat_s
        self.heartbeat_misses = heartbeat_misses
        #: The heartbeat in force for the current run: the spec's
        #: override or the constructor defaults, resolved per run.
        self._beat_s = heartbeat_s
        self._beat_misses = heartbeat_misses
        self._ctx = None
        self._workers: dict[int, _Worker] = {}
        self._engine = None
        self._serve: _MpReadServer | None = None

    # -- lifecycle -------------------------------------------------------

    def _spawn_worker(self, rank: int) -> None:
        parent_end, child_end = self._ctx.Pipe(duplex=True)
        close_conns = [w.conn for w in self._workers.values()]
        close_conns.append(parent_end)
        proc = self._ctx.Process(
            target=_worker_main,
            args=(rank, child_end, close_conns, self._engine),
            name=f"repro-worker-{rank}",
            daemon=True)
        proc.start()
        # The parent's copy of the child end must close so worker death
        # leaves no stray write end holding the pipe open.
        child_end.close()
        self._workers[rank] = _Worker(proc=proc, conn=parent_end)

    def close(self) -> None:
        """Reap every worker — also on failure paths (tests must never
        leak child processes): cooperative shutdown, then terminate,
        then kill."""
        for worker in self._workers.values():
            if worker.proc.is_alive():
                try:
                    worker.conn.send(("shutdown",))
                except (BrokenPipeError, OSError):
                    pass
        for worker in self._workers.values():
            worker.proc.join(timeout=2.0)
            if worker.proc.is_alive():
                worker.proc.terminate()
                worker.proc.join(timeout=1.0)
            if worker.proc.is_alive():  # pragma: no cover - last resort
                worker.proc.kill()
                worker.proc.join()
            try:
                worker.conn.close()
            except OSError:
                pass
        self._workers.clear()

    # -- frame plumbing --------------------------------------------------

    def _send(self, rank: int, frame: tuple) -> None:
        try:
            self._workers[rank].conn.send(frame)
        except (BrokenPipeError, OSError) as exc:
            raise _WorkerDeath({rank}) from exc

    def _collect(self, tag: str, iteration: int | None,
                 ranks) -> dict[int, tuple]:
        """Gather one ``tag`` frame per rank; sentinel-aware.

        The heartbeat loop waits on worker pipes *and* process
        sentinels: a ``SIGKILL`` surfaces as a ready sentinel within one
        heartbeat interval, and ``heartbeat_misses`` consecutive silent
        intervals mean a wedged worker (raised as :class:`BackendError`
        — a hang is not a crash and gets no recovery).  Frames not
        matching ``(tag, iteration)`` are stale pre-abort output and
        are discarded.
        """
        from multiprocessing.connection import wait as mpc_wait

        out: dict[int, tuple] = {}
        pending = set(ranks)
        misses = 0
        while pending:
            conns = {self._workers[r].conn: r for r in pending}
            sentinels = {self._workers[r].proc.sentinel: r for r in pending}
            ready = mpc_wait(list(conns) + list(sentinels),
                             timeout=self._beat_s)
            if not ready:
                misses += 1
                if misses >= self._beat_misses:
                    raise BackendError(
                        f"workers {sorted(pending)} sent no frame for "
                        f"{misses * self._beat_s:.1f}s awaiting "
                        f"{tag!r} — wedged")
                continue
            misses = 0
            dead = {sentinels[obj] for obj in ready if obj in sentinels}
            if dead:
                raise _WorkerDeath(dead)
            for obj in ready:
                rank = conns[obj]
                conn = self._workers[rank].conn
                while rank in pending and conn.poll(0):
                    try:
                        frame = conn.recv()
                    except (EOFError, OSError) as exc:
                        raise _WorkerDeath({rank}) from exc
                    if frame[0] == tag and (iteration is None
                                            or frame[1] == iteration):
                        out[rank] = frame
                        pending.discard(rank)
        return out

    def _route(self, collected: dict[int, tuple],
               book: _TrafficBook) -> dict[int, list]:
        """Fan collected outbox batches out to per-destination frame
        lists, booking each batch in simulator units."""
        frames: dict[int, list] = {r: [] for r in self._workers}
        for src in sorted(collected):
            for dst, kind, enc in collected[src][2]:
                book.count(kind, enc)
                frames[dst].append((src, enc))
        return frames

    # -- chaos -----------------------------------------------------------

    def _kill(self, ranks) -> set[int]:
        """Deliver real SIGKILLs and wait until every target is dead, so
        detection is deterministic at the next collect."""
        killed = set()
        for rank in ranks:
            worker = self._workers.get(rank)
            if worker is None or not worker.proc.is_alive():
                continue
            os.kill(worker.proc.pid, signal.SIGKILL)
            killed.add(rank)
        deadline = time.monotonic() + 10.0
        for rank in killed:
            proc = self._workers[rank].proc
            proc.join(timeout=max(0.0, deadline - time.monotonic()))
            if proc.is_alive():  # pragma: no cover - SIGKILL cannot fail
                raise BackendError(f"worker {rank} survived SIGKILL")
        return killed

    def _flap(self, rank: int) -> None:
        """Stall one worker with SIGSTOP/SIGCONT — a real slow-node
        flap.  The heartbeat loop's consecutive-miss counting absorbs
        the stall (flap tolerance: a slow worker is not a dead one)."""
        worker = self._workers.get(rank)
        if worker is None or not worker.proc.is_alive():
            return
        os.kill(worker.proc.pid, signal.SIGSTOP)
        try:
            time.sleep(min(2 * self._beat_s, 0.5))
        finally:
            os.kill(worker.proc.pid, signal.SIGCONT)
        self._flaps += 1

    # -- elastic membership ----------------------------------------------

    def _sync_parent_from_workers(self) -> None:
        """Pull every rank's committed master state into the parent.

        Replica/mirror copies on the parent take the master's committed
        state too — at a barrier under sync elision every copy already
        agrees with its master, so this reproduces exactly the workers'
        copy state (copies hold the flag the master last broadcast,
        ``replicas_known_active``).
        """
        alive = sorted(self._workers)
        for rank in alive:
            self._send(rank, ("fullstate",))
        frames = self._collect("fullstate_done", None, alive)
        engine = self._engine
        for rank in alive:
            lg = engine.local_graphs[rank]
            for gid, value, la, lui, msa, active, rka in frames[rank][1]:
                slot = lg.slot_of(gid)
                slot.value = value
                slot.last_activates = la
                slot.last_update_iter = lui
                slot.mirror_self_active = msa
                slot.replicas_known_active = rka
                lg.set_active(slot, active)
                for node, is_mirror in slot.meta.sync_targets():
                    copy_lg = engine.local_graphs[node]
                    copy = copy_lg.slot_of(gid)
                    copy.value = value
                    copy.last_activates = la
                    copy.last_update_iter = lui
                    if is_mirror:
                        copy.mirror_self_active = msa
                    copy_lg.set_active(copy, rka)

    def _reshape(self, events: list[tuple[str, Any, int]]) -> None:
        """Stop-the-world join/drain at a commit barrier.

        State flows workers -> parent, the membership change replays
        through the simulator's own :class:`MembershipManager` (same
        plan seed, so placement matches the simulator's), and every
        worker re-forks from the reshaped parent.
        """
        engine = self._engine
        self._sync_parent_from_workers()
        for kind, target, count in events:
            if kind == "join":
                engine.request_join(count)
            else:
                engine.request_drain(int(target))
        manager = engine._require_membership()
        while manager.active:
            manager.pump()
        self.close()
        for rank in sorted(engine.local_graphs):
            self._spawn_worker(rank)
        self._reshapes += 1

    # -- recovery --------------------------------------------------------

    def _abort_survivors(self, iteration: int, survivors) -> None:
        """Discard the aborted iteration's staged state everywhere; the
        per-sender-FIFO ack drain also flushes stale pre-abort frames."""
        for rank in survivors:
            self._send(rank, ("abort", iteration))
        for rank in survivors:
            conn = self._workers[rank].conn
            deadline = time.monotonic() + self._beat_s * self._beat_misses
            while True:
                if not conn.poll(timeout=0.2):
                    if time.monotonic() > deadline:
                        raise BackendError(
                            f"worker {rank} never acked abort")
                    continue
                try:
                    frame = conn.recv()
                except (EOFError, OSError) as exc:
                    raise BackendError(
                        f"worker {rank} died during abort") from exc
                if frame == ("aborted", iteration):
                    break

    def _recover(self, dead: set[int], iteration: int, spec: BackendSpec,
                 mid_iteration: bool) -> None:
        """The rebirth rung over real processes.

        Reap the corpses, abort the in-flight iteration on survivors
        (if any), fork replacements from the pristine parent engine,
        reseed them from survivor replication state, and force the
        vertex-cut activity re-broadcast.
        """
        dead_sorted = sorted(dead)
        survivors = sorted(set(self._workers) - dead)
        # Seeded recovery-leader election — the simulator's bookkeeping,
        # so both backends report comparable leadership terms (the
        # coordinator process still drives the protocol itself).
        if survivors:
            self._leader_term += 1
            self._leader = elect_leader(survivors, spec.seed,
                                        self._leader_term)
        for rank in dead_sorted:
            worker = self._workers.pop(rank)
            worker.proc.join(timeout=1.0)
            try:
                worker.conn.close()
            except OSError:
                pass
        if spec.ft_mode != "replication" or spec.ft_level < 1:
            raise UnrecoverableFailureError(
                f"workers {dead_sorted} killed with no replication to "
                f"recover from (ft_mode={spec.ft_mode}, "
                f"ft_level={spec.ft_level})",
                rungs_attempted=(), surviving_nodes=tuple(survivors))
        if len(dead_sorted) > self._standby_left:
            raise UnrecoverableFailureError(
                f"standby pool exhausted: {len(dead_sorted)} dead, "
                f"{self._standby_left} standby forks left",
                rungs_attempted=("rebirth",),
                surviving_nodes=tuple(survivors))
        self._standby_left -= len(dead_sorted)
        if mid_iteration:
            self._abort_survivors(iteration, survivors)
        # The explicit degraded read window: the dead ranks are reaped
        # and survivors hold the last commit, so reads due by now fall
        # back to surviving replicas (selfish masters on dead ranks
        # miss — their only current copy died) and are tagged degraded.
        if self._serve is not None:
            self._engine.in_recovery = True
            try:
                self._serve.drain(
                    iteration + (0.6 if mid_iteration else 1.0),
                    committed=iteration - 1 if mid_iteration else iteration,
                    dead=set(dead_sorted), force_degraded=True)
            finally:
                self._engine.in_recovery = False
        for rank in dead_sorted:
            self._spawn_worker(rank)

        for rank in survivors:
            self._send(rank, ("extract", tuple(dead_sorted)))
        extracted = self._collect("extracted", None, survivors)

        # Merge survivor snapshots: mirrors lead (full-state copies),
        # the lowest surviving rank breaks ties.
        best: dict[int, tuple[tuple, bool, int]] = {}
        replicas_by_rank: dict[int, list] = {r: [] for r in dead_sorted}
        for src in sorted(extracted):
            _tag, masters, replicas = extracted[src]
            for rec in masters:
                gid, is_mirror = rec[0], rec[6]
                cur = best.get(gid)
                if cur is None or (is_mirror and not cur[1]):
                    best[gid] = (rec, is_mirror, src)
            for rec in replicas:
                for dst in rec[6]:
                    replicas_by_rank[dst].append(rec)
        masters_by_rank: dict[int, list] = {r: [] for r in dead_sorted}
        for rec, _is_mirror, _src in best.values():
            masters_by_rank[rec[1]].append(rec)

        # Simultaneous multi-rank death: replacement A also hosts
        # replica copies of replacement B's masters, and no survivor
        # owns those — forward the merged survivor snapshots as replica
        # records between the reborn ranks (conservatively active; the
        # forced phase-0 re-broadcast trues the flags up under
        # vertex-cut before the next gather reads them).
        for rank in dead_sorted:
            for other in dead_sorted:
                if other == rank:
                    continue
                lg = self._engine.local_graphs[other]
                for slot in lg.iter_masters():
                    if slot.gid not in best:
                        continue
                    targets = {node for node, _m
                               in slot.meta.sync_targets()}
                    if rank not in targets:
                        continue
                    rec, is_mirror, _src = best[slot.gid]
                    _gid, _mn, value, la, lui, msa, _m = rec
                    replicas_by_rank[rank].append(
                        (slot.gid, value, la, lui,
                         msa if is_mirror else True, True, (rank,)))

        force = not self._engine.is_edge_cut
        for rank in dead_sorted:
            expected = [slot.gid for slot
                        in self._engine.local_graphs[rank].iter_masters()]
            lost = [gid for gid in expected
                    if gid not in best]
            if lost:
                raise UnrecoverableFailureError(
                    f"{len(lost)} vertices mastered on rank {rank} have "
                    f"no surviving replica", lost_vertices=len(lost),
                    rungs_attempted=("rebirth",),
                    surviving_nodes=tuple(survivors))
            self._send(rank, ("reseed", sorted(masters_by_rank[rank]),
                              sorted(replicas_by_rank[rank]),
                              expected, force))
        self._collect("reseeded", None, dead_sorted)
        for rank in survivors:
            self._send(rank, ("recovered", force))
        self._collect("recovered_ack", None, survivors)
        self._rebirths += len(dead_sorted)
        # Reborn selfish masters were reseeded from replicas that — by
        # the selfish optimisation — never saw their syncs: stale until
        # the redone superstep recomputes them.  Fence their reads to a
        # degraded miss until the next commit (the simulator's
        # ``Engine.selfish_read_fence``, same contract).
        if self._engine.selfish_opt_active:
            for rank in dead_sorted:
                lg = self._engine.local_graphs[rank]
                self._engine.selfish_read_fence.update(
                    slot.gid for slot in lg.iter_masters() if slot.selfish)

    # -- the run loop ----------------------------------------------------

    def _validate(self, spec: BackendSpec, engine) -> None:
        import multiprocessing

        if "fork" not in multiprocessing.get_all_start_methods():
            raise BackendError(
                "multiprocessing backend needs the fork start method")
        if engine.program.mutates_edges:
            raise BackendError(
                "edge-mutating programs are not supported on the "
                "multiprocessing backend")
        if spec.ft_mode not in ("none", "replication"):
            raise BackendError(
                f"ft_mode {spec.ft_mode!r} is not supported on the "
                f"multiprocessing backend")
        if spec.recovery != "rebirth":
            raise BackendError(
                "the multiprocessing backend recovers by rebirth only")
        if not spec.batch_syncs:
            raise BackendError(
                "the multiprocessing backend always batches syncs "
                "(the wire format is the batch)")
        for iteration, _ranks, phase in spec.failures:
            if phase not in ("compute", "commit", "after_commit"):
                raise BackendError(
                    f"unsupported failure phase {phase!r}")
            if iteration >= spec.max_iterations:
                raise BackendError(
                    f"failure scheduled at iteration {iteration} beyond "
                    f"max_iterations {spec.max_iterations}")
        for event in spec.membership:
            kind = event[1]
            if kind not in ("join", "drain", "flap"):
                raise BackendError(
                    f"unknown membership event kind {kind!r}")
            if event[0] >= spec.max_iterations:
                raise BackendError(
                    f"membership event at iteration {event[0]} beyond "
                    f"max_iterations {spec.max_iterations}")
            if kind in ("drain", "flap") and event[2] is None:
                raise BackendError(f"{kind} events need a target rank")
            if kind in ("join", "drain"):
                if spec.ft_mode != "replication" \
                        or not engine.is_edge_cut:
                    raise BackendError(
                        "joins and drains need replication over an "
                        "edge-cut partitioning")

    def run(self, graph, spec: BackendSpec) -> BackendRunResult:
        import multiprocessing

        # The parent engine is the state template: partitioned,
        # replicated and value-initialised in __init__, never run.
        # Workers fork from it, so every rank starts bit-identical to
        # the simulator's, with the SoA topology loading seeded.  Its
        # array protocol (when installed) only selects the workers'
        # protocol: it never runs in the parent.
        kwargs = spec.engine_kwargs()
        # Membership replays through the parent engine's own manager at
        # reshape points — never via the engine's scheduled events (the
        # parent runs no supersteps to pump them).
        kwargs["membership"] = ()
        engine = make_engine(graph, **kwargs)
        self._validate(spec, engine)
        self._beat_s = (self.heartbeat_s if spec.heartbeat_interval_s is None
                        else spec.heartbeat_interval_s)
        self._beat_misses = (self.heartbeat_misses
                             if spec.heartbeat_misses is None
                             else spec.heartbeat_misses)
        self._ctx = multiprocessing.get_context("fork")
        self._engine = engine
        self._standby_left = spec.num_standby
        self._rebirths = 0
        self._reshapes = 0
        self._flaps = 0
        self._leader = -1
        self._leader_term = 0
        serve_cfg = spec.serve_config()
        self._serve = None
        if serve_cfg is not None:
            workload = workload_from_config(graph.num_vertices, serve_cfg)
            self._serve = _MpReadServer(self, engine, workload, serve_cfg)
        kills_pending = {"compute": defaultdict(set),
                         "commit": defaultdict(set),
                         "after_commit": defaultdict(set)}
        for iteration, ranks, phase in spec.failures:
            kills_pending[phase][iteration].update(ranks)
        flaps_pending: dict[int, list[int]] = defaultdict(list)
        reshape_pending: dict[int, list] = defaultdict(list)
        for event in spec.membership:
            iteration, kind, target = event[0], event[1], event[2]
            count = event[3] if len(event) > 3 else 1
            if kind == "flap":
                flaps_pending[iteration].append(int(target))
            else:
                reshape_pending[iteration].append((kind, target, count))

        book = _TrafficBook()
        elided_total = 0
        completed = 0
        halted = False
        retries: dict[int, int] = defaultdict(int)
        start = time.perf_counter()
        try:
            for rank in sorted(engine.local_graphs):
                self._spawn_worker(rank)
            while completed < spec.max_iterations:
                it = completed
                for rank in flaps_pending.pop(it, []):
                    self._flap(rank)
                try:
                    if self._serve is not None:
                        self._serve.drain(it + 0.0, committed=it - 1)
                    active_total, elided = self._iterate(
                        it, book, kills_pending["compute"].pop(it, set()),
                        kills_pending["commit"].pop(it, set()))
                except _WorkerDeath as death:
                    retries[it] += 1
                    if retries[it] > self.max_iteration_retries:
                        raise BackendError(
                            f"iteration {it} aborted {retries[it]} times "
                            f"(workers {sorted(death.ranks)} last); "
                            f"giving up after max_iteration_retries="
                            f"{self.max_iteration_retries}") from death
                    self._recover(death.ranks, it, spec,
                                  mid_iteration=True)
                    continue  # redo the aborted iteration
                elided_total += elided
                completed += 1
                # The commit of ``it`` made any recovery-recomputed
                # selfish values the committed ones: the read fence
                # closes (mirrors Engine._commit_barrier).
                engine.selfish_read_fence.clear()
                reshape_events = reshape_pending.pop(it, [])
                if reshape_events:
                    self._reshape(reshape_events)
                if active_total == 0:
                    halted = True
                    break
                late = kills_pending["after_commit"].pop(it, set())
                if late:
                    dead = self._kill(late)
                    if dead:
                        self._recover(dead, it, spec, mid_iteration=False)
            wall_s = time.perf_counter() - start
            if self._serve is not None:
                self._serve.finish(committed=completed - 1)
            values, vectorized = self._collect_values()
        finally:
            self.close()
            self._engine = None
        extra = {"workers": len(engine.local_graphs),
                 "vectorized": vectorized,
                 "rebirths": self._rebirths,
                 "standby_left": self._standby_left}
        if spec.membership or self._rebirths:
            manager = engine._membership
            extra["membership"] = {
                "epoch": engine.cluster.membership_epoch,
                "moves": manager.moves_total if manager else 0,
                "bytes": manager.bytes_total if manager else 0,
                "joins": sum(1 for op in manager.completed
                             if op.kind == "join") if manager else 0,
                "drains": sum(1 for op in manager.completed
                              if op.kind == "drain") if manager else 0,
                "flaps": self._flaps,
                "reshapes": self._reshapes,
                "leader": self._leader,
                "leader_term": self._leader_term,
            }
        if self._serve is not None:
            extra["serve"] = self._serve.report()
            extra["serve_responses"] = self._serve.stats.responses
            self._serve = None
        return BackendRunResult(
            backend=self.name,
            values=values,
            iterations=completed,
            total_msgs=book.total_msgs,
            total_bytes=book.total_bytes,
            total_batches=book.total_batches,
            msgs_by_kind=dict(book.by_kind),
            syncs_elided=elided_total,
            wall_s=wall_s,
            halted=halted,
            failures_recovered=self._rebirths,
            combined_records=book.combine_pre - book.combine_phys,
            combine_ratio=(book.combine_pre / book.combine_phys
                           if book.combine_phys else 1.0),
            extra=extra)

    def _iterate(self, it: int, book: _TrafficBook, kill_now: set[int],
                 kill_commit: set[int] = frozenset()) -> tuple[int, int]:
        """One full superstep across the workers; returns
        ``(active_masters_after, syncs_elided)``."""
        alive = sorted(self._workers)
        if self._engine.is_edge_cut:
            for rank in alive:
                self._send(rank, ("compute", it))
            if kill_now:
                dead = self._kill(kill_now)
                if dead:
                    raise _WorkerDeath(dead)
            computed = self._collect("computed", it, alive)
            sync_frames = self._route(computed, book)
            elided = sum(frame[5] for frame in computed.values())
        else:
            for rank in alive:
                self._send(rank, ("vc0", it))
            if kill_now:
                dead = self._kill(kill_now)
                if dead:
                    raise _WorkerDeath(dead)
            vc0 = self._collect("vc0_done", it, alive)
            ctrl_frames = self._route(vc0, book)
            for rank in alive:
                self._send(rank, ("vc1", it, ctrl_frames[rank]))
            vc1 = self._collect("vc1_done", it, alive)
            gather_frames = self._route(vc1, book)
            for rank in alive:
                self._send(rank, ("vc2", it, gather_frames[rank]))
            vc2 = self._collect("vc2_done", it, alive)
            sync_frames = self._route(vc2, book)
            elided = sum(frame[4] for frame in vc2.values())

        # Reads interleave mid-superstep: compute is done but nothing
        # committed, so worker slots still hold the last commit —
        # staged results live only in the pending fields.  (Never drain
        # between the commit rounds below: slots flip there.)
        if self._serve is not None:
            self._serve.drain(it + 0.5, committed=it - 1)

        # Commit stage 1 stays abortable: workers only stage pending
        # fields until the finalize round, so a death here propagates as
        # ``_WorkerDeath`` — survivors abort, recovery runs, and the
        # iteration is redone (bounded by ``max_iteration_retries``).
        for rank in alive:
            self._send(rank, ("commit", it, sync_frames[rank]))
        if kill_commit:
            dead = self._kill(kill_commit)
            if dead:
                raise _WorkerDeath(dead)
        staged = self._collect("staged", it, alive)
        act_frames: dict[int, list] = {r: [] for r in alive}
        for src in sorted(staged):
            for dst, enc in staged[src][2]:
                book.count("activate", enc)
                act_frames[dst].append((src, enc))
        # The finalize round is the point of no return: once any worker
        # processes ``commit2`` its slots flip, so a death here leaves a
        # half-committed superstep — a hard error, not a recovery case.
        try:
            for rank in alive:
                self._send(rank, ("commit2", it, act_frames[rank]))
            committed = self._collect("committed", it, alive)
        except _WorkerDeath as death:
            raise BackendError(
                f"workers {sorted(death.ranks)} died inside the finalize "
                f"round of iteration {it}; the multiprocessing backend "
                f"cannot roll back a half-committed superstep"
            ) from death
        return sum(frame[2] for frame in committed.values()), elided

    def _collect_values(self) -> tuple[dict[int, Any], bool]:
        """Every rank's committed master values, and whether every
        worker ran the array operations."""
        alive = sorted(self._workers)
        for rank in alive:
            self._send(rank, ("values",))
        frames = self._collect("values_done", None, alive)
        values: dict[int, Any] = {}
        for rank in alive:
            values.update(frames[rank][1])
        return values, all(frames[rank][2] for rank in alive)
