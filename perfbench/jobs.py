"""The benchmark's three jobs and the instrumentation around them.

Every job is PageRank on ``power_law(N, alpha=2.0, avg_degree=6.0)``
(drawn by :func:`make_graph`) for 12 supersteps with a crash in the
compute phase of superstep 6.
Everything here measures the program from outside ``src/``:

* wall time around calls into each layer's public functions
  (``make_engine``, ``Engine.run``, ``ReadServer.serve``,
  ``MultiprocessingBackend.run``, ``serialize.encode_batch`` /
  ``decode_batch``), and around the three load functions the engine
  module calls (``make_partitioner(...)(...)``, ``plan_replication``,
  ``build_local_graphs``), which a traced job swaps for timed wrappers
  in the engine module's namespace;
* :class:`Timeline`, a serve hook registered with
  ``Engine.attach_serve`` that timestamps the engine's existing phase
  hooks.

Each function below runs inside a forked child of ``run.py`` and
returns plain numbers, so no job's heap, caches or peak memory leaks
into the next one.
"""

from __future__ import annotations

import resource
import statistics
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass

import numpy as np

import repro.engine.engine as engine_module
from repro.api import make_engine
from repro.chaos.oracle import values_close
from repro.exec.base import BackendSpec
from repro.exec.mp import MultiprocessingBackend
from repro.exec.serialize import decode_batch, encode_batch, encoded_records
from repro.graph.generators import power_law
from repro.serve.replay import check_responses, replay_committed_history
from repro.serve.server import ReadServer
from repro.serve.workload import NEIGHBORHOOD, POINT, TOPK, OpenLoopWorkload

SUPERSTEPS = 12
AVG_DEGREE = 6.0
#: Graph draws per seed before giving up (see :func:`make_graph`).
GRAPH_DRAWS = 16
KILL_AT = 6
NUM_READS = 10_000
ZIPF_S = 1.1
NEIGHBORHOOD_FRAC = 0.05
TOPK_FRAC = 0.001
#: Superstep whose batches the codec measurement encodes and decodes.
CODEC_SUPERSTEP = 1
CODEC_REPEATS = 5


@dataclass(frozen=True)
class Workload:
    name: str
    num_vertices: int
    backend: str  # "sim" or "mp"
    partition: str
    num_nodes: int
    ft_level: int
    recovery: str
    num_standby: int
    killed: tuple[int, ...]
    #: Documented fidelity gap that makes recovered values differ
    #: bit-wise from the failure-free run (EXPERIMENTS.md); the
    #: mismatches are still counted into ``wrong_values``.
    known_gap: str = ""

    def spec(self, seed: int, failures: bool = True,
             serve: bool = False) -> BackendSpec:
        serve_cfg = ()
        if serve:
            serve_cfg = (("neighborhood_frac", NEIGHBORHOOD_FRAC),
                         ("num_queries", NUM_READS), ("seed", seed),
                         ("topk_frac", TOPK_FRAC), ("zipf_s", ZIPF_S))
        return BackendSpec(
            algorithm="pagerank", num_nodes=self.num_nodes,
            partition=self.partition, ft_level=self.ft_level,
            recovery=self.recovery, max_iterations=SUPERSTEPS,
            num_standby=self.num_standby,
            failures=((KILL_AT, self.killed, "compute"),) if failures
            else (),
            serve=serve_cfg)


#: Why each workload exists is recorded in BENCHMARK.json and
#: perfbench/README.md.
WORKLOADS = {w.name: w for w in (
    Workload(
        "pagerank-ec-40k-sim", 40_000, "sim", "hash_edge_cut", 8, 1,
        "rebirth", 1, (3,)),
    Workload(
        "pagerank-vc-10k-mp", 10_000, "mp", "hybrid_cut", 2, 1,
        "rebirth", 1, (1,)),
    Workload(
        "pagerank-vc-20k-migrate-sim", 20_000, "sim", "hybrid_cut", 8, 2,
        "migration", 0, (2, 5),
        known_gap="EXPERIMENTS.md gap 4: vertex-cut migration regroups "
                  "the gather fold of reloaded edges"),
)}


def make_graph(num_vertices: int, seed: int):
    """``power_law(N, alpha=2.0, avg_degree=6.0)`` with no more edges
    than ``N * AVG_DEGREE``; returns ``(graph, graph_seed)``.

    On some seeds (about 40% at N=10000) the generator's corrective
    round overshoots the requested mean degree and gives 6.2-6.5 edges
    per vertex instead of 5.5-5.9.  That is about 13% more edges and a
    slower job, which would make run-to-run spread a matter of which
    seeds were drawn.
    Graph seeds ``seed * GRAPH_DRAWS + k`` are tried in order, and the
    first graph at or below the requested mean is kept.
    """
    for k in range(GRAPH_DRAWS):
        graph_seed = seed * GRAPH_DRAWS + k
        graph = power_law(num_vertices, alpha=2.0, avg_degree=AVG_DEGREE,
                          seed=graph_seed)
        if graph.num_edges <= AVG_DEGREE * num_vertices:
            return graph, graph_seed
    raise RuntimeError(f"no graph with at most {AVG_DEGREE} edges per "
                       f"vertex in {GRAPH_DRAWS} draws from seed {seed}")


def make_inputs(workload: Workload, seed: int):
    """The generated graph and read stream the program receives, and
    the seed the graph was drawn with."""
    graph, graph_seed = make_graph(workload.num_vertices, seed)
    reads = OpenLoopWorkload(workload.num_vertices, NUM_READS,
                             zipf_s=ZIPF_S, seed=seed,
                             neighborhood_frac=NEIGHBORHOOD_FRAC,
                             topk_frac=TOPK_FRAC)
    return graph, reads, graph_seed


def value_bits(values: dict, num_vertices: int) -> np.ndarray:
    """Final values as raw 64-bit patterns, indexed by gid."""
    return np.array([values[g] for g in range(num_vertices)],
                    dtype=np.float64).view(np.uint64)


# ---------------------------------------------------------------------
# outside-the-program instrumentation
# ---------------------------------------------------------------------

class Timeline:
    """Serve hook timestamping every engine phase hook."""

    def __init__(self):
        self.marks: list[tuple[str, int, float]] = []

    def on_phase(self, engine, phase: str) -> None:
        self.marks.append((phase, engine.iteration, time.perf_counter()))


@contextmanager
def timed_load_calls(spans: dict):
    """Time the engine's three load calls; keep what they return."""
    originals = (engine_module.make_partitioner,
                 engine_module.plan_replication,
                 engine_module.build_local_graphs)

    def timed(name, fn):
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            out = fn(*args, **kwargs)
            spans[name] = spans.get(name, 0.0) + time.perf_counter() - start
            spans.setdefault(name + ":result", out)
            return out
        return wrapper

    engine_module.make_partitioner = (
        lambda strategy: timed("partition.s", originals[0](strategy)))
    engine_module.plan_replication = timed("ft.plan_s", originals[1])
    engine_module.build_local_graphs = timed("engine.construct_s",
                                             originals[2])
    try:
        yield
    finally:
        (engine_module.make_partitioner, engine_module.plan_replication,
         engine_module.build_local_graphs) = originals


LOAD_CALLS = ("partition.s", "ft.plan_s", "engine.construct_s")


def load_layers(spans: dict, num_vertices: int, setup_s: float) -> dict:
    """Per-layer load metrics from the timed wrappers (empty when the
    job was not traced)."""
    if "ft.plan_s" not in spans:
        return {}
    plan = spans["ft.plan_s:result"]
    out = {name: spans[name] for name in LOAD_CALLS}
    out["engine.load_other_s"] = setup_s - sum(out.values())
    out["partition.replication_factor"] = (
        1.0 + plan.total_computation_replicas() / num_vertices)
    out["ft.ft_replicas"] = float(plan.total_ft_replicas())
    return out


def phase_spans(marks: list[tuple[str, int, float]]) -> dict:
    """Superstep and recovery spans from the phase-hook timestamps.

    A superstep runs from its last ``superstep_start`` to its
    ``post_commit``; the failure window runs from the first
    ``superstep_start`` of superstep ``KILL_AT`` (the failed attempt)
    to the ``post_commit`` of its retry, and splits at the
    ``recovery``, last ``recovery_protocol`` and ``post_recovery``
    hooks.
    """
    first_start: dict[int, float] = {}
    last_start: dict[int, float] = {}
    last_barrier: dict[int, float] = {}
    commit: dict[int, float] = {}
    rec: dict[str, float] = {}
    for phase, it, t in marks:
        if phase == "superstep_start":
            first_start.setdefault(it, t)
            last_start[it] = t
        elif phase == "barrier":
            last_barrier[it] = t
        elif phase == "post_commit":
            commit[it] = t
        elif phase == "recovery":
            rec.setdefault("recovery", t)
        elif phase in ("recovery_protocol", "post_recovery"):
            rec[phase] = t
    if sorted(commit) != list(range(SUPERSTEPS)) or len(rec) != 3:
        raise RuntimeError(
            f"unexpected phase sequence: commits {sorted(commit)}, "
            f"recovery hooks {sorted(rec)}")
    dur = {i: commit[i] - last_start[i] for i in commit}
    steady = [i for i in commit if i not in (0, KILL_AT)]
    p50 = statistics.median(dur[i] for i in steady)
    window = commit[KILL_AT] - first_start[KILL_AT]
    covered = sum(d for i, d in dur.items() if i != KILL_AT) + window
    return {
        "superstep_p50_ms": p50 * 1e3,
        "recovery_s": window - p50,
        "engine.superstep0_s": dur[0],
        "engine.steady_s": sum(dur[i] for i in steady),
        "engine.compute_ms": 1e3 * statistics.median(
            last_barrier[i] - last_start[i] for i in steady),
        "engine.barrier_ms": 1e3 * statistics.median(
            commit[i] - last_barrier[i] for i in steady),
        "ft.recovery.failed_attempt_s":
            rec["recovery"] - first_start[KILL_AT],
        "ft.recovery.protocol_s":
            rec["recovery_protocol"] - rec["recovery"],
        "ft.recovery.finish_s":
            rec["post_recovery"] - rec["recovery_protocol"],
        "ft.recovery.redo_s": commit[KILL_AT] - rec["post_recovery"],
        "_covered_s": covered,
        "_last_mark": marks[-1][2],
    }


def cpu_s(usage) -> float:
    return usage.ru_utime + usage.ru_stime


# ---------------------------------------------------------------------
# correctness
# ---------------------------------------------------------------------

def count_wrong(values: dict, ref_bits: np.ndarray,
                known_gap: bool) -> tuple[int, bool]:
    """Bit-wise mismatches against the failure-free run.

    Returns ``(mismatches, acceptable)``: with no known gap only zero
    mismatches are acceptable; under the documented gap each mismatch
    must still satisfy the program's own oracle (``values_close``).
    """
    bits = value_bits(values, ref_bits.size)
    wrong = np.flatnonzero(bits != ref_bits)
    if not known_gap or wrong.size == 0:
        return int(wrong.size), wrong.size == 0
    ref = ref_bits.view(np.float64)
    return int(wrong.size), all(values_close(values[int(g)], float(ref[g]))
                                for g in wrong)


def read_stats(responses) -> dict:
    """Misses (no value) and degraded answers among the responses."""
    misses = degraded = 0
    for resp in responses:
        degraded += resp.degraded
        if resp.value is None or (resp.kind == NEIGHBORHOOD and any(
                v is None for _, v in resp.value)):
            misses += 1
    n = len(responses)
    return {"read_misses": misses / n, "serve.degraded_frac": degraded / n}


# ---------------------------------------------------------------------
# the reference run (failure-free simulator, outside any timed region)
# ---------------------------------------------------------------------

class BatchCapture:
    """Collects one superstep's remote batches from ``Network.send``."""

    def __init__(self, engine, superstep: int):
        self.superstep = superstep
        self.batches: list = []
        self._on = False
        net = engine.cluster.network
        send = net.send

        def capture(msg):
            if (self._on and msg.src != msg.dst
                    and getattr(msg.payload, "is_columnar", False)):
                self.batches.append(msg.payload)
            send(msg)

        net.send = capture
        engine.attach_serve(self)

    def on_phase(self, engine, phase: str) -> None:
        if engine.iteration == self.superstep:
            if phase == "superstep_start":
                self._on = True
            elif phase == "post_commit":
                self._on = False

    def codec_costs(self) -> dict:
        """Encode/decode cost per record and pickled wire bytes."""
        from multiprocessing.reduction import ForkingPickler

        encoded = [encode_batch(b) for b in self.batches]
        records = sum(encoded_records(e) for e in encoded)
        enc_t, dec_t = [], []
        for _ in range(CODEC_REPEATS):
            start = time.perf_counter()
            for batch in self.batches:
                encode_batch(batch)
            enc_t.append(time.perf_counter() - start)
            start = time.perf_counter()
            for enc in encoded:
                decode_batch(enc)
            dec_t.append(time.perf_counter() - start)
        wire = sum(len(ForkingPickler.dumps(e)) for e in encoded)
        return {
            "exec.codec.encode_ns_per_record":
                statistics.median(enc_t) * 1e9 / records,
            "exec.codec.decode_ns_per_record":
                statistics.median(dec_t) * 1e9 / records,
            "exec.codec.bytes_per_record": wire / records,
        }


def reference(workload: Workload, graph, seed: int, traced: bool) -> dict:
    """Failure-free simulator values (and, on mp, the committed
    history of the same faulty spec, for checking interleaved reads)."""
    engine = make_engine(graph,
                         **workload.spec(seed, failures=False)
                         .engine_kwargs())
    capture = BatchCapture(engine, CODEC_SUPERSTEP) if traced else None
    values = engine.run().values
    out = {"bits": value_bits(values, graph.num_vertices)}
    if workload.backend == "mp":
        out["history"] = replay_committed_history(graph,
                                                  workload.spec(seed))
    if capture is not None:
        out["codec"] = capture.codec_costs()
    return out


# ---------------------------------------------------------------------
# the timed jobs
# ---------------------------------------------------------------------

def sim_job(workload: Workload, graph, reads, ref: dict, seed: int,
            traced: bool) -> dict:
    """make_engine → Engine.run (crash + recovery) → read burst."""
    spec = workload.spec(seed)
    spans: dict = {}
    timeline = Timeline()
    start = time.perf_counter()
    with timed_load_calls(spans) if traced else nullcontext():
        engine = make_engine(graph, **spec.engine_kwargs())
    setup_s = time.perf_counter() - start
    for iteration, ranks, phase in spec.failures:
        engine.schedule_failure(iteration, list(ranks), phase)
    engine.attach_serve(timeline)
    result = engine.run()
    end = time.perf_counter()
    if len(result.recoveries) != 1:
        raise RuntimeError(f"expected one recovery, saw "
                           f"{len(result.recoveries)}")

    # Closed loop, one client: each read is sent when the last returns.
    server = ReadServer(engine, neighborhood_limit=reads.neighborhood_limit)
    lat = np.empty(len(reads))
    for i in range(len(reads)):
        query = reads.query(i)
        t0 = time.perf_counter()
        server.serve(query)
        lat[i] = time.perf_counter() - t0
    lat_us = lat * 1e6
    responses = server.responses
    if check_responses(responses,
                       {engine.committed_iteration: result.values}):
        raise RuntimeError("a read disagrees with the committed values")

    wrong, acceptable = count_wrong(result.values, ref["bits"],
                                    bool(workload.known_gap))
    spans_t = phase_spans(timeline.marks)
    total_s = end - start
    net = engine.cluster.network.totals
    out = {
        "setup_s": setup_s,
        "total_s": total_s,
        "read_p50_us": float(np.percentile(lat_us, 50)),
        "read_p99_us": float(np.percentile(lat_us, 99)),
        "wrong_values": wrong / graph.num_vertices,
        "values_acceptable": acceptable,
        "engine.result_s": end - spans_t["_last_mark"],
        "ft.recovery.bytes": float(sum(r.recovery_bytes
                                       for r in result.recoveries)),
        "ft.recovery.sim_s": sum(r.total_s for r in result.recoveries),
        "cluster.net.logical_records": float(net.total_msgs),
        "cluster.net.batches": float(net.total_batches),
        "cluster.net.wire_bytes": float(net.total_bytes),
        "cluster.net.combine_ratio": result.combine_ratio,
        **read_stats(responses),
    }
    load = load_layers(spans, graph.num_vertices, setup_s)
    out.update(load)
    out.update({k: v for k, v in spans_t.items() if not k.startswith("_")})
    for kind, name in ((POINT, "point"), (NEIGHBORHOOD, "neighborhood"),
                       (TOPK, "topk")):
        sel = lat_us[reads.kinds == kind]
        out[f"serve.{name}_p50_us"] = float(np.median(sel)) if sel.size \
            else 0.0
    out["_covered_s"] = (spans_t["_covered_s"] + out["engine.result_s"]
                         + sum(load.get(k, 0.0) for k in LOAD_CALLS))
    return out


def mp_job(workload: Workload, graph, reads, ref: dict, seed: int,
           traced: bool) -> dict:
    """MultiprocessingBackend.run with a real SIGKILL and rebirth and
    reads interleaved through ``BackendSpec.serve``."""
    spec = workload.spec(seed, serve=True)
    spans: dict = {}
    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    start = time.perf_counter()
    with timed_load_calls(spans) if traced else nullcontext():
        with MultiprocessingBackend() as backend:
            result = backend.run(graph, spec)
    total_s = time.perf_counter() - start
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)
    if result.failures_recovered != 1:
        raise RuntimeError(f"expected one rebirth, saw "
                           f"{result.failures_recovered}")

    responses = result.extra["serve_responses"]
    if len(responses) != len(reads):
        raise RuntimeError(f"{len(responses)} of {len(reads)} reads "
                           f"answered")
    if check_responses(responses, ref["history"]):
        raise RuntimeError("a read disagrees with the committed history")
    wrong, acceptable = count_wrong(result.values, ref["bits"],
                                    bool(workload.known_gap))
    coord_cpu = cpu_s(self1) - cpu_s(self0)
    setup_s = total_s - result.wall_s
    load = load_layers(spans, graph.num_vertices, setup_s)
    return {
        "setup_s": setup_s,
        "total_s": total_s,
        "wrong_values": wrong / graph.num_vertices,
        "values_acceptable": acceptable,
        "exec.mp.loop_s": result.wall_s,
        "exec.mp.coord_cpu_s": coord_cpu,
        "exec.mp.coord_wait_frac": 1.0 - coord_cpu / total_s,
        "exec.mp.workers_cpu_s": cpu_s(kids1) - cpu_s(kids0),
        "exec.mp.serve_p50_us": result.extra["serve"]["p50_us"],
        "exec.mp.serve_p99_us": result.extra["serve"]["p99_us"],
        "cluster.net.logical_records": float(result.total_msgs),
        "cluster.net.batches": float(result.total_batches),
        "cluster.net.wire_bytes": float(result.total_bytes),
        "cluster.net.combine_ratio": result.combine_ratio,
        "_covered_s": result.wall_s + sum(load.get(k, 0.0)
                                          for k in LOAD_CALLS),
        **read_stats(responses),
        **load,
    }


JOBS = {"sim": sim_job, "mp": mp_job}
