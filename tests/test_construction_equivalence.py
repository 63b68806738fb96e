"""Differential oracle for the array-built loading path.

The loading steps — replication planning, local-graph construction,
value initialisation and the vertex-cut edge-ckpt files — are computed
from the partition arrays in bulk.  This module keeps the per-vertex /
per-edge / per-slot loops they replaced as a test-only reference and
checks that both produce the same state, field by field and in the
same order: the plan, every slot (static fields, edge lists, metadata,
mirror edge copies), every column and active set, every edge-ckpt
file, and the SoA topology seeded at load against the one rebuilt from
the slots.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np
import pytest

from repro.api import make_engine
from repro.cluster.storage import PersistentStore
from repro.config import FaultToleranceConfig, FTMode
from repro.engine.construction import ConstructionReport, build_local_graphs
from repro.engine.local_graph import LocalGraph
from repro.engine.soa import NodeTopology
from repro.engine.state import COLUMN_FIELDS, MasterMeta, Role, VertexSlot
from repro.engine.vertex_program import ApplyContext
from repro.errors import EngineError
from repro.ft.checkpoint import CheckpointManager
from repro.ft.edge_ckpt import EdgeCkptStore, EdgeRecord
from repro.ft.replication import ReplicationPlan, plan_replication
from repro.graph import generators
from repro.graph.graph import Graph
from repro.partition.base import EdgeCutPartitioning, VertexCutPartitioning
from repro.utils.rng import SeededRng

PARTITIONERS = ("hash_edge_cut", "fennel_edge_cut", "random_vertex_cut",
                "grid_vertex_cut", "hybrid_cut")
NUM_NODES = 6
ISOLATED = 5


# ---------------------------------------------------------------------
# reference: the loop implementations the array path replaced
# ---------------------------------------------------------------------

def ref_computation_replicas(graph, partitioning) -> list[set[int]]:
    n = graph.num_vertices
    replicas: list[set[int]] = [set() for _ in range(n)]
    master_of = np.asarray(partitioning.master_of)
    src, dst = graph.sources, graph.targets
    if isinstance(partitioning, EdgeCutPartitioning):
        src_nodes = master_of[src]
        dst_nodes = master_of[dst]
        for eid in np.flatnonzero(src_nodes != dst_nodes):
            replicas[int(src[eid])].add(int(dst_nodes[eid]))
    else:
        assert isinstance(partitioning, VertexCutPartitioning)
        edge_node = np.asarray(partitioning.edge_node)
        for eid in range(graph.num_edges):
            node = int(edge_node[eid])
            for v in (int(src[eid]), int(dst[eid])):
                if node != int(master_of[v]):
                    replicas[v].add(node)
    return replicas


def ref_plan_replication(graph, partitioning, ft_config,
                         seed: int) -> ReplicationPlan:
    n = graph.num_vertices
    num_nodes = partitioning.num_nodes
    k = ft_config.ft_level
    master_of = np.asarray(partitioning.master_of)
    replica_sets = ref_computation_replicas(graph, partitioning)
    ft_nodes: list[list[int]] = [[] for _ in range(n)]
    if k > 0:
        rng = SeededRng(seed, "ft-placement")
        load = np.bincount(master_of, minlength=num_nodes).astype(np.int64)
        for rset in replica_sets:
            for node in rset:
                load[node] += 1
        candidates = max(1, ft_config.placement_candidates)
        for v in range(n):
            rset = replica_sets[v]
            master = int(master_of[v])
            while len(rset) < k:
                excluded = rset | {master}
                pool = [node for node in range(num_nodes)
                        if node not in excluded]
                sample = (rng.sample(pool, candidates)
                          if len(pool) > candidates else pool)
                best = min(sample, key=lambda node: (load[node], node))
                rset.add(best)
                ft_nodes[v].append(best)
                load[best] += 1
    replica_nodes = [sorted(rset) for rset in replica_sets]
    mirror_nodes: list[list[int]] = [[] for _ in range(n)]
    if k > 0:
        counters: dict[int, np.ndarray] = {}
        for v in range(n):
            master = int(master_of[v])
            counter = counters.setdefault(
                master, np.zeros(num_nodes, dtype=np.int64))
            chosen: list[int] = []
            for node in ft_nodes[v]:
                if len(chosen) >= k:
                    break
                chosen.append(node)
            remaining = [node for node in replica_nodes[v]
                         if node not in chosen]
            while len(chosen) < min(k, len(replica_nodes[v])):
                best = min(remaining, key=lambda node: (counter[node], node))
                remaining.remove(best)
                chosen.append(best)
            for node in chosen:
                counter[node] += 1
            mirror_nodes[v] = chosen
    return ReplicationPlan(k, num_nodes, master_of, replica_nodes, ft_nodes,
                           mirror_nodes, selfish=graph.out_degrees() == 0)


def ref_build_local_graphs(graph, partitioning, plan, dtype):
    out_deg, in_deg = graph.out_degrees(), graph.in_degrees()
    locals_ = {node: LocalGraph(node, dtype)
               for node in range(partitioning.num_nodes)}
    master_of = np.asarray(plan.master_of)
    for v in range(graph.num_vertices):
        node = int(master_of[v])
        meta = MasterMeta(master_node=node)
        slot = VertexSlot(gid=v, role=Role.MASTER,
                          out_degree=int(out_deg[v]),
                          in_degree=int(in_deg[v]), meta=meta,
                          master_node=node, selfish=bool(plan.selfish[v]))
        meta.master_position = locals_[node].add_slot(slot)
    for v in range(graph.num_vertices):
        master_node = int(master_of[v])
        meta = locals_[master_node].slot_of(v).meta
        ft_set = set(plan.ft_nodes[v])
        mirror_list = plan.mirror_nodes[v]
        for node in plan.replica_nodes[v]:
            is_mirror = node in mirror_list
            slot = VertexSlot(
                gid=v, role=Role.MIRROR if is_mirror else Role.REPLICA,
                out_degree=int(out_deg[v]), in_degree=int(in_deg[v]),
                master_node=master_node, ft_only=node in ft_set,
                selfish=bool(plan.selfish[v]),
                mirror_id=mirror_list.index(node) if is_mirror else -1)
            meta.replica_positions[node] = locals_[node].add_slot(slot)
        meta.mirror_nodes = list(mirror_list)
    for v in range(graph.num_vertices):
        meta = locals_[int(master_of[v])].slot_of(v).meta
        for node in plan.mirror_nodes[v]:
            locals_[node].slot_of(v).meta = MasterMeta(
                replica_positions=dict(meta.replica_positions),
                mirror_nodes=list(meta.mirror_nodes),
                master_node=meta.master_node,
                master_position=meta.master_position)

    edge_cut = isinstance(partitioning, EdgeCutPartitioning)
    edge_node = (master_of[graph.targets] if edge_cut
                 else np.asarray(partitioning.edge_node))
    src_arr, dst_arr, w_arr = graph.sources, graph.targets, graph.weights
    for eid in range(graph.num_edges):
        u, v = int(src_arr[eid]), int(dst_arr[eid])
        lg = locals_[int(edge_node[eid])]
        u_pos, v_pos = lg.position_of(u), lg.position_of(v)
        lg.slots[v_pos].in_edges.append((u_pos, float(w_arr[eid])))
        lg.slots[u_pos].out_edges.append(v_pos)
    if edge_cut:
        for v in range(graph.num_vertices):
            if not plan.mirror_nodes[v]:
                continue
            lg = locals_[int(master_of[v])]
            full = [(lg.slots[pos].gid, pos, weight)
                    for pos, weight in lg.slot_of(v).in_edges]
            for node in plan.mirror_nodes[v]:
                locals_[node].slot_of(v).full_edges = list(full)

    less_selfish = less_normal = 0
    for v in range(plan.num_vertices):
        if len(plan.replica_nodes[v]) == len(plan.ft_nodes[v]):
            if bool(plan.selfish[v]):
                less_selfish += 1
            else:
                less_normal += 1
    ft = sum(len(f) for f in plan.ft_nodes)
    report = ConstructionReport(
        graph.num_vertices, graph.num_edges, less_selfish, less_normal,
        sum(len(r) for r in plan.replica_nodes) - ft, ft)
    return locals_, report


def ref_init_values(local_graphs, program, ctx) -> None:
    cache: dict[int, tuple] = {}
    for lg in local_graphs.values():
        lg.column("last_activates")[:] = False
        lg.column("last_update_iter")[:] = -1
        for slot in lg.iter_slots():
            if slot.gid not in cache:
                cache[slot.gid] = (program.initial_value(slot.gid, ctx),
                                   program.is_initially_active(slot.gid))
            value, active = cache[slot.gid]
            slot.value = value
            lg.set_active(slot, active)
            if slot.role is Role.MASTER:
                slot.replicas_known_active = active
            if slot.role is not Role.REPLICA:
                slot.mirror_self_active = active


def ref_edge_ckpt_files(local_graphs, master_node_of, num_workers):
    """What the loop writer handed to ``write_node_edges``, per node."""
    files = {}
    for node, lg in local_graphs.items():
        by_receiver: dict[int, list[EdgeRecord]] = defaultdict(list)
        for slot in lg.iter_slots():
            if not slot.in_edges:
                continue
            master = master_node_of[slot.gid]
            if master != node:
                receiver = master
            else:
                mirrors = [m for m in local_graphs[master].slot_of(
                    slot.gid).meta.mirror_nodes if m != node]
                receiver = mirrors[0] if mirrors else (node + 1) % num_workers
            for src_pos, weight in slot.in_edges:
                by_receiver[receiver].append(
                    EdgeRecord(lg.slots[src_pos].gid, slot.gid, weight))
        files[node] = dict(sorted(by_receiver.items()))
    return files


def ref_topology(lg) -> dict:
    """The per-slot topology walk, as a dict of NodeTopology fields."""
    slots, n = lg.slots, len(lg.slots)
    t = {"n": n, "gids": np.full(n, -1, dtype=np.int64),
         "occupied": np.zeros(n, dtype=bool),
         "is_master": np.zeros(n, dtype=bool),
         "is_mirror": np.zeros(n, dtype=bool),
         "selfish": np.zeros(n, dtype=bool),
         "master_node": np.full(n, -1, dtype=np.int64),
         "out_deg_f": np.zeros(n, dtype=np.float64),
         "in_counts": np.zeros(n, dtype=np.int64)}
    in_src, in_w, in_dst, out_src, out_dst = [], [], [], [], []
    sync: dict[tuple[int, bool], list[int]] = {}
    for pos, slot in enumerate(slots):
        if slot is None:
            continue
        t["occupied"][pos] = True
        t["gids"][pos] = slot.gid
        t["out_deg_f"][pos] = slot.out_degree
        t["selfish"][pos] = slot.selfish
        if slot.role is Role.MASTER:
            t["is_master"][pos] = True
            t["master_node"][pos] = lg.node_id
            for key in slot.meta.sync_targets():
                sync.setdefault(key, []).append(pos)
        else:
            t["is_mirror"][pos] = slot.role is Role.MIRROR
            t["master_node"][pos] = slot.master_node
        t["in_counts"][pos] = len(slot.in_edges)
        for src, weight in slot.in_edges:
            in_src.append(src)
            in_w.append(weight)
            in_dst.append(pos)
        for dst in slot.out_edges:
            if slots[dst] is not None:
                out_src.append(pos)
                out_dst.append(dst)
    t["has_in"] = t["in_counts"] > 0
    for name, values, dtype in (
            ("in_src", in_src, np.int64), ("in_w", in_w, np.float64),
            ("in_dst", in_dst, np.int64), ("out_src", out_src, np.int64),
            ("out_dst", out_dst, np.int64)):
        t[name] = np.asarray(values, dtype=dtype)
    occ = np.flatnonzero(t["occupied"])
    t["pos_sorted"] = occ[np.argsort(t["gids"][occ], kind="stable")]
    t["gid_sorted"] = t["gids"][t["pos_sorted"]]
    t["sync_plan"] = {key: np.asarray(positions, dtype=np.int64)
                      for key, positions in sync.items()}
    return t


# ---------------------------------------------------------------------
# comparisons
# ---------------------------------------------------------------------

def assert_plans_equal(plan, ref):
    assert (plan.ft_level, plan.num_nodes) == (ref.ft_level, ref.num_nodes)
    assert np.array_equal(plan.master_of, ref.master_of)
    assert np.array_equal(plan.selfish, ref.selfish)
    for name in ("replica_nodes", "ft_nodes", "mirror_nodes"):
        got, want = getattr(plan, name), getattr(ref, name)
        assert got == want, name
        assert all(type(node) is int for nodes in got for node in nodes)
    assert plan.total_ft_replicas() == ref.total_ft_replicas()
    assert (plan.total_computation_replicas()
            == ref.total_computation_replicas())


def assert_metas_equal(meta, ref):
    if ref is None:
        assert meta is None
        return
    assert (list(meta.replica_positions.items())
            == list(ref.replica_positions.items()))
    assert meta.mirror_nodes == ref.mirror_nodes
    assert (meta.master_node, meta.master_position) == \
        (ref.master_node, ref.master_position)
    assert meta.sync_targets() == ref.sync_targets()


def assert_slots_equal(graphs, refs):
    assert list(graphs) == list(refs)
    for node, lg in graphs.items():
        ref = refs[node]
        assert lg.index_of == ref.index_of
        assert len(lg.slots) == len(ref.slots)
        metas = set()
        for slot, want in zip(lg.slots, ref.slots):
            for name in ("gid", "role", "out_degree", "in_degree",
                         "master_node", "ft_only", "selfish", "mirror_id",
                         "in_edges", "out_edges", "full_edges"):
                assert getattr(slot, name) == getattr(want, name), name
            assert_metas_equal(slot.meta, want.meta)
            if slot.meta is not None:
                metas.add(id(slot.meta))
        # Every master and mirror owns its metadata.
        assert len(metas) == sum(s.meta is not None for s in lg.slots)


def assert_state_equal(graphs, refs):
    for node, lg in graphs.items():
        ref = refs[node]
        assert lg.dtype == ref.dtype
        for name in COLUMN_FIELDS:
            got, want = lg.column(name), ref.column(name)
            assert got.dtype == want.dtype, name
            assert got.tolist() == want.tolist(), name
        assert lg.active_masters == ref.active_masters
        assert lg.active_others == ref.active_others
        assert lg.active_masters_snapshot() == ref.active_masters_snapshot()
        assert lg.active_others_snapshot() == ref.active_others_snapshot()


def assert_topologies_equal(topo, ref):
    if isinstance(ref, NodeTopology):
        ref = {name: getattr(ref, name) for name in NodeTopology.__slots__}
    for name in NodeTopology.__slots__:
        got, want = getattr(topo, name), ref[name]
        if name == "sync_plan":
            assert list(got) == list(want)
            for key in got:
                assert got[key].dtype == want[key].dtype
                assert np.array_equal(got[key], want[key]), key
        elif isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, name
            assert np.array_equal(got, want), name
        else:
            assert got == want, name


def stored_files(store: EdgeCkptStore, num_nodes: int):
    return {node: {receiver: store.read_file(node, receiver)
                   for receiver in store.receivers(node)}
            for node in range(num_nodes)}


# ---------------------------------------------------------------------
# the matrix
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def graph():
    """Power-law with selfish vertices, plus isolated ones at the end,
    and distinct weights so a misplaced weight shows."""
    base = generators.power_law(240, alpha=2.0, seed=44, avg_degree=4.0,
                                selfish_frac=0.2)
    weights = np.random.default_rng(44).uniform(0.5, 2.0, base.num_edges)
    return Graph(base.num_vertices + ISOLATED, base.sources, base.targets,
                 weights)


def test_fixture_has_selfish_and_isolated_vertices(graph):
    out_deg, in_deg = graph.out_degrees(), graph.in_degrees()
    assert np.count_nonzero((out_deg == 0) & (in_deg > 0)) > 10
    assert np.count_nonzero((out_deg == 0) & (in_deg == 0)) >= ISOLATED


@pytest.mark.parametrize("dtype", ["object", "float64"])
@pytest.mark.parametrize("ft_level", [0, 1, 2])
@pytest.mark.parametrize("partition", PARTITIONERS)
def test_array_loading_matches_loop_reference(graph, partition, ft_level,
                                              dtype):
    # SSSP leaves most vertices inactive at load: both activity
    # classes and the per-role flags get exercised.
    algorithm = "sssp" if ft_level == 1 else "pagerank"
    engine = make_engine(
        graph, algorithm, num_nodes=NUM_NODES, partition=partition,
        ft_mode="replication" if ft_level else "none",
        ft_level=max(ft_level, 1), vectorized=dtype == "float64",
        algorithm_kwargs={"source": 3} if algorithm == "sssp" else None)
    assert engine.value_dtype == np.dtype(dtype)
    part = engine.partitioning

    cfg = (engine.job.ft if ft_level
           else FaultToleranceConfig(mode=FTMode.NONE, ft_level=0))
    ref_plan = ref_plan_replication(graph, part, cfg, engine.seed)
    assert_plans_equal(engine.plan, ref_plan)
    assert_plans_equal(plan_replication(graph, part, cfg, seed=engine.seed),
                       ref_plan)

    refs, ref_report = ref_build_local_graphs(graph, part, ref_plan,
                                              engine.value_dtype)
    assert engine.construction == ref_report
    assert_slots_equal(engine.local_graphs, refs)

    ref_init_values(refs, engine.program,
                    ApplyContext(iteration=0, num_vertices=graph.num_vertices,
                                 num_edges=graph.num_edges))
    assert_state_equal(engine.local_graphs, refs)

    for node, lg in engine.local_graphs.items():
        seeded = lg.topology()
        assert_topologies_equal(seeded, NodeTopology.build(lg))
        assert_topologies_equal(seeded, ref_topology(refs[node]))

    if isinstance(part, VertexCutPartitioning):
        if engine.edge_ckpt is None:
            # Unreplicated: exercise the round-robin receiver fallback.
            engine.edge_ckpt = EdgeCkptStore(PersistentStore(), NUM_NODES)
            engine._write_edge_ckpt_files()
        want = ref_edge_ckpt_files(refs, ref_plan.master_of.tolist(),
                                   NUM_NODES)
        assert stored_files(engine.edge_ckpt, NUM_NODES) == want
    else:
        assert engine.edge_ckpt is None


@pytest.mark.parametrize("partition", ["hash_edge_cut", "hybrid_cut"])
def test_rebuild_from_slots_after_tombstones(graph, partition):
    """After slot churn the topology is rebuilt from the slots, and
    matches the per-slot walk, tombstones included."""
    engine = make_engine(graph, "pagerank", num_nodes=NUM_NODES,
                         partition=partition, ft_level=1)
    lg = engine.local_graphs[0]
    seeded = lg.topology()
    for slot in lg.slots[::7]:
        lg.remove_slot(slot.gid)
    rebuilt = lg.topology()
    assert rebuilt is not seeded
    assert not rebuilt.occupied.all()
    assert_topologies_equal(rebuilt, ref_topology(lg))


def test_loading_rejects_a_plan_for_another_partitioning(graph):
    engine = make_engine(graph, "pagerank", num_nodes=NUM_NODES,
                         partition="hybrid_cut", ft_level=1)
    other = make_engine(graph, "pagerank", num_nodes=NUM_NODES,
                        partition="random_vertex_cut", ft_level=1)
    with pytest.raises(EngineError, match="no copy"):
        build_local_graphs(graph, other.partitioning, engine.plan)


def test_reapplied_edge_weights_drop_the_seeded_topology(graph):
    """The checkpoint rung re-applies logged edge weights to the pristine
    graphs in place, then rewrites the edge-ckpt files from the
    topology: the seeded one must not survive with the old weights."""
    engine = make_engine(graph, "pagerank", num_nodes=NUM_NODES,
                         partition="hybrid_cut", ft_level=1)
    lg = engine.local_graphs[0]
    seeded = lg.topology()
    slot = next(s for s in lg.slots if s.in_edges)
    src = lg.slots[slot.in_edges[0][0]].gid
    CheckpointManager._apply_edge_log(lg, {(src, slot.gid): 0.125})
    rebuilt = lg.topology()
    assert rebuilt is not seeded
    at = np.flatnonzero(rebuilt.in_dst == lg.position_of(slot.gid))[0]
    assert rebuilt.in_w[at] == 0.125
    assert_topologies_equal(rebuilt, ref_topology(lg))
