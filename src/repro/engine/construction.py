"""Local-graph construction (the paper's extended loading phase).

Builds every node's position-stable vertex array from a partitioning
plus a :class:`~repro.ft.replication.ReplicationPlan`: masters, then
computation/FT replicas, then edge linkage, then mirror election
effects (full-state metadata and, under edge-cut, the duplicated edge
list).  All positions are recorded in the master metadata so recovery
messages can be applied positionally (Section 5.1.2).

Construction order is deterministic — on every node, masters in vertex
id order, then replicas in vertex id order, and each slot's edges in
edge id order — which the recovery-equivalence tests and the gather
fold order rely on.  The layout is computed from the partition arrays
in bulk; the same arrays seed each node's SoA topology.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.engine.local_graph import LocalGraph
from repro.engine.soa import NodeTopology
from repro.engine.state import MasterMeta, Role, VertexSlot
from repro.errors import EngineError
from repro.ft.replication import ReplicationPlan, node_pairs, split_lists
from repro.graph.graph import Graph
from repro.partition.base import EdgeCutPartitioning, VertexCutPartitioning


@dataclass(frozen=True)
class ConstructionReport:
    """Loading census backing Figs. 3 and 8a."""

    num_vertices: int
    num_edges: int
    #: Vertices with no computation replica, split by class (Fig. 3a).
    replica_less_selfish: int
    replica_less_normal: int
    #: Replica counts (Figs. 3b, 8a).
    computation_replicas: int
    ft_replicas: int

    @property
    def replica_less_fraction(self) -> float:
        if self.num_vertices == 0:
            return 0.0
        return ((self.replica_less_selfish + self.replica_less_normal)
                / self.num_vertices)

    @property
    def extra_replica_fraction(self) -> float:
        """FT replicas over all replicas (Fig. 8a)."""
        total = self.computation_replicas + self.ft_replicas
        if total == 0:
            return 0.0
        return self.ft_replicas / total


def build_local_graphs(graph: Graph, partitioning,
                       plan: ReplicationPlan, dtype=object
                       ) -> tuple[dict[int, LocalGraph],
                                  ConstructionReport]:
    """Materialise each node's local graph.

    Returns ``(local_graphs, report)`` where ``local_graphs`` maps node
    id to its :class:`LocalGraph`, seeded with its
    :class:`~repro.engine.soa.NodeTopology`; ``dtype`` is their value
    column's.  Every step is an array operation over all slots or all
    edges at once; the slot objects are made last, from the arrays.
    """
    n, num_nodes = graph.num_vertices, plan.num_nodes
    master_of = np.asarray(plan.master_of, dtype=np.int64)
    edge_cut = isinstance(partitioning, EdgeCutPartitioning)
    if edge_cut:
        # The target's master owns the edge; the source's local copy
        # there supplies the value (Fig. 1's edge-cut half).
        edge_node = master_of[graph.targets]
    elif isinstance(partitioning, VertexCutPartitioning):
        # Each edge lives on its assigned node; both endpoints have
        # copies there by construction of the replica sets.
        edge_node = np.asarray(partitioning.edge_node, dtype=np.int64)
    else:
        raise EngineError(
            f"unsupported partitioning: {type(partitioning).__name__}")

    # -- slots, indexed over all nodes' arrays in node order: each node
    # holds its masters in gid order, then its replicas in gid order.
    r_vertex, r_node = node_pairs(plan.replica_nodes)
    order = np.argsort(np.concatenate((master_of, r_node)), kind="stable")
    vertex = np.concatenate((np.arange(n), r_vertex))[order]
    node = np.concatenate((master_of, r_node))[order]
    node_start = np.searchsorted(node, np.arange(num_nodes + 1))
    pos = np.arange(node.size) - node_start[node]
    by_code = np.argsort(vertex * num_nodes + node)
    code = (vertex * num_nodes + node)[by_code]

    def slot_on(vertices: np.ndarray, nodes: np.ndarray) -> np.ndarray:
        """The slot of each vertex's copy on the given node."""
        codes = vertices * num_nodes + nodes
        at = np.minimum(np.searchsorted(code, codes), max(code.size - 1, 0))
        if not np.array_equal(code[at], codes):
            raise EngineError("a vertex has no copy on a node it needs")
        return by_code[at]

    master_slot = slot_on(np.arange(n), master_of)
    replica_slot = slot_on(r_vertex, r_node)
    f_vertex, f_node = node_pairs(plan.ft_nodes)
    ft_only = np.zeros(node.size, dtype=bool)
    ft_only[slot_on(f_vertex, f_node)] = True
    m_vertex, m_node = node_pairs(plan.mirror_nodes)
    m_count = np.bincount(m_vertex, minlength=n)
    mirror_id = np.full(node.size, -1, dtype=np.int64)
    mirror_id[slot_on(m_vertex, m_node)] = (
        np.arange(m_vertex.size) - (np.cumsum(m_count) - m_count)[m_vertex])
    role = np.where(order < n, 0, np.where(mirror_id >= 0, 1, 2))

    # -- edges, grouped by the slot of their target (in-edges) and of
    # their source (out-edges), in edge id order within a slot: the
    # gather fold order.
    src_slot = slot_on(graph.sources, edge_node)
    dst_slot = slot_on(graph.targets, edge_node)
    by_dst = np.argsort(dst_slot, kind="stable")
    by_src = np.argsort(src_slot, kind="stable")
    in_counts = np.bincount(dst_slot, minlength=node.size)
    in_src, in_dst = pos[src_slot[by_dst]], pos[dst_slot[by_dst]]
    in_w = graph.weights[by_dst]
    out_src, out_dst = pos[src_slot[by_src]], pos[dst_slot[by_src]]
    # The lists hold one Python object per distinct position, gid and
    # weight, shared by every entry that holds it, as the slots do.
    ints = np.arange(max(n, node.size), dtype=object)
    src_objs, w_objs = ints[in_src].tolist(), object_list(in_w)
    in_edges = split_lists(list(zip(src_objs, w_objs)), in_counts)
    out_edges = split_lists(ints[out_dst].tolist(),
                            np.bincount(src_slot, minlength=node.size))

    # -- metadata: each master records every copy's position; each
    # mirror gets its own copy (static full state, replicated during
    # graph loading; Section 4.2) and, under edge-cut, the master's
    # full in-edge list (Section 4.3).
    r_count = np.bincount(r_vertex, minlength=n)
    metas = [MasterMeta(dict(zip(nodes, positions)), list(mirrors),
                        master, position)
             for nodes, positions, mirrors, master, position in zip(
                 split_lists(r_node.tolist(), r_count),
                 split_lists(ints[pos[replica_slot]].tolist(), r_count),
                 plan.mirror_nodes, master_of.tolist(),
                 ints[pos[master_slot]].tolist())]
    slot_meta: list[MasterMeta | None] = [None] * node.size
    full_edges: list[list | None] = [None] * node.size
    if edge_cut:
        master_edges = split_lists(
            list(zip(ints[graph.sources[by_dst]].tolist(), src_objs,
                     w_objs)), in_counts)
    for slot, meta in zip(master_slot.tolist(), metas):
        slot_meta[slot] = meta
    mirror_slots = np.flatnonzero(role == 1)
    for slot, v in zip(mirror_slots.tolist(), vertex[mirror_slots].tolist()):
        meta = metas[v]
        slot_meta[slot] = MasterMeta(dict(meta.replica_positions),
                                     list(meta.mirror_nodes),
                                     meta.master_node, meta.master_position)
        if edge_cut:
            full_edges[slot] = list(master_edges[master_slot[v]])

    # -- the slots, and each node's graph and topology.
    out_deg, in_deg = graph.out_degrees(), graph.in_degrees()
    selfish = plan.selfish[vertex]
    slots = [
        VertexSlot(gid, _ROLES[r], out_degree=od, in_degree=ind,
                   in_edges=ie, out_edges=oe, meta=meta, master_node=mn,
                   ft_only=fo, selfish=sf, mirror_id=mid, full_edges=fe)
        for gid, r, od, ind, ie, oe, meta, mn, fo, sf, mid, fe in zip(
            ints[vertex].tolist(), role.tolist(), out_deg[vertex].tolist(),
            in_deg[vertex].tolist(), in_edges, out_edges, slot_meta,
            master_of[vertex].tolist(), ft_only.tolist(), selfish.tolist(),
            mirror_id.tolist(), full_edges)]
    edge_start = np.concatenate(([0], np.cumsum(in_counts)))[node_start]
    # Masters' sync targets (position, replica node, is_mirror) in
    # master position order, grouped by the master's node.
    by_master = np.argsort(master_of[r_vertex], kind="stable")
    sync_start = np.searchsorted(master_of[r_vertex][by_master],
                                 np.arange(num_nodes + 1))
    sync = (pos[master_slot[r_vertex]][by_master], r_node[by_master],
            (mirror_id[replica_slot] >= 0)[by_master])
    locals_: dict[int, LocalGraph] = {}
    for p in range(num_nodes):
        lo, hi = node_start[p], node_start[p + 1]
        edges = slice(edge_start[p], edge_start[p + 1])
        topology = NodeTopology(
            vertex[lo:hi], role[lo:hi] == 0, role[lo:hi] == 1,
            selfish[lo:hi], master_of[vertex[lo:hi]],
            out_deg[vertex[lo:hi]],
            (in_src[edges], in_w[edges], in_dst[edges]),
            (out_src[edges], out_dst[edges]),
            tuple(a[sync_start[p]:sync_start[p + 1]] for a in sync))
        locals_[p] = LocalGraph(p, dtype)
        locals_[p].place(slots[lo:hi], topology)

    less = r_count == np.bincount(f_vertex, minlength=n)
    selfish_less = int(np.count_nonzero(less & plan.selfish))
    return locals_, ConstructionReport(
        n, graph.num_edges, selfish_less,
        int(np.count_nonzero(less)) - selfish_less,
        r_vertex.size - f_vertex.size, f_vertex.size)


_ROLES = (Role.MASTER, Role.MIRROR, Role.REPLICA)


def object_list(values: np.ndarray) -> list:
    """``values.tolist()`` with one Python object per distinct value,
    shared by every entry that holds it."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return distinct.astype(object)[inverse].tolist()
