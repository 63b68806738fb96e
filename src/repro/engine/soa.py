"""Structure-of-arrays topology cache for one node's local graph.

The vectorized compute path needs the *static* shape of a node's
graph as flat numpy arrays: role masks, degrees, the local
in-/out-edge lists in CSR-style per-edge arrays, and the master->replica
sync fan-out grouped by destination.  :class:`NodeTopology` is that
snapshot, cached on the :class:`~repro.engine.local_graph.LocalGraph`
until the topology mutates (``add_slot``/``remove_slot``, or the
blanket invalidation the engine issues after any recovery, which may
rewrite edge lists and replica metadata in place on nodes that saw no
local slot churn).  Graph loading seeds it from the arrays it builds
the slots from; after a mutation it is rebuilt from the slot array.

Dynamic state (values, activity flags) does NOT live here: it is the
local graph's own per-position columns, which survive a topology
rebuild untouched.
"""

from __future__ import annotations

from itertools import chain

import numpy as np

from repro.engine.state import Role


class NodeTopology:
    """Immutable array view of one node's local graph topology."""

    __slots__ = (
        "n", "gids", "occupied", "is_master", "is_mirror", "selfish",
        "master_node", "out_deg_f", "in_counts", "has_in",
        "in_src", "in_w", "in_dst", "out_src", "out_dst",
        "gid_sorted", "pos_sorted", "sync_plan",
    )

    def __init__(self, gids: np.ndarray, is_master: np.ndarray,
                 is_mirror: np.ndarray, selfish: np.ndarray,
                 master_node: np.ndarray, out_deg: np.ndarray,
                 in_edges: tuple[np.ndarray, np.ndarray, np.ndarray],
                 out_edges: tuple[np.ndarray, np.ndarray],
                 sync: tuple[np.ndarray, np.ndarray, np.ndarray]):
        """Per-position arrays (``gids`` is -1 at a tombstone), the
        local edges as ``(src, weight, dst)`` grouped by target and
        ``(src, dst)`` grouped by source, each in slot order, and the
        masters' sync targets as ``(position, replica node,
        is_mirror)`` in master position order."""
        self.n = n = gids.size
        self.gids = gids
        self.occupied = gids >= 0
        self.is_master = is_master
        self.is_mirror = is_mirror
        self.selfish = selfish
        self.master_node = master_node
        self.out_deg_f = out_deg.astype(np.float64)
        self.in_src, self.in_w, self.in_dst = in_edges
        self.out_src, self.out_dst = out_edges
        self.in_counts = np.bincount(self.in_dst, minlength=n)
        self.has_in = self.in_counts > 0
        occ = np.flatnonzero(self.occupied)
        self.pos_sorted = occ[np.argsort(gids[occ], kind="stable")]
        self.gid_sorted = gids[self.pos_sorted]
        # One position array per (replica node, is_mirror) key, keys
        # in order of first use.
        positions, nodes, mirror = sync
        keys = nodes * 2 + mirror
        self.sync_plan = {
            (int(nodes[i]), bool(mirror[i])): positions[keys == keys[i]]
            for i in np.sort(np.unique(keys, return_index=True)[1])}

    @classmethod
    def build(cls, lg) -> "NodeTopology":
        """Gather the arrays from the slots (after any topology
        change; construction hands them over directly)."""
        slots = lg.slots
        n = len(slots)
        live = [(pos, slot) for pos, slot in enumerate(slots)
                if slot is not None]
        master, mirror = Role.MASTER, Role.MIRROR
        rows = np.fromiter(
            ((pos, slot.gid, slot.role is master, slot.role is mirror,
              slot.selfish,
              lg.node_id if slot.role is master else slot.master_node,
              slot.out_degree, len(slot.in_edges), len(slot.out_edges))
             for pos, slot in live), dtype=_SLOT_ROW, count=len(live))
        pos = rows["pos"]

        def dense(field, fill):
            out = np.full(n, fill, dtype=rows.dtype[field])
            out[pos] = rows[field]
            return out

        gids = dense("gid", -1)
        edges = np.fromiter(
            chain.from_iterable(slot.in_edges for _, slot in live),
            dtype=_EDGE, count=int(rows["in_count"].sum()))
        out_src = np.repeat(pos, rows["out_count"])
        out_dst = np.fromiter(
            chain.from_iterable(slot.out_edges for _, slot in live),
            dtype=np.int64, count=out_src.size)
        # Tombstoned targets are dropped here, mirroring the
        # ``target is None: continue`` guard of the scalar commit.
        kept = gids[out_dst] >= 0
        sync = np.fromiter(
            ((pos, node, node in slot.meta.mirror_nodes)
             for pos, slot in live if slot.role is master
             for node in slot.meta.replica_positions), dtype=_SYNC)
        return cls(gids, dense("is_master", False),
                   dense("is_mirror", False), dense("selfish", False),
                   dense("master_node", -1), dense("out_deg", 0),
                   (edges["src"].copy(), edges["w"].copy(),
                    np.repeat(pos, rows["in_count"])),
                   (out_src[kept], out_dst[kept]),
                   (sync["pos"], sync["node"], sync["mirror"]))

    def translate(self, gid_array: np.ndarray) -> np.ndarray:
        """Map an array of gids to local positions (all must be local)."""
        return self.pos_sorted[np.searchsorted(self.gid_sorted, gid_array)]


#: Record layouts :meth:`NodeTopology.build` gathers the slots into.
_SLOT_ROW = np.dtype([
    ("pos", np.int64), ("gid", np.int64), ("is_master", bool),
    ("is_mirror", bool), ("selfish", bool), ("master_node", np.int64),
    ("out_deg", np.float64), ("in_count", np.int64),
    ("out_count", np.int64)])
_EDGE = np.dtype([("src", np.int64), ("w", np.float64)])
_SYNC = np.dtype([("pos", np.int64), ("node", np.int64), ("mirror", bool)])
