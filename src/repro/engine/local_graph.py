"""Per-node local graph: the position-stable vertex array.

Topology is expressed as array indices (a source's local position), so
recovering a crashed node is a matter of writing each received vertex
back into its recorded position — no name resolution, no locks
(Section 5.1.2).  Positions are never reused while a job runs; slots
vacated by Migration keep a tombstone ``None``.

The dynamic state of every placed slot lives in per-position columns
owned by the graph, one per :data:`~repro.engine.state.COLUMN_FIELDS`
entry (DESIGN.md §11).  Slot attributes read and write them; the
vectorized kernels operate on them whole.  A tombstoned position keeps
a dead entry.
"""

from __future__ import annotations

import heapq
from typing import Any, Iterator

import numpy as np

from repro.engine.state import COLUMN_DEFAULTS, COLUMN_FIELDS, Role, VertexSlot
from repro.engine.vertex_program import VertexProgram, VertexView
from repro.errors import EngineError

_COLUMN_INDEX = {name: i for i, name in enumerate(COLUMN_FIELDS)}


class LocalGraph:
    """One node's vertex array, gid index and dynamic-state columns."""

    def __init__(self, node_id: int, dtype=object):
        self.node_id = node_id
        self.slots: list[VertexSlot | None] = []
        self.index_of: dict[int, int] = {}
        #: dtype of the value column: the array kernel's when the
        #: engine runs them, else ``object`` (the program's own values).
        self.dtype = np.dtype(dtype)
        dtypes = (self.dtype, bool, bool, np.int64, bool, bool)
        #: Column storage in ``COLUMN_FIELDS`` order, capacity-sized
        #: (grown by doubling).
        self._columns = [np.empty(0, dtype=d) for d in dtypes]
        #: Per-column scalar accessors, shared by every placed slot and
        #: updated in place on growth: a ``memoryview`` for numeric
        #: columns (Python scalars on read), the array itself for the
        #: object column.
        self._access: list[Any] = list(self._columns)
        #: Fill of fresh column entries; also what a detached ``None``
        #: value becomes on placement (a numeric column holds no None).
        self._fills = ((None if self.dtype == object else 0),
                       *COLUMN_DEFAULTS[1:])
        #: gids of *master* slots whose ``active`` flag is set — the
        #: engine's compute loops iterate these instead of scanning the
        #: array, so sparse supersteps (SSSP tails) cost O(active), not
        #: O(all slots).  Maintained by :meth:`set_active`; never flip
        #: ``slot.active`` directly once a slot is registered.
        self.active_masters: set[int] = set()
        #: Same for non-master slots (vertex-cut replicas gather too).
        self.active_others: set[int] = set()
        # Tuple snapshots of the active sets, cached until the next
        # mutation — the compute loops iterate these instead of copying
        # the set per node per superstep.
        self._masters_snapshot: tuple[int, ...] | None = None
        self._others_snapshot: tuple[int, ...] | None = None
        #: Cached structure-of-arrays topology (DESIGN.md §11); seeded
        #: by :meth:`place` at loading, else built lazily by
        #: :meth:`topology`, dropped by :meth:`invalidate_soa` whenever
        #: the slot array or edge lists change shape.
        self._topology = None

    def _grow(self, size: int) -> None:
        """Grow the columns to hold ``size`` positions (at least
        doubling, so appends one at a time cost amortised O(1))."""
        cap = max(size, 2 * len(self._columns[0]))
        grown = []
        for col, fill in zip(self._columns, self._fills):
            new = np.full(cap, fill, dtype=col.dtype)
            new[:len(col)] = col
            grown.append(new)
        self._columns = grown
        self._access[:] = [col if col.dtype == object else memoryview(col)
                           for col in grown]

    def column(self, field: str) -> np.ndarray:
        """The live column of a dynamic slot field over positions
        ``[0, len(slots))`` — a view: writes land in the slots."""
        return self._columns[_COLUMN_INDEX[field]][:len(self.slots)]

    # -- construction -----------------------------------------------------

    def add_slot(self, slot: VertexSlot, position: int | None = None) -> int:
        """Append (or place at a fixed position) one detached vertex
        slot; its dynamic fields move into the columns."""
        if slot.gid in self.index_of:
            raise EngineError(
                f"vertex {slot.gid} already present on node {self.node_id}")
        if slot._access is not None:
            raise EngineError(
                f"vertex {slot.gid} is already placed in a local graph")
        if position is None:
            position = len(self.slots)
            self.slots.append(slot)
        else:
            while len(self.slots) <= position:
                self.slots.append(None)
            if self.slots[position] is not None:
                raise EngineError(
                    f"position {position} on node {self.node_id} occupied")
            self.slots[position] = slot
        if len(self.slots) > len(self._columns[0]):
            self._grow(len(self.slots))
        value, active, activates, stamp, self_active, known = \
            slot._detached
        cols = self._access
        cols[0][position] = self._fills[0] if value is None else value
        cols[1][position] = active
        cols[2][position] = activates
        cols[3][position] = stamp
        cols[4][position] = self_active
        cols[5][position] = known
        slot._access, slot._pos, slot._detached = cols, position, None
        self.index_of[slot.gid] = position
        self._topology = None
        if active:
            self.set_active(slot, True)
        return position

    def place(self, slots: list[VertexSlot], topology) -> None:
        """Fill an empty graph with fresh slots at positions
        ``0..len(slots)-1`` in one go (graph loading), seeding its
        topology.

        The slots must be new: their dynamic fields at the defaults,
        which are the fill of fresh column entries.
        """
        if self.slots:
            raise EngineError(f"node {self.node_id} is already loaded")
        self._grow(len(slots))
        access, index_of = self._access, self.index_of
        for pos, slot in enumerate(slots):
            slot._access, slot._pos, slot._detached = access, pos, None
            index_of[slot.gid] = pos
        self.slots = slots
        self._topology = topology

    def set_active(self, slot: VertexSlot, flag: bool) -> None:
        """Flip a slot's activity, keeping the active indexes in sync.

        Also call this after a role change (Migration promotion) so the
        gid moves to the matching set.
        """
        slot.active = flag
        self.active_masters.discard(slot.gid)
        self.active_others.discard(slot.gid)
        if flag:
            if slot.role is Role.MASTER:
                self.active_masters.add(slot.gid)
            else:
                self.active_others.add(slot.gid)
        self._masters_snapshot = None
        self._others_snapshot = None

    def remove_slot(self, gid: int) -> VertexSlot:
        """Tombstone a slot (Migration moves vertices between nodes).

        The returned slot is detached: its dynamic fields move out of
        the columns into its own copy.
        """
        position = self.index_of.pop(gid, None)
        if position is None:
            raise EngineError(
                f"vertex {gid} not present on node {self.node_id}")
        slot = self.slots[position]
        self.slots[position] = None
        slot._detached = [col[position] for col in self._access]
        slot._access, slot._pos = None, -1
        self.active_masters.discard(gid)
        self.active_others.discard(gid)
        self._masters_snapshot = None
        self._others_snapshot = None
        self._topology = None
        return slot

    def set_active_bulk(self, positions: list[int],
                        flags: list[bool]) -> None:
        """Vectorized bulk form of :meth:`set_active`, by position.

        Used by the barrier commit of the vectorized path; must keep
        the same contract as per-slot writes — the active sets stay in
        sync and the iteration snapshots are invalidated (a stale
        snapshot here would feed the next superstep's compute loop the
        previous superstep's active set).
        """
        self.column("active")[positions] = flags
        masters, others = self.active_masters, self.active_others
        slots = self.slots
        for pos, flag in zip(positions, flags):
            slot = slots[pos]
            gid = slot.gid
            if flag:
                if slot.role is Role.MASTER:
                    masters.add(gid)
                else:
                    others.add(gid)
            else:
                masters.discard(gid)
                others.discard(gid)
        self._masters_snapshot = None
        self._others_snapshot = None

    def topology(self):
        """The cached SoA topology view (DESIGN.md §11)."""
        if self._topology is None:
            from repro.engine.soa import NodeTopology
            self._topology = NodeTopology.build(self)
        return self._topology

    def invalidate_soa(self) -> None:
        """Drop the SoA topology cache after in-place topology edits.

        ``add_slot``/``remove_slot`` invalidate automatically; recovery
        code that rewrites ``in_edges``/``out_edges``/``meta`` in place
        (Rebirth relink, Migration re-resolution, FT repair) is covered
        by the engine's blanket invalidation after every recovery.
        """
        self._topology = None

    def active_masters_snapshot(self) -> tuple[int, ...]:
        """Stable iteration snapshot of ``active_masters``.

        Cached until the set next mutates; lets a compute loop iterate
        while apply results flip activity, without copying the set per
        node per superstep.
        """
        if self._masters_snapshot is None:
            self._masters_snapshot = tuple(self.active_masters)
        return self._masters_snapshot

    def active_others_snapshot(self) -> tuple[int, ...]:
        """Stable iteration snapshot of ``active_others``."""
        if self._others_snapshot is None:
            self._others_snapshot = tuple(self.active_others)
        return self._others_snapshot

    # -- lookup ---------------------------------------------------------------

    def __contains__(self, gid: int) -> bool:
        return gid in self.index_of

    def slot_of(self, gid: int) -> VertexSlot:
        try:
            slot = self.slots[self.index_of[gid]]
        except KeyError:
            raise EngineError(
                f"vertex {gid} not on node {self.node_id}") from None
        assert slot is not None
        return slot

    def position_of(self, gid: int) -> int:
        return self.index_of[gid]

    def slot_at(self, position: int) -> VertexSlot | None:
        if position >= len(self.slots):
            return None
        return self.slots[position]

    def iter_slots(self) -> Iterator[VertexSlot]:
        for slot in self.slots:
            if slot is not None:
                yield slot

    def iter_masters(self) -> Iterator[VertexSlot]:
        for slot in self.iter_slots():
            if slot.role is Role.MASTER:
                yield slot

    def iter_mirrors(self) -> Iterator[VertexSlot]:
        for slot in self.iter_slots():
            if slot.role is Role.MIRROR:
                yield slot

    def view(self, position: int) -> VertexView:
        """Neighbor view for gather, by local position."""
        slot = self.slots[position]
        assert slot is not None
        return VertexView(vid=slot.gid, value=self._access[0][position],
                          out_degree=slot.out_degree,
                          in_degree=slot.in_degree)

    def top_k_masters(self, k: int,
                      largest: bool = True) -> list[tuple[Any, int]]:
        """This node's K masters with extreme committed values, as
        ``(value, gid)`` pairs best-first.

        Deterministic selection — ties break toward the lower gid — so
        every node and backend picks the same K set.  Numeric columns
        select with one lexsort; object values go through a heap.
        """
        if self.dtype == object:
            items = [(slot.value, slot.gid) for slot in self.iter_masters()]
            if largest:
                return heapq.nlargest(k, items, key=lambda t: (t[0], -t[1]))
            return heapq.nsmallest(k, items)
        topo = self.topology()
        pos = np.flatnonzero(topo.is_master)
        vals, gids = self.column("value")[pos], topo.gids[pos]
        order = np.lexsort((gids, -vals if largest else vals))[:k]
        return list(zip(vals[order].tolist(), gids[order].tolist()))

    # -- stats ------------------------------------------------------------------

    def counts(self) -> dict[str, int]:
        masters = mirrors = replicas = ft = 0
        edges = 0
        for slot in self.iter_slots():
            if slot.role is Role.MASTER:
                masters += 1
            elif slot.role is Role.MIRROR:
                mirrors += 1
                if slot.ft_only:
                    ft += 1
            else:
                replicas += 1
            edges += len(slot.in_edges)
        return {"masters": masters, "mirrors": mirrors,
                "replicas": replicas, "ft_replicas": ft,
                "local_in_edges": edges,
                "total": masters + mirrors + replicas}

    def memory_nbytes(self, program: VertexProgram) -> int:
        """Approximate resident footprint of this node's graph state."""
        total = 0
        for slot in self.iter_slots():
            total += slot.nbytes(program.value_nbytes(slot.value))
        # The array itself and the gid index.
        total += len(self.slots) * 8 + len(self.index_of) * 24
        return total
