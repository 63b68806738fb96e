"""Per-node vertex state: the slot array and vertex roles.

Each node stores its local vertices in a *position-stable array*
(Section 5.1.2): topology is expressed as array indices, and because a
recovered vertex is placed back at its original position, rebuilding a
crashed node's graph is lock-free and embarrassingly parallel.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any

from repro.utils.sizing import BYTES_PER_EDGE, BYTES_PER_VID


class Role(enum.Enum):
    """What a local copy of a vertex is.

    ``MIRROR`` is a full-state replica (Section 4.2); an FT replica
    created purely for fault tolerance (Section 4.1) is always a
    mirror, marked with :attr:`VertexSlot.ft_only`.
    """

    MASTER = "master"
    MIRROR = "mirror"
    REPLICA = "replica"


@dataclass
class MasterMeta:
    """Full-state metadata held by a master (and copied to mirrors).

    ``replica_positions[node]`` records the local array position of the
    vertex's copy on ``node`` — the paper's "enhanced edge information"
    trick generalised: every copy's position is known up front, so any
    recovery message can be applied positionally without coordination.
    """

    #: node -> array position of this vertex's copy there (masters know
    #: where all their replicas live; Section 5).
    replica_positions: dict[int, int] = field(default_factory=dict)
    #: Nodes hosting full-state mirrors, in mirror-id order (the lowest
    #: surviving one leads recovery, Section 5.3.1).
    mirror_nodes: list[int] = field(default_factory=list)
    #: The master's own node and array position (mirrors use these to
    #: recover the master in place).
    master_node: int = -1
    master_position: int = -1
    #: Derived caches over ``replica_positions``/``mirror_nodes``; built
    #: lazily on first use, dropped by :meth:`invalidate_replica_cache`
    #: whenever a replica moves (migration/repair).  Not part of the
    #: replicated wire state.
    _mirror_set: frozenset[int] | None = field(
        default=None, init=False, repr=False, compare=False)
    _sync_targets: tuple[tuple[int, bool], ...] | None = field(
        default=None, init=False, repr=False, compare=False)

    @property
    def mirror_set(self) -> frozenset[int]:
        """Cached ``frozenset(mirror_nodes)`` for O(1) membership."""
        if self._mirror_set is None:
            self._mirror_set = frozenset(self.mirror_nodes)
        return self._mirror_set

    def sync_targets(self) -> tuple[tuple[int, bool], ...]:
        """Cached ``(replica_node, is_mirror)`` pairs in position order.

        Built once per topology change instead of per vertex per
        superstep; the hot sync loop iterates this directly.
        """
        if self._sync_targets is None:
            mirrors = self.mirror_set
            self._sync_targets = tuple(
                (node, node in mirrors) for node in self.replica_positions)
        return self._sync_targets

    def invalidate_replica_cache(self) -> None:
        """Drop derived caches after mutating replica placement."""
        self._mirror_set = None
        self._sync_targets = None

    def nbytes(self) -> int:
        """Memory footprint of this metadata.

        Modeled after the compact encodings of the C++ systems: replica
        locations as a node bitmap (amortised ~1 byte per entry at 50
        nodes) plus a 4-byte array position per replica; mirror ids one
        byte each.
        """
        return (len(self.replica_positions) * 5
                + len(self.mirror_nodes) + BYTES_PER_VID + 4)


#: The dynamic slot fields a placed slot stores in its
#: :class:`~repro.engine.local_graph.LocalGraph`'s per-position columns
#: (DESIGN.md §11), in column order, with their defaults.
COLUMN_FIELDS = ("value", "active", "last_activates", "last_update_iter",
                 "mirror_self_active", "replicas_known_active")
COLUMN_DEFAULTS = (None, False, False, -1, False, True)


def _column_field(index: int) -> property:
    """A slot attribute stored in the owning graph's column while the
    slot is placed, and in the slot's own copy while it is detached."""

    def get(self):
        access = self._access
        if access is None:
            return self._detached[index]
        return access[index][self._pos]

    def set(self, value):
        access = self._access
        if access is None:
            self._detached[index] = value
        else:
            access[index][self._pos] = value

    return property(get, set)


class VertexSlot:
    """One entry of a node's vertex array.

    The six :data:`COLUMN_FIELDS` have exactly one storage location:
    the owning graph's columns while the slot is placed
    (``LocalGraph.add_slot``), the slot's own copy while it is
    detached (before placement, after ``LocalGraph.remove_slot``).
    """

    __slots__ = ("gid", "role", "next_active", "out_degree", "in_degree",
                 "in_edges", "out_edges", "meta", "master_node", "ft_only",
                 "selfish", "mirror_id", "full_edges", "pending_value",
                 "has_pending", "pending_activates", "pending_active",
                 "_access", "_pos", "_detached")

    #: Current committed value (as of the last global barrier).
    value = _column_field(0)
    #: Whether the vertex computes in the current superstep (masters
    #: authoritative; mirrors receive it with full-state sync).
    active = _column_field(1)
    #: Whether this vertex's last committed update requested activation
    #: of its out-neighbors — the "activation information" masters
    #: replicate to mirrors so recovery can replay it (Section 5.1.3).
    last_activates = _column_field(2)
    #: Iteration of the last committed update (-1 = never updated).
    #: Recovery replay only re-executes activations stamped with the
    #: last committed iteration; checkpointing uses it for incremental
    #: snapshots.
    last_update_iter = _column_field(3)
    #: Mirrors only: the master's last synced *self-sustained* activity
    #: (remote activations are replayed at recovery, Section 5.1.3).
    mirror_self_active = _column_field(4)
    #: Masters only: the activity flag replicas currently believe
    #: (vertex-cut gather scheduling); a change triggers a broadcast at
    #: the next superstep start.
    replicas_known_active = _column_field(5)

    def __init__(self, gid: int, role: Role, *, value: Any = None,
                 active: bool = False, last_activates: bool = False,
                 last_update_iter: int = -1,
                 mirror_self_active: bool = False,
                 replicas_known_active: bool = True,
                 out_degree: int = 0, in_degree: int = 0,
                 in_edges: list[tuple[int, float]] | None = None,
                 out_edges: list[int] | None = None,
                 meta: MasterMeta | None = None, master_node: int = -1,
                 ft_only: bool = False, selfish: bool = False,
                 mirror_id: int = -1,
                 full_edges: list[tuple[int, int, float]] | None = None):
        self.gid = gid
        self.role = role
        #: The column accessors of the graph the slot is placed in and
        #: its position there, or ``None`` and the detached copy of the
        #: dynamic fields.
        self._access = None
        self._pos = -1
        self._detached = [value, active, last_activates, last_update_iter,
                          mirror_self_active, replicas_known_active]
        #: Static degrees of the vertex in the *global* graph (replicas
        #: need them for gather, e.g. PageRank's value/out_degree).
        self.out_degree = out_degree
        self.in_degree = in_degree
        #: Local in-edges: (local index of source slot, weight).
        #: Complete for edge-cut masters; partial (local edges only) for
        #: vertex-cut.
        self.in_edges = [] if in_edges is None else in_edges
        #: Local out-edges: local indices of target slots on this node.
        self.out_edges = [] if out_edges is None else out_edges
        #: Master metadata; present on masters and (as a synced copy) on
        #: mirrors.  Plain replicas carry only the master's node id.
        self.meta = meta
        #: Node hosting the master (replicas and mirrors).
        self.master_node = master_node
        #: True for FT replicas created only for fault tolerance; they
        #: have no computation out-edges on this node.
        self.ft_only = ft_only
        #: True when the vertex is selfish (no out-edges globally) and
        #: the selfish optimisation suppresses its normal sync
        #: (Section 4.4).
        self.selfish = selfish
        #: Mirror id of this copy (index into meta.mirror_nodes), -1 if
        #: not a mirror.
        self.mirror_id = mirror_id
        #: Edge-cut mirrors only: a full copy of the master's in-edge
        #: list as ``(src_gid, src_position_on_master_node, weight)``
        #: triples ("all edges are included into the full states of the
        #: masters and replicated to the mirrors", Section 4.3).
        #: Positions allow the in-place re-linking of Rebirth; gids
        #: allow the re-resolution of Migration.
        self.full_edges = full_edges
        #: Scalar superstep staging (see :meth:`clear_pending`).
        self.pending_value = None
        self.has_pending = False
        self.pending_activates = False
        self.pending_active = False
        self.next_active = False

    def __repr__(self) -> str:
        return (f"VertexSlot(gid={self.gid}, role={self.role.name}, "
                f"value={self.value!r}, active={self.active})")

    # -- memory accounting ------------------------------------------------

    def nbytes(self, value_nbytes: int) -> int:
        """Approximate in-memory footprint of this slot."""
        base = 64  # object header, flags, degrees
        edges = (len(self.in_edges) + len(self.out_edges)) * BYTES_PER_EDGE
        if self.full_edges is not None:
            edges += len(self.full_edges) * BYTES_PER_EDGE
        meta = self.meta.nbytes() if self.meta is not None else 0
        return base + value_nbytes + edges + meta

    @property
    def is_master(self) -> bool:
        return self.role is Role.MASTER

    @property
    def is_mirror(self) -> bool:
        return self.role is Role.MIRROR

    def clear_pending(self) -> None:
        """Reset the scalar superstep staging: the value or received
        sync awaiting the barrier commit, its activation flag, the
        vertex-cut "active next superstep" flag from the master, and
        the activation accumulated during the superstep."""
        self.pending_value = None
        self.has_pending = False
        self.pending_activates = False
        self.pending_active = False
        self.next_active = False
