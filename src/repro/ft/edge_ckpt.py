"""Edge-ckpt files for vertex-cut systems (Section 4.3).

Vertex-cut creates no replicated edges, so Imitator writes each node's
edges to persistent storage once, during graph loading.  The files are
pre-partitioned for Migration: node X's edges are split into one file
per *receiver* node, where an edge's receiver is the node hosting the
master or a mirror of its target vertex — so after X crashes, each
surviving node exclusively reloads one file and every reloaded edge
lands next to a copy of its target.

Algorithms that mutate edge state log updates incrementally, overlapped
with computation (so it costs no normal-execution time in the paper's
model; the bytes are still accounted).
"""

from __future__ import annotations

from typing import NamedTuple

from repro.cluster.storage import PersistentStore
from repro.errors import FaultToleranceError
from repro.utils.sizing import BYTES_PER_EDGE


class EdgeRecord(NamedTuple):
    """One edge as stored in an edge-ckpt file."""

    src: int
    dst: int
    weight: float


def _path(owner_node: int, receiver_node: int) -> str:
    return f"edge-ckpt/node{owner_node}/file{receiver_node}"


def dedupe_edge_records(records: list[EdgeRecord]) -> list[EdgeRecord]:
    """Collapse update-log duplicates, last record wins per edge.

    Mutating algorithms append updated weights behind the loading-time
    records; recovery must reconstruct each edge once, with its latest
    state, while preserving the original (first-occurrence) order so
    gather folds stay deterministic.
    """
    latest: dict[tuple[int, int], EdgeRecord] = {}
    order: list[tuple[int, int]] = []
    for record in records:
        key = (record.src, record.dst)
        if key not in latest:
            order.append(key)
        latest[key] = record
    return [latest[key] for key in order]


class EdgeCkptStore:
    """Per-node, per-receiver edge files on the persistent store."""

    def __init__(self, store: PersistentStore, num_nodes: int):
        self.store = store
        self.num_nodes = num_nodes
        #: bytes written per owner node at loading, for cost accounting.
        self.loading_bytes: dict[int, int] = {}

    # -- loading-time write ---------------------------------------------

    def write_node_edges(self, owner_node: int,
                         edges_by_receiver: dict[int, list[EdgeRecord]]
                         ) -> int:
        """Write one node's edges, pre-partitioned by receiver.

        Returns the bytes written (the loading-phase cost, which the
        paper hides by overlapping with loading I/O).
        """
        total = 0
        for receiver, records in sorted(edges_by_receiver.items()):
            nbytes = len(records) * BYTES_PER_EDGE
            self.store.write(_path(owner_node, receiver), list(records),
                             nbytes)
            total += nbytes
        self.loading_bytes[owner_node] = total
        return total

    # -- incremental update log -----------------------------------------

    def log_edge_update(self, owner_node: int, receiver: int,
                        record: EdgeRecord) -> None:
        """Append one mutated edge (overlapped with computation)."""
        self.store.append(_path(owner_node, receiver), record,
                          BYTES_PER_EDGE)

    # -- recovery-time read ------------------------------------------------

    def read_file(self, owner_node: int, receiver: int) -> list[EdgeRecord]:
        """One receiver's file of a crashed node's edges (Migration)."""
        path = _path(owner_node, receiver)
        if not self.store.exists(path):
            return []
        payload = self.store.read(path)
        return list(payload)

    def receivers(self, owner_node: int) -> list[int]:
        """Receiver ids with an existing file for this owner, sorted.

        Receivers are fixed at write time; after repeated migrations
        some of them may be long dead, so recovery must enumerate the
        files rather than assume one per currently-alive node.
        """
        ids = []
        prefix = f"edge-ckpt/node{owner_node}/file"
        for path in self.store.listdir(f"edge-ckpt/node{owner_node}"):
            ids.append(int(path[len(prefix):]))
        return sorted(ids)

    def read_all(self, owner_node: int) -> list[EdgeRecord]:
        """Every edge of a crashed node (Rebirth reloads them all)."""
        records: list[EdgeRecord] = []
        found = False
        for path in self.store.listdir(f"edge-ckpt/node{owner_node}"):
            found = True
            records.extend(self.store.read(path))
        if not found and self.loading_bytes.get(owner_node, 0) > 0:
            raise FaultToleranceError(
                f"edge-ckpt files for node {owner_node} disappeared")
        return records

    def file_nbytes(self, owner_node: int, receiver: int) -> int:
        path = _path(owner_node, receiver)
        if not self.store.exists(path):
            return 0
        return self.store.stat(path).nbytes

    # -- pristine rewrite ------------------------------------------------

    def clear_node(self, owner_node: int) -> None:
        """Drop every file of one owner before a from-scratch rewrite.

        Checkpoint-rung recovery rebuilds all local graphs from the
        loading inputs and rewrites the edge-ckpt files; stale receiver
        files and appended update records from recoveries that happened
        after the snapshot must not survive the rewrite, or a later
        Migration would reload edges twice.
        """
        for path in list(self.store.listdir(f"edge-ckpt/node{owner_node}")):
            self.store.delete(path)
        self.loading_bytes.pop(owner_node, None)
