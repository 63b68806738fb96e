"""Vectorized superstep execution: the structure-of-arrays fast path.

Runs one superstep array-at-a-time when the vertex program declares an
:class:`~repro.algorithms.kernels.ArrayKernel`, replacing the
per-vertex compute / sync-build / receive-staging / commit loops of
:class:`~repro.exec.protocol.NodeProtocol`.  The contract (DESIGN.md
§11) is *bit-for-bit* equality with the scalar loop: identical
committed values, activity sets, message/byte counters, elision counts
and simulated time.

:class:`VectorProtocol` is the array image of ``NodeProtocol``: the
same per-node calls — edge-cut compute, vertex-cut gather and
fold+apply, sync staging, the two-stage commit, abort — over one
node's :class:`_NodeState` (which takes the place of the scalar
``dirty`` map).  Each returns its outbox and counters and never
touches an engine, network or clock, so the engine's per-node loops
and the multiprocessing workers drive either protocol the same way.

Lifecycle
---------
* The dynamic state is the :class:`~repro.engine.local_graph.
  LocalGraph`'s own columns (values, activity flags, update stamps):
  the operations read and write them in place, and every slot
  attribute reads the same storage, so there is no second copy to
  write back or re-read.
* A :class:`_NodeState` holds only the node's SoA topology and the
  superstep staging; it stays valid while the graph's cached topology
  is the same object (``add_slot``/``remove_slot`` and recovery's
  blanket :meth:`LocalGraph.invalidate_soa` replace it).
* Compute stages results into pending *arrays*; received sync batches
  stage into the same arrays.
* Commit stage 1 only scatters activations into ``next_active``; the
  columns are written in :meth:`~VectorProtocol.finalize_commit`, so
  the whole exchange stays abortable until then and
  :meth:`~VectorProtocol.abort` just drops the pending masks.

Ordering notes: records within one batch are emitted in *position*
order here versus active-set iteration order in the scalar path.  That
is observationally equivalent — gids within a batch are distinct, the
byte accounting is order-independent, and the vertex-cut master fold
re-sorts partials by (position, sender) exactly as the scalar fold
sorts by sender per vertex.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.network import MessageKind
from repro.engine.messages import (
    ActivateBatch,
    GatherBatch,
    RawGatherBatch,
    SyncBatch,
)
from repro.utils.sizing import BYTES_PER_VID

class _NodeState:
    """One node's topology and superstep staging over its graph's
    columns; cached across supersteps keyed by topology identity."""

    __slots__ = ("topo", "pend_mask", "pend_values", "pend_activates",
                 "pend_self_active", "next_active")

    def __init__(self, topo, dtype):
        n = topo.n
        self.topo = topo
        self.pend_mask = np.zeros(n, dtype=bool)
        self.pend_values = np.zeros(n, dtype=dtype)
        self.pend_activates = np.zeros(n, dtype=bool)
        self.pend_self_active = np.zeros(n, dtype=bool)
        self.next_active = np.zeros(n, dtype=bool)


class VectorProtocol:
    """The array superstep protocol of one partition (both modes).

    The vectorized image of :class:`~repro.exec.protocol.NodeProtocol`:
    stateless across supersteps apart from its policy knobs (one
    instance serves every partition), with all per-node state in the
    :class:`_NodeState` passed to each operation.  Operations return
    their outbox — ``(dst_node, kind) -> batch`` — and counters; the
    caller ships the batches and books the counters.
    """

    def __init__(self, kernel, is_edge_cut: bool,
                 sync_elision: bool = True,
                 selfish_opt: bool = False,
                 combining: bool = True):
        self.kernel = kernel
        self.is_edge_cut = is_edge_cut
        self.sync_elision = sync_elision
        self.selfish_opt = selfish_opt
        self.combining = combining

    def begin(self, lg, st: _NodeState | None = None) -> _NodeState:
        """A superstep's per-node state: ``st`` while still valid for
        ``lg``'s topology, else fresh staging over the new one."""
        topo = lg.topology()
        if st is None or st.topo is not topo:
            return _NodeState(topo, self.kernel.dtype)
        return st

    # -- compute -------------------------------------------------------

    def edge_cut_compute_node(self, lg, st: _NodeState, ctx,
                              mutation_log=None
                              ) -> tuple[dict, int, int, int]:
        """One node's edge-cut superstep; returns ``(outbox,
        edges_folded, vertices_computed, syncs_elided)``."""
        topo = st.topo
        sel = lg.column("active") & topo.is_master
        esel = np.flatnonzero(sel[topo.in_dst]) \
            if topo.in_dst.size else topo.in_dst
        acc, has = self.kernel.edge_fold(topo, lg.column("value"), esel)
        outbox, elided = self._master_compute(lg, st, sel, acc, has, ctx)
        return (outbox, int(topo.in_counts[sel].sum()), int(sel.sum()),
                elided)

    def vertex_gather(self, lg, st: _NodeState, ctx, mutation_log=None
                      ) -> tuple[dict, list, int]:
        """One node's vertex-cut gather phase (phase 1).

        Returns ``(outbox, partials, edges_folded)``: remote partials go
        to the masters' nodes in the outbox; ``partials`` lists
        ``(positions, senders, accs)`` triples, starting with this
        node's own.  Every kernel declares a combiner, so the combined
        batches carry their pre-combine contribution counts
        (``folded``), and with combining off the raw per-edge
        contributions ship in a RawGatherBatch instead (DESIGN.md §15).
        """
        kernel = self.kernel
        node = lg.node_id
        topo = st.topo
        sel = lg.column("active") & topo.has_in
        esel = np.flatnonzero(sel[topo.in_dst]) \
            if topo.in_dst.size else topo.in_dst
        seg, contrib = kernel.edge_contrib(topo, lg.column("value"), esel)
        acc = kernel.init_acc(topo.n)
        kernel.fold_into(acc, seg, contrib)
        cnt = np.bincount(seg, minlength=topo.n) if seg.size \
            else np.zeros(topo.n, dtype=np.int64)
        selpos = np.flatnonzero(sel)
        local = selpos[topo.master_node[selpos] == node]
        partials = [(local, np.full(local.size, node, dtype=np.int64),
                     acc[local])] if local.size else []
        outbox: dict = {}
        remote = selpos[topo.master_node[selpos] != node]
        if remote.size:
            dsts = topo.master_node[remote]
            order = np.argsort(dsts, kind="stable")
            remote, dsts = remote[order], dsts[order]
            bounds = np.flatnonzero(np.r_[True, dsts[1:] != dsts[:-1]])
            rec_size = BYTES_PER_VID + kernel.acc_nbytes
            folded_all = np.maximum(cnt[remote], 1)
            if not self.combining:
                # Raw shipping: gather every contributing edge of a
                # remote record, grouped per record in batch order
                # with the CSR within-group order preserved (the
                # stable sort by record index), so the receiver's
                # group folds replay the sender's fold exactly.
                rec_idx = np.full(topo.n, -1, dtype=np.int64)
                rec_idx[remote] = np.arange(remote.size)
                rows = np.flatnonzero(rec_idx[seg] >= 0) \
                    if seg.size else seg
                rows = rows[np.argsort(rec_idx[seg[rows]],
                                       kind="stable")]
                flat = contrib[rows]
                counts_all = cnt[remote]
                coff = np.concatenate(([0], np.cumsum(counts_all)))
                phys_all = BYTES_PER_VID + folded_all * kernel.acc_nbytes
            for b, e in zip(bounds, np.r_[bounds[1:], dsts.size]):
                grp = remote[b:e]
                key = (int(dsts[b]), MessageKind.GATHER)
                if self.combining:
                    outbox[key] = GatherBatch.from_columns(
                        topo.gids[grp].tolist(), acc[grp].tolist(),
                        [rec_size] * grp.size,
                        folded_all[b:e].tolist())
                else:
                    outbox[key] = RawGatherBatch.from_columns(
                        topo.gids[grp].tolist(),
                        counts_all[b:e].tolist(),
                        flat[coff[b]:coff[e]].tolist(),
                        [rec_size] * grp.size,
                        phys_all[b:e].tolist())
        return outbox, partials, int(topo.in_counts[sel].sum())

    def receive_gather(self, lg, st: _NodeState, partials: list,
                       src: int, batch) -> None:
        """Add one received gather batch to ``partials``; raw
        contribution groups fold on receipt."""
        kernel = self.kernel
        if isinstance(batch, RawGatherBatch):
            accs = kernel.fold_groups(
                np.asarray(batch.counts, dtype=np.int64), batch.contribs)
        else:
            accs = np.asarray(batch.accs, dtype=kernel.dtype)
        pos = st.topo.translate(np.asarray(batch.gids, dtype=np.int64))
        partials.append((pos, np.full(pos.size, src, dtype=np.int64), accs))

    def master_fold_apply(self, lg, st: _NodeState, partials: list, ctx
                          ) -> tuple[dict, int, int]:
        """One node's vertex-cut apply phase (phase 2); returns
        ``(outbox, vertices_computed, syncs_elided)``.

        Masters fold partials in (position, sender) order — the vector
        image of the scalar per-vertex sort-by-sender fold.
        """
        kernel = self.kernel
        topo = st.topo
        sel = lg.column("active") & topo.is_master
        acc = kernel.init_acc(topo.n)
        has = np.zeros(topo.n, dtype=bool)
        if partials:
            pos = np.concatenate([p for p, _, _ in partials])
            src = np.concatenate([s for _, s, _ in partials])
            accs = np.concatenate([a for _, _, a in partials])
            keep = sel[pos]
            pos, src, accs = pos[keep], src[keep], accs[keep]
            order = np.lexsort((src, pos))
            kernel.fold_into(acc, pos[order], accs[order])
            has[pos] = True
        outbox, elided = self._master_compute(lg, st, sel, acc, has, ctx)
        return outbox, int(sel.sum()), elided

    def _master_compute(self, lg, st: _NodeState, sel: np.ndarray,
                        acc: np.ndarray, has: np.ndarray,
                        ctx) -> tuple[dict, int]:
        """Apply + stage + build syncs for one node's computed masters;
        returns ``(outbox, syncs_elided)``."""
        kernel = self.kernel
        topo = st.topo
        old = lg.column("value")
        new = kernel.apply(topo.gids, old, acc, has, ctx)
        act = kernel.activates(topo.gids, old, new, ctx)
        stay = kernel.stays_active(topo.gids, old, new, ctx)
        st.pend_mask |= sel
        st.pend_values[sel] = new[sel]
        st.pend_activates[sel] = act[sel]
        st.pend_self_active[sel] = stay[sel]
        outbox: dict = {}
        elided = 0
        if self.sync_elision:
            noop = ~act & ~lg.column("last_activates") & (new == old)
            mirror_elide = noop & (stay == lg.column("mirror_self_active"))
        else:
            noop = mirror_elide = None
        plain_size = BYTES_PER_VID + kernel.value_nbytes + 1
        mirror_size = BYTES_PER_VID + kernel.value_nbytes + 2
        for (dst, is_mirror), positions in topo.sync_plan.items():
            cand = positions[sel[positions]]
            if self.selfish_opt and cand.size:
                cand = cand[~topo.selfish[cand]]
            if noop is not None and cand.size:
                elide = mirror_elide if is_mirror else noop
                keep = cand[~elide[cand]]
                elided += int(cand.size - keep.size)
            else:
                keep = cand
            if not keep.size:
                continue
            # Flag bits mirror the scalar append calls exactly: plain
            # syncs carry only the activates bit.
            if is_mirror:
                flags = (act[keep] + 2 * stay[keep]).tolist()
                batch = SyncBatch.from_columns(
                    topo.gids[keep].tolist(), new[keep].tolist(), flags,
                    [mirror_size] * keep.size, full_state=True)
                outbox[(dst, MessageKind.MIRROR_SYNC)] = batch
            else:
                flags = act[keep].astype(np.int64).tolist()
                batch = SyncBatch.from_columns(
                    topo.gids[keep].tolist(), new[keep].tolist(), flags,
                    [plain_size] * keep.size)
                outbox[(dst, MessageKind.SYNC)] = batch
        return outbox, elided

    # -- receive staging ----------------------------------------------

    def apply_sync_batch(self, lg, st: _NodeState, batch: SyncBatch) -> None:
        """Stage every record of one received sync batch (kernels never
        mutate edges, so the batch carries no edge updates)."""
        pos = st.topo.translate(np.asarray(batch.gids, dtype=np.int64))
        st.pend_mask[pos] = True
        st.pend_values[pos] = np.asarray(batch.values,
                                         dtype=self.kernel.dtype)
        flags = np.asarray(batch.flags, dtype=np.int64)
        st.pend_activates[pos] = (flags & SyncBatch.FLAG_ACTIVATES) != 0
        if batch.full_state:
            st.pend_self_active[pos] = \
                (flags & SyncBatch.FLAG_SELF_ACTIVE) != 0

    # -- barrier commit ------------------------------------------------

    def commit_stage1(self, lg, st: _NodeState, iteration: int) -> dict:
        """Scatter activations for the staged updates along local
        out-edges; returns the node's remote-activation outbox.

        Local master targets mark ``next_active``; remote ones become
        one :class:`ActivateBatch` per master node, deduplicated and in
        ascending gid order — the scalar path's sorted signal set.
        Committed columns stay untouched until :meth:`finalize_commit`,
        so the exchange is abortable up to the finalize round.
        """
        topo = st.topo
        sources = st.pend_mask & st.pend_activates
        outbox: dict = {}
        if not (sources.any() and topo.out_src.size):
            return outbox
        tgt = topo.out_dst[sources[topo.out_src]]
        m = topo.is_master[tgt]
        st.next_active[tgt[m]] = True
        rem = tgt[~m]
        if rem.size:
            pairs = np.unique(np.stack([topo.master_node[rem],
                                        topo.gids[rem]], axis=1), axis=0)
            dcol, gcol = pairs[:, 0], pairs[:, 1]
            bounds = np.flatnonzero(np.r_[True, dcol[1:] != dcol[:-1]])
            for b, e in zip(bounds, np.r_[bounds[1:], dcol.size]):
                outbox[(int(dcol[b]), MessageKind.ACTIVATE)] = \
                    ActivateBatch(gcol[b:e].tolist())
        return outbox

    def apply_activations(self, lg, st: _NodeState, gids) -> None:
        """Mark remote activation signals received for local masters."""
        pos = st.topo.translate(np.asarray(gids, dtype=np.int64))
        st.next_active[pos] = True

    def finalize_commit(self, lg, st: _NodeState,
                        iteration: int) -> list[int]:
        """Commit the staged values and finalise activity — the point of
        no return of the superstep.

        Returns the master gids whose activity now differs from what
        their replicas believe (vertex-cut broadcast backlog; always
        empty under edge-cut).
        """
        topo = st.topo
        pm = st.pend_mask
        pos = np.flatnonzero(pm)
        if pos.size:
            lg.column("value")[pos] = st.pend_values[pos]
            lg.column("last_activates")[pos] = st.pend_activates[pos]
            lg.column("last_update_iter")[pos] = iteration
        self_active = lg.column("mirror_self_active")
        stale: list[int] = []
        touched = np.flatnonzero((pm | st.next_active) & topo.is_master)
        if touched.size:
            new_active = ((pm[touched] & st.pend_self_active[touched])
                          | st.next_active[touched])
            # Masters track the self-active flag their mirrors just
            # received, so recovery can rebuild them.
            withp = touched[pm[touched]]
            self_active[withp] = st.pend_self_active[withp]
            # Only positions whose activity actually changed go
            # through the active-set update (always-active programs
            # skip it entirely).
            cmask = new_active != lg.column("active")[touched]
            if cmask.any():
                lg.set_active_bulk(touched[cmask].tolist(),
                                   new_active[cmask].tolist())
            if not self.is_edge_cut:
                known = lg.column("replicas_known_active")[touched]
                stale = topo.gids[touched[new_active != known]].tolist()
        mirrors = np.flatnonzero(pm & topo.is_mirror)
        self_active[mirrors] = st.pend_self_active[mirrors]
        self.abort(lg, st)
        return stale

    def abort(self, lg, st: _NodeState) -> None:
        """Drop the superstep's staging; value/flag staging arrays need
        no clearing — every read is ``pend_mask``-gated."""
        st.pend_mask[:] = False
        st.next_active[:] = False
