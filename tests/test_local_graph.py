"""LocalGraph tests: positional array semantics, active-set index,
column-backed dynamic slot fields."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import make_engine
from repro.engine.local_graph import LocalGraph
from repro.engine.state import COLUMN_FIELDS, MasterMeta, Role, VertexSlot
from repro.errors import EngineError
from repro.graph import generators


def slot(gid, role=Role.MASTER, active=False):
    return VertexSlot(gid=gid, role=role, active=active)


class TestSlotArray:
    def test_append_and_lookup(self):
        lg = LocalGraph(0)
        pos = lg.add_slot(slot(5))
        assert pos == 0
        assert 5 in lg
        assert lg.slot_of(5).gid == 5
        assert lg.position_of(5) == 0

    def test_positional_insert_pads(self):
        lg = LocalGraph(0)
        lg.add_slot(slot(9), position=3)
        assert lg.slots[0] is None
        assert lg.slot_at(3).gid == 9
        assert lg.slot_at(99) is None

    def test_duplicate_gid_rejected(self):
        lg = LocalGraph(0)
        lg.add_slot(slot(1))
        with pytest.raises(EngineError):
            lg.add_slot(slot(1))

    def test_occupied_position_rejected(self):
        lg = LocalGraph(0)
        lg.add_slot(slot(1), position=2)
        with pytest.raises(EngineError):
            lg.add_slot(slot(2), position=2)

    def test_remove_leaves_tombstone(self):
        lg = LocalGraph(0)
        lg.add_slot(slot(1))
        lg.add_slot(slot(2))
        removed = lg.remove_slot(1)
        assert removed.gid == 1
        assert lg.slots[0] is None
        assert 1 not in lg
        assert lg.slot_of(2).gid == 2  # position unaffected

    def test_remove_missing_raises(self):
        lg = LocalGraph(0)
        with pytest.raises(EngineError):
            lg.remove_slot(7)

    def test_missing_lookup_raises(self):
        lg = LocalGraph(0)
        with pytest.raises(EngineError):
            lg.slot_of(3)


class TestActiveIndex:
    def test_set_active_routes_by_role(self):
        lg = LocalGraph(0)
        master = slot(1, Role.MASTER)
        replica = slot(2, Role.REPLICA)
        lg.add_slot(master)
        lg.add_slot(replica)
        lg.set_active(master, True)
        lg.set_active(replica, True)
        assert lg.active_masters == {1}
        assert lg.active_others == {2}
        lg.set_active(master, False)
        assert lg.active_masters == set()

    def test_active_at_insert(self):
        lg = LocalGraph(0)
        lg.add_slot(slot(3, Role.MIRROR, active=True))
        assert lg.active_others == {3}

    def test_role_change_moves_sets(self):
        lg = LocalGraph(0)
        s = slot(4, Role.MIRROR, active=True)
        lg.add_slot(s)
        s.role = Role.MASTER  # promotion
        lg.set_active(s, True)
        assert lg.active_masters == {4}
        assert lg.active_others == set()

    def test_remove_clears_active(self):
        lg = LocalGraph(0)
        lg.add_slot(slot(5, Role.MASTER, active=True))
        lg.remove_slot(5)
        assert lg.active_masters == set()


class TestIterationAndCounts:
    def make(self):
        lg = LocalGraph(1)
        lg.add_slot(slot(0, Role.MASTER))
        lg.add_slot(slot(1, Role.MIRROR))
        ft = slot(2, Role.MIRROR)
        ft.ft_only = True
        lg.add_slot(ft)
        lg.add_slot(slot(3, Role.REPLICA))
        return lg

    def test_counts(self):
        counts = self.make().counts()
        assert counts == {"masters": 1, "mirrors": 2, "replicas": 1,
                          "ft_replicas": 1, "local_in_edges": 0,
                          "total": 4}

    def test_iterators(self):
        lg = self.make()
        assert [s.gid for s in lg.iter_masters()] == [0]
        assert sorted(s.gid for s in lg.iter_mirrors()) == [1, 2]
        assert len(list(lg.iter_slots())) == 4

    def test_view(self):
        lg = LocalGraph(0)
        s = slot(7)
        s.value = 2.5
        s.out_degree = 3
        lg.add_slot(s)
        view = lg.view(0)
        assert view.vid == 7
        assert view.value == 2.5
        assert view.out_degree == 3

    def test_memory_counts_edges_and_meta(self):
        from repro.algorithms import PageRank
        lg = self.make()
        base = lg.memory_nbytes(PageRank())
        master = lg.slot_of(0)
        master.in_edges.append((1, 1.0))
        assert lg.memory_nbytes(PageRank()) > base


def fields(s):
    return tuple(getattr(s, name) for name in COLUMN_FIELDS)


def full_slot(gid, value, role=Role.MASTER):
    """A detached slot whose six column fields all differ from the
    defaults."""
    return VertexSlot(gid=gid, role=role, value=value, active=True,
                      last_activates=True, last_update_iter=gid + 7,
                      mirror_self_active=True, replicas_known_active=False,
                      meta=MasterMeta() if role is Role.MASTER else None)


class TestColumns:
    """The six dynamic fields live in the graph's columns while placed."""

    def test_fields_are_stored_in_the_columns(self):
        lg = LocalGraph(0, np.float64)
        s = full_slot(3, 1.5)
        lg.add_slot(s)
        s.value = 2.25
        s.last_update_iter = 4
        assert lg.column("value").tolist() == [2.25]
        assert lg.column("last_update_iter").tolist() == [4]
        lg.column("mirror_self_active")[0] = False
        assert s.mirror_self_active is False

    def test_growth_past_capacity_keeps_earlier_values(self):
        lg = LocalGraph(0, np.float64)
        for gid in range(5):
            lg.add_slot(full_slot(gid, gid + 0.5))
        capacity = len(lg._columns[0])
        lg.add_slot(full_slot(99, 9.5), position=capacity + 3)
        assert len(lg._columns[0]) > capacity + 3
        for gid in range(5):
            assert fields(lg.slot_of(gid)) == (gid + 0.5, True, True,
                                               gid + 7, True, False)
        assert fields(lg.slot_of(99)) == (9.5, True, True, 106, True,
                                          False)
        assert lg.active_masters == {0, 1, 2, 3, 4, 99}

    def test_appends_grow_by_doubling(self):
        lg = LocalGraph(0, np.float64)
        capacities = set()
        for gid in range(1000):
            lg.add_slot(full_slot(gid, float(gid)))
            capacities.add(len(lg._columns[0]))
        assert len(capacities) <= 11
        assert lg.column("value").tolist() == [float(g) for g in range(1000)]

    def test_removed_slot_keeps_its_fields_and_carries_them_over(self):
        src = LocalGraph(0, np.float64)
        src.add_slot(full_slot(1, 0.25))
        src.add_slot(full_slot(2, 0.75))
        moved = src.remove_slot(1)
        expected = (0.25, True, True, 8, True, False)
        assert fields(moved) == expected
        # Detached writes stay with the slot, not the dead entry.
        moved.value = 0.5
        assert src.column("value")[0] == 0.25
        assert fields(src.slot_of(2)) == (0.75, True, True, 9, True, False)
        # Re-added at a fixed position, as move_master and
        # place_recovered_vertex do.
        dst = LocalGraph(1, np.float64)
        dst.add_slot(full_slot(7, 3.0))
        dst.add_slot(moved, position=4)
        assert fields(dst.slot_of(1)) == (0.5,) + expected[1:]
        assert dst.column("value")[4] == 0.5
        assert dst.active_masters == {1, 7}

    def test_placed_slot_cannot_be_added_twice(self):
        a, b = LocalGraph(0), LocalGraph(1)
        s = slot(1)
        a.add_slot(s)
        with pytest.raises(EngineError, match="already placed"):
            b.add_slot(s)

    @pytest.mark.parametrize("dtype", [np.float64, object])
    def test_tombstones_never_surface(self, dtype):
        lg = LocalGraph(0, dtype)
        for gid, value in enumerate([5.0, 9.0, 1.0, 7.0]):
            lg.add_slot(full_slot(gid, value))
        lg.add_slot(full_slot(4, 3.0, Role.REPLICA))
        lg.remove_slot(1)  # the largest value leaves a dead entry
        assert [s.gid for s in lg.iter_slots()] == [0, 2, 3, 4]
        assert lg.top_k_masters(2) == [(7.0, 3), (5.0, 0)]
        assert lg.top_k_masters(10, largest=False) == [
            (1.0, 2), (5.0, 0), (7.0, 3)]

    def test_top_k_ties_break_toward_lower_gid(self):
        for dtype in (np.float64, object):
            lg = LocalGraph(0, dtype)
            for gid in (4, 2, 9):
                lg.add_slot(full_slot(gid, 1.0))
            assert lg.top_k_masters(2) == [(1.0, 2), (1.0, 4)]
            assert lg.top_k_masters(2, largest=False) == [(1.0, 2),
                                                          (1.0, 4)]

    def test_numeric_column_reads_are_python_scalars(self):
        lg = LocalGraph(0, np.int64)
        s = full_slot(0, 12)
        lg.add_slot(s)
        assert type(s.value) is int and s.value == 12
        assert type(s.last_update_iter) is int
        assert type(s.active) is bool


class TestEngineValueColumns:
    """Reads through slots and ``Engine.value_of`` by column dtype."""

    @pytest.fixture(scope="class")
    def graph(self):
        return generators.power_law(300, alpha=2.0, seed=3)

    @pytest.mark.parametrize("algorithm,kind", [
        ("pagerank", float), ("cc", int)])
    def test_kernel_dtype_reads_exact_python_scalars(self, graph,
                                                     algorithm, kind):
        engine = make_engine(graph, algorithm, num_nodes=4,
                             max_iterations=3)
        assert engine._vec is not None
        engine.run()
        bits = {}
        for lg in engine.local_graphs.values():
            assert lg.dtype == engine._vec.kernel.dtype
            for s in lg.iter_slots():
                assert type(s.value) is kind
            for s in lg.iter_masters():
                bits[s.gid] = s.value
        for gid, value in bits.items():
            read = engine.value_of(gid)
            assert type(read) is kind
            assert np.array([read]).view(np.uint64)[0] == \
                np.array([value]).view(np.uint64)[0]

    def test_scalar_run_stores_the_programs_own_objects(self, graph):
        engine = make_engine(graph, "pagerank", num_nodes=4,
                             max_iterations=3, vectorized=False)
        assert engine._vec is None
        engine.run()
        lg = engine.local_graphs[0]
        assert lg.dtype == object
        s = next(lg.iter_masters())
        marker = object()
        s.value = marker
        assert engine.value_of(s.gid) is marker

    def test_als_values_are_the_stored_objects(self):
        graph = generators.bipartite(40, 12, edges_per_user=4, seed=7)
        engine = make_engine(graph, "als", num_nodes=3, max_iterations=2,
                             algorithm_kwargs={"num_users": 40, "rank": 2})
        assert engine._vec is None
        engine.run()
        for lg in engine.local_graphs.values():
            assert lg.dtype == object
            for s in lg.iter_masters():
                assert isinstance(s.value, tuple)
                assert engine.value_of(s.gid) is s.value
                assert lg.column("value")[lg.position_of(s.gid)] \
                    is s.value
