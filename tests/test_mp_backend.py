"""Multiprocessing backend: differential oracle + real-kill recovery.

The cross-backend differential oracle runs the same ``BackendSpec`` on
the deterministic simulator and on real forked worker processes and
asserts *bit-identical* committed values plus equal logical-message
accounting — the CI gate for the pluggable-backend refactor
(DESIGN.md §12).

The recovery tests deliver real ``SIGKILL``s to worker processes and
assert the heartbeat/sentinel detection plus rebirth-from-replicas
path converges to the failure-free values exactly.
"""

from __future__ import annotations

import multiprocessing
import signal

import pytest

from repro.algorithms import PageRank
from repro.errors import UnrecoverableFailureError
from repro.exec.base import BackendError, BackendSpec
from repro.exec.mp import MultiprocessingBackend
from repro.exec.simulator import SimulatorBackend
from repro.graph import generators

pytestmark = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="multiprocessing backend requires the fork start method")

WATCHDOG_S = 180


@pytest.fixture(autouse=True)
def watchdog():
    """SIGALRM backstop so a wedged worker round can never hang the
    suite (CI additionally enforces pytest-timeout per test)."""
    def _fire(signum, frame):  # pragma: no cover - only on a hang
        raise TimeoutError(f"mp backend test exceeded {WATCHDOG_S}s")

    previous = signal.signal(signal.SIGALRM, _fire)
    signal.alarm(WATCHDOG_S)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture(scope="module")
def graph():
    return generators.power_law(80, alpha=2.0, seed=7, avg_degree=5.0,
                                name="mp-oracle")


def _assert_equivalent(sim, mp):
    assert mp.values == sim.values
    assert mp.iterations == sim.iterations
    assert mp.halted == sim.halted
    assert mp.total_msgs == sim.total_msgs
    assert mp.total_bytes == sim.total_bytes
    assert mp.total_batches == sim.total_batches
    assert mp.msgs_by_kind == sim.msgs_by_kind
    assert mp.syncs_elided == sim.syncs_elided


class TestDifferentialOracle:
    """Same graph/program/seed => identical outcome on both backends.

    ``vectorized`` is one more input of every case: the workers run the
    array operations here and the scalar ``NodeProtocol`` in the
    subclass below, each against a simulator run of the same spec.
    """

    vectorized = True

    @pytest.mark.parametrize("partition",
                             ["hash_edge_cut", "random_vertex_cut"])
    @pytest.mark.parametrize("ft_level", [0, 1, 2])
    @pytest.mark.parametrize("algorithm,kwargs", [
        ("pagerank", ()),
        ("sssp", (("source", 0),)),
    ])
    def test_values_and_message_counts_match(self, graph, algorithm,
                                             kwargs, partition, ft_level):
        spec = BackendSpec(
            algorithm=algorithm, num_nodes=4, partition=partition,
            vectorized=self.vectorized,
            ft_mode="none" if ft_level == 0 else "replication",
            ft_level=ft_level, max_iterations=10,
            algorithm_kwargs=kwargs)
        sim = SimulatorBackend().run(graph, spec)
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, spec)
        _assert_equivalent(sim, mp)

    @pytest.mark.parametrize("combining", [True, False])
    def test_combining_parity(self, graph, combining):
        """Combining oracle (DESIGN.md §15): both wire formats produce
        identical values and logical accounting on both backends, and
        the combine counters agree with the simulator's exactly."""
        spec = BackendSpec(algorithm="pagerank", num_nodes=4,
                           partition="random_vertex_cut",
                           max_iterations=8, combining=combining,
                           vectorized=self.vectorized)
        sim = SimulatorBackend().run(graph, spec)
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, spec)
        _assert_equivalent(sim, mp)
        assert mp.combined_records == sim.combined_records
        assert mp.combine_ratio == sim.combine_ratio
        if combining:
            assert mp.combine_ratio > 1.5
        else:
            assert mp.combine_ratio == 1.0
            assert mp.combined_records == 0

    def test_combining_off_matches_on(self, graph):
        """The uncombined wire format changes nothing observable at the
        logical tier, across real process boundaries too."""
        on = BackendSpec(algorithm="sssp", num_nodes=4,
                         partition="random_vertex_cut", max_iterations=8,
                         algorithm_kwargs=(("source", 0),),
                         vectorized=self.vectorized)
        off = BackendSpec(algorithm="sssp", num_nodes=4,
                          partition="random_vertex_cut", max_iterations=8,
                          combining=False,
                          algorithm_kwargs=(("source", 0),),
                          vectorized=self.vectorized)
        with MultiprocessingBackend() as backend:
            mp_on = backend.run(graph, on)
        with MultiprocessingBackend() as backend:
            mp_off = backend.run(graph, off)
        assert mp_on.values == mp_off.values
        assert mp_on.total_msgs == mp_off.total_msgs
        assert mp_on.total_bytes == mp_off.total_bytes
        assert mp_on.msgs_by_kind == mp_off.msgs_by_kind
        assert mp_on.combined_records > 0
        assert mp_off.combined_records == 0

    def test_sync_elision_parity(self, graph):
        """Elision fires on converging SSSP and both backends elide the
        same records (and fewer messages than the elision-off run)."""
        on = BackendSpec(algorithm="sssp", num_nodes=4, max_iterations=12,
                         algorithm_kwargs=(("source", 0),),
                         vectorized=self.vectorized)
        off = BackendSpec(algorithm="sssp", num_nodes=4, max_iterations=12,
                          sync_elision=False,
                          algorithm_kwargs=(("source", 0),),
                          vectorized=self.vectorized)
        sim_on = SimulatorBackend().run(graph, on)
        sim_off = SimulatorBackend().run(graph, off)
        with MultiprocessingBackend() as backend:
            mp_on = backend.run(graph, on)
        with MultiprocessingBackend() as backend:
            mp_off = backend.run(graph, off)
        _assert_equivalent(sim_on, mp_on)
        _assert_equivalent(sim_off, mp_off)
        assert mp_on.syncs_elided > 0
        assert mp_on.total_msgs < mp_off.total_msgs


class TestDifferentialOracleScalarWorkers(TestDifferentialOracle):
    """The same oracle with ``vectorized=False``: scalar workers."""

    vectorized = False


class TestWorkerProtocol:
    """Workers run the array operations exactly when the simulator
    would: the program declares a kernel and the spec asks for it."""

    @pytest.mark.parametrize("vectorized", [True, False])
    def test_follows_spec(self, graph, vectorized):
        spec = BackendSpec(algorithm="pagerank", num_nodes=2,
                           max_iterations=2, vectorized=vectorized)
        with MultiprocessingBackend() as backend:
            result = backend.run(graph, spec)
        assert result.extra["vectorized"] is vectorized

    def test_falls_back_without_kernel(self, graph, monkeypatch):
        monkeypatch.setattr(PageRank, "kernel", lambda self: None)
        spec = BackendSpec(algorithm="pagerank", num_nodes=2,
                           max_iterations=4)
        sim = SimulatorBackend().run(graph, spec)
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, spec)
        assert mp.extra["vectorized"] is False
        _assert_equivalent(sim, mp)


class TestHeartbeatResolution:
    def test_spec_override_does_not_leak_into_later_runs(self, graph):
        """A spec's heartbeat override holds for its own run only; the
        next run on the same backend uses the constructor defaults."""
        backend = MultiprocessingBackend(heartbeat_s=0.2,
                                         heartbeat_misses=40)
        seen: list = []
        collect = backend._collect

        def spy(*args, **kwargs):
            seen.append((backend._beat_s, backend._beat_misses))
            return collect(*args, **kwargs)

        backend._collect = spy
        with backend:
            backend.run(graph, BackendSpec(
                algorithm="pagerank", num_nodes=2, max_iterations=2,
                heartbeat_interval_s=0.05, heartbeat_misses=7))
            first, seen[:] = set(seen), []
            backend.run(graph, BackendSpec(
                algorithm="pagerank", num_nodes=2, max_iterations=2))
        assert first == {(0.05, 7)}
        assert set(seen) == {(0.2, 40)}
        assert (backend.heartbeat_s, backend.heartbeat_misses) == (0.2, 40)


class TestRealKillRecovery:
    """Real SIGKILL -> sentinel/heartbeat detection -> rebirth."""

    @pytest.mark.parametrize("partition",
                             ["hash_edge_cut", "random_vertex_cut"])
    @pytest.mark.parametrize("seed", [7, 21])
    def test_kill_mid_compute_converges_to_failure_free(self, partition,
                                                        seed):
        g = generators.power_law(80, alpha=2.0, seed=seed, avg_degree=5.0)
        base = BackendSpec(algorithm="sssp", num_nodes=4,
                           partition=partition, ft_level=1,
                           max_iterations=15,
                           algorithm_kwargs=(("source", 0),))
        kill = BackendSpec(algorithm="sssp", num_nodes=4,
                           partition=partition, ft_level=1,
                           max_iterations=15,
                           algorithm_kwargs=(("source", 0),),
                           failures=((1, (2,), "compute"),))
        reference = SimulatorBackend().run(g, base)
        with MultiprocessingBackend() as backend:
            survived = backend.run(g, kill)
        assert survived.failures_recovered == 1
        assert survived.values == reference.values
        assert survived.iterations == reference.iterations

    @pytest.mark.parametrize("phase", ["compute", "after_commit"])
    def test_pagerank_kill_both_phases(self, graph, phase):
        base = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=8)
        kill = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=8,
                           failures=((2, (1,), phase),))
        reference = SimulatorBackend().run(graph, base)
        with MultiprocessingBackend() as backend:
            survived = backend.run(graph, kill)
        assert survived.failures_recovered == 1
        assert survived.values == reference.values

    def test_double_kill_with_ft2(self, graph):
        """Two ranks SIGKILLed in one iteration; ft_level=2 still holds
        a copy of everything on the survivors."""
        base = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=2,
                           max_iterations=8, num_standby=2)
        kill = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=2,
                           max_iterations=8, num_standby=2,
                           failures=((1, (1, 3), "compute"),))
        reference = SimulatorBackend().run(graph, base)
        with MultiprocessingBackend() as backend:
            survived = backend.run(graph, kill)
        assert survived.failures_recovered == 2
        assert survived.values == reference.values

    def test_standby_pool_exhaustion_is_unrecoverable(self, graph):
        spec = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=10, num_standby=1,
                           failures=((1, (2,), "compute"),
                                     (3, (0,), "compute")))
        with MultiprocessingBackend() as backend:
            with pytest.raises(UnrecoverableFailureError,
                               match="standby pool exhausted"):
                backend.run(graph, spec)

    def test_kill_without_replication_is_unrecoverable(self, graph):
        spec = BackendSpec(algorithm="pagerank", num_nodes=4,
                           ft_mode="none", ft_level=0, max_iterations=10,
                           failures=((1, (2,), "compute"),))
        with MultiprocessingBackend() as backend:
            with pytest.raises(UnrecoverableFailureError):
                backend.run(graph, spec)


class TestWorkerHygiene:
    """Child processes are reaped on every exit path."""

    def test_no_children_leak_after_clean_run(self, graph):
        spec = BackendSpec(algorithm="pagerank", num_nodes=4,
                           max_iterations=4)
        with MultiprocessingBackend() as backend:
            backend.run(graph, spec)
            assert not multiprocessing.active_children()

    def test_no_children_leak_after_failed_run(self, graph):
        """A run that dies with an unrecoverable failure must still
        reap every worker (the context manager close is also a no-op
        by then — run()'s finally already cleaned up)."""
        spec = BackendSpec(algorithm="pagerank", num_nodes=4,
                           ft_mode="none", ft_level=0, max_iterations=10,
                           failures=((1, (2,), "compute"),))
        with MultiprocessingBackend() as backend:
            with pytest.raises(UnrecoverableFailureError):
                backend.run(graph, spec)
        assert not multiprocessing.active_children()

    def test_close_is_idempotent(self, graph):
        backend = MultiprocessingBackend()
        backend.run(graph, BackendSpec(algorithm="pagerank", num_nodes=2,
                                       max_iterations=2))
        backend.close()
        backend.close()
        assert not multiprocessing.active_children()


class TestSpecValidation:
    def test_rejects_edge_mutating_programs(self, graph, monkeypatch):
        monkeypatch.setattr(PageRank, "mutates_edges", True)
        spec = BackendSpec(algorithm="pagerank", num_nodes=2,
                           max_iterations=2)
        with MultiprocessingBackend() as backend:
            with pytest.raises(BackendError, match="edge-mutating"):
                backend.run(graph, spec)
        assert not multiprocessing.active_children()

    def test_rejects_unbatched_syncs(self, graph):
        spec = BackendSpec(algorithm="pagerank", num_nodes=2,
                           max_iterations=2, batch_syncs=False)
        with MultiprocessingBackend() as backend:
            with pytest.raises(BackendError, match="batches syncs"):
                backend.run(graph, spec)

    def test_rejects_non_rebirth_recovery(self, graph):
        spec = BackendSpec(algorithm="pagerank", num_nodes=2,
                           max_iterations=2, recovery="migration")
        with MultiprocessingBackend() as backend:
            with pytest.raises(BackendError, match="rebirth"):
                backend.run(graph, spec)

    def test_rejects_failure_beyond_horizon(self, graph):
        spec = BackendSpec(algorithm="pagerank", num_nodes=2,
                           max_iterations=2,
                           failures=((5, (0,), "compute"),))
        with MultiprocessingBackend() as backend:
            with pytest.raises(BackendError, match="beyond"):
                backend.run(graph, spec)


class TestCommitRoundKill:
    """Satellite: a worker dying inside the commit round must either be
    absorbed by the bounded abort-and-redo retry (deaths before
    ``finalize_commit``) or surface as a structured ``BackendError``
    (deaths inside the finalize round) — never a hang and never silent
    divergence."""

    def test_commit_kill_retries_bit_identical(self, graph):
        base = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=8)
        kill = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=8,
                           failures=((3, (1,), "commit"),))
        reference = SimulatorBackend().run(graph, base)
        with MultiprocessingBackend() as backend:
            survived = backend.run(graph, kill)
        assert survived.failures_recovered == 1
        assert survived.values == reference.values
        assert survived.iterations == reference.iterations

    def test_retry_budget_exhaustion_is_structured(self, graph):
        kill = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=8,
                           failures=((3, (1,), "commit"),))
        with MultiprocessingBackend() as backend:
            backend.max_iteration_retries = 0
            with pytest.raises(BackendError, match="retr"):
                backend.run(graph, kill)
        assert not multiprocessing.active_children()


class TestElasticMembership:
    """Joins, drains and flaps on the real-process backend."""

    def test_flap_is_bit_identical(self, graph):
        """SIGSTOP/SIGCONT below the death budget: the stalled worker
        is never declared failed and values match a flap-free run."""
        base = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=8)
        flap = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=8,
                           membership=((3, "flap", 2),))
        reference = SimulatorBackend().run(graph, base)
        with MultiprocessingBackend() as backend:
            flapped = backend.run(graph, flap)
        assert flapped.values == reference.values
        assert flapped.failures_recovered == 0
        assert flapped.extra["membership"]["flaps"] == 1

    def test_join_and_drain_bit_identical_across_backends(self, graph):
        spec = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=10, num_standby=1,
                           membership=((2, "join", None),
                                       (5, "drain", 1)))
        sim = SimulatorBackend().run(graph, spec)
        with MultiprocessingBackend() as backend:
            mp = backend.run(graph, spec)
        assert mp.values == sim.values
        memb = mp.extra["membership"]
        assert memb["joins"] == 1
        assert memb["drains"] == 1
        assert memb["reshapes"] == 2
        assert memb["moves"] > 0

    def test_kill_after_reshape_recovers(self, graph):
        """A SIGKILL lands after a join reshaped the cluster: the
        respawned topology must still recover bit-identically."""
        base = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                           max_iterations=10, num_standby=2)
        churn = BackendSpec(algorithm="pagerank", num_nodes=4, ft_level=1,
                            max_iterations=10, num_standby=2,
                            membership=((2, "join", None),),
                            failures=((5, (1,), "compute"),))
        reference = SimulatorBackend().run(graph, base)
        with MultiprocessingBackend() as backend:
            survived = backend.run(graph, churn)
        assert survived.failures_recovered == 1
        assert survived.values == reference.values
        memb = survived.extra["membership"]
        assert memb["leader"] >= 0
        assert memb["leader_term"] >= 1

    def test_membership_requires_replication(self, graph):
        spec = BackendSpec(algorithm="pagerank", num_nodes=4,
                           ft_mode="none", max_iterations=6,
                           membership=((2, "join", None),))
        with MultiprocessingBackend() as backend:
            with pytest.raises(BackendError, match="replication"):
                backend.run(graph, spec)
