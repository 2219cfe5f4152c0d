"""Tests for repro.graph.hub_labels — the hub-label tier must agree with
the dense DistanceOracle on every query it serves (exact distances up to
summation noise, identical infinities), because the solver treats all
three oracle tiers as interchangeable."""

import math
import os
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import (
    HUB_ORACLE_MIN_N,
    MSCInstance,
    resolve_oracle,
)
from repro.exceptions import GraphError
from repro.graph.distances import DistanceOracle
from repro.graph.graph import WirelessGraph
from repro.graph.hub_labels import HubLabelOracle, threshold_cutoff
from tests.conftest import grid_graph, path_graph, random_graph

#: Hub distances are min-over-hubs of two-leg sums, so a value can differ
#: from the dense matrix's single-path sum by accumulated rounding; the
#: solver's own comparisons tolerate exactly this much relative noise.
REL_TOL = 1e-9

#: The dense scipy backend bumps exact-zero edge lengths to 1e-300, so a
#: zero-length path reads as ~1e-300 there while the hub index reports a
#: true 0.0. This absolute slack is astronomically above any epsilon
#: accumulation (n * 1e-300) and below every real distance.
ZERO_TOL = 1e-240


def assert_rows_agree(hub_row, dense_row):
    """Rowwise agreement: identical infinities, ULP-close finites."""
    hub_row = np.asarray(hub_row, dtype=float)
    dense_row = np.asarray(dense_row, dtype=float)
    assert np.array_equal(np.isinf(hub_row), np.isinf(dense_row))
    finite = ~np.isinf(dense_row)
    assert np.allclose(
        hub_row[finite], dense_row[finite], rtol=REL_TOL, atol=ZERO_TOL
    )


class TestAgreementWithDense:
    def test_grid_rows_match_dense_matrix(self):
        g = grid_graph(4, 4)
        dense = DistanceOracle(g)
        hub = HubLabelOracle(g, cutoff=math.inf)
        for i in range(g.number_of_nodes()):
            assert_rows_agree(hub.row_by_index(i), dense.matrix[i])

    def test_point_queries_match_rows(self):
        g = grid_graph(3, 5)
        hub = HubLabelOracle(g, cutoff=math.inf)
        n = g.number_of_nodes()
        for iu in range(n):
            row = hub.row_by_index(iu)
            for iv in range(n):
                assert hub.distance_by_index(iu, iv) == row[iv]

    def test_disconnected_components_are_inf(self):
        g = WirelessGraph()
        g.add_edge(0, 1, length=1.0)
        g.add_edge(2, 3, length=1.0)  # separate component
        dense = DistanceOracle(g)
        hub = HubLabelOracle(g, cutoff=math.inf)
        assert math.isinf(hub.distance_by_index(0, 2))
        for i in range(4):
            assert_rows_agree(hub.row_by_index(i), dense.matrix[i])

    def test_zero_length_edges_agree(self):
        g = WirelessGraph()
        g.add_edge(0, 1, length=0.0)
        g.add_edge(1, 2, length=1.0)
        g.add_edge(2, 3, length=0.0)
        dense = DistanceOracle(g)
        hub = HubLabelOracle(g, cutoff=math.inf)
        for i in range(4):
            assert_rows_agree(hub.row_by_index(i), dense.matrix[i])

    def test_rg_workload_rows_agree(self):
        from repro.experiments.workloads import rg_workload

        workload = rg_workload(seed=5, n=100)
        hub = HubLabelOracle(workload.graph, cutoff=math.inf)
        dense = workload.oracle
        for i in range(0, 100, 7):
            assert_rows_agree(hub.row_by_index(i), dense.matrix[i])

    def test_gowalla_workload_rows_agree(self):
        from repro.experiments.workloads import gowalla_workload

        workload = gowalla_workload()
        hub = HubLabelOracle(workload.graph, cutoff=math.inf)
        dense = workload.oracle
        for i in range(0, workload.graph.number_of_nodes(), 11):
            assert_rows_agree(hub.row_by_index(i), dense.matrix[i])

    def test_rows_and_rows_to_match_row_by_index(self):
        g = grid_graph(4, 5)
        hub = HubLabelOracle(g, cutoff=math.inf)
        indices = [0, 7, 19]
        stacked = hub.rows(indices)
        for slot, i in enumerate(indices):
            assert np.array_equal(stacked[slot], hub.row_by_index(i))
        columns = np.array([1, 4, 18], dtype=np.intp)
        block = hub.rows_to(indices, columns)
        for slot, i in enumerate(indices):
            assert np.array_equal(
                block[slot], hub.row_by_index(i)[columns]
            )

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        edge_prob=st.floats(min_value=0.05, max_value=0.5),
    )
    def test_random_graphs_agree_everywhere(self, seed, edge_prob):
        rng = random.Random(seed)
        g = random_graph(12, edge_prob, rng)  # may be disconnected
        if rng.random() < 0.5:  # exercise exact-zero edge lengths too
            u, v = rng.sample(range(12), 2)
            if not g.has_edge(u, v):
                g.add_edge(u, v, length=0.0)
        dense = DistanceOracle(g)
        hub = HubLabelOracle(g, cutoff=math.inf)
        for i in range(12):
            assert_rows_agree(hub.row_by_index(i), dense.matrix[i])


class TestCutoffMode:
    def test_exact_below_cutoff_never_under_above(self):
        rng = random.Random(3)
        g = random_graph(14, 0.3, rng)
        dense = DistanceOracle(g)
        cutoff = 1.5
        hub = HubLabelOracle(g, cutoff=cutoff)
        for iu in range(14):
            for iv in range(14):
                true = float(dense.matrix[iu, iv])
                got = hub.distance_by_index(iu, iv)
                if true <= cutoff:
                    assert math.isclose(
                        got, true, rel_tol=REL_TOL, abs_tol=ZERO_TOL
                    )
                else:
                    # Every label entry is a real path, so a cutoff
                    # index may only over-report beyond the cutoff.
                    assert got >= true or math.isclose(
                        got, true, rel_tol=REL_TOL, abs_tol=ZERO_TOL
                    )

    def test_threshold_cutoff_covers_solver_limit(self):
        d_t = 0.37
        tol = 1e-12 + 1e-9 * d_t
        assert threshold_cutoff(d_t) >= d_t + tol

    def test_matrix_property_raises_in_cutoff_mode(self):
        # No full matrix: entries beyond the cutoff are upper bounds, so a
        # matrix reader must fail, not get them.
        g = grid_graph(3, 3)
        hub = HubLabelOracle(g, cutoff=1.0)
        with pytest.raises(AttributeError):
            hub.matrix

    def test_negative_cutoff_rejected(self):
        with pytest.raises(GraphError):
            HubLabelOracle(grid_graph(2, 2), cutoff=-1.0)


class TestBuildCount:
    def test_build_counter_counts_real_builds_only(self):
        g = path_graph([1.0, 1.0])
        before = HubLabelOracle.build_count
        hub = HubLabelOracle(g, cutoff=math.inf)
        assert HubLabelOracle.build_count == before + 1
        hub.row_by_index(0)
        hub.rows_to([0], np.array([2], dtype=np.intp))
        assert HubLabelOracle.build_count == before + 1


class TestOraclePolicy:
    def test_explicit_hub_policy(self):
        g = grid_graph(3, 3)
        oracle = resolve_oracle(g, [(0, 8)], 2.0, "hub")
        assert isinstance(oracle, HubLabelOracle)
        assert oracle.cutoff == threshold_cutoff(2.0)

    def test_instance_accepts_hub_policy(self):
        g = grid_graph(3, 3)
        inst = MSCInstance(
            g, [(0, 8)], k=1, d_threshold=2.0, oracle="hub"
        )
        assert inst.oracle_kind == "hub"

    def test_auto_picks_hub_at_scale(self):
        # A long path at the hub cutover: auto must choose the label
        # index without measuring the ball (which would dominate).
        n = HUB_ORACLE_MIN_N
        g = path_graph([1.0] * (n - 1))
        oracle = resolve_oracle(g, [(0, 4)], 2.0, "auto")
        assert isinstance(oracle, HubLabelOracle)


class TestPlacementIdentity:
    @pytest.mark.slow
    def test_three_tiers_identical_placements_n2000(self):
        """The tentpole guarantee: dense, sparse, and hub tiers produce
        the *identical* greedy placement on the scaled RG family."""
        from repro.core.evaluator import SigmaEvaluator
        from repro.core.greedy import greedy_placement
        from repro.netgen.geometric import random_geometric_network
        from repro.netgen.pairs import sample_important_pairs

        n, p_t, m, k = 2000, 0.03, 60, 5
        radius = 0.2 * math.sqrt(100 / n)
        net = random_geometric_network(
            n, radius=radius, max_link_failure=0.08, seed=1
        )
        pairs = sample_important_pairs(
            net.graph, m, p_t, seed=(1, "bench")
        )
        placements = {}
        for tier in ("dense", "sparse", "hub"):
            inst = MSCInstance(
                net.graph, pairs, k=k, p_threshold=p_t, oracle=tier
            )
            placements[tier] = greedy_placement(SigmaEvaluator(inst), k)
        assert placements["dense"] == placements["sparse"]
        assert placements["dense"] == placements["hub"]

    @pytest.mark.slow
    @pytest.mark.skipif(
        not os.environ.get("RUN_LARGE_N"),
        reason="large-n smoke runs only with RUN_LARGE_N=1 (CI job)",
    )
    def test_hub_smoke_n_10k(self):
        """fig1-family solve at n=10^4 through the auto policy: the hub
        tier must be selected and complete the solve."""
        from repro.core.evaluator import SigmaEvaluator
        from repro.core.greedy import greedy_placement
        from repro.netgen.geometric import random_geometric_network
        from repro.netgen.pairs import sample_important_pairs

        # The generator may drop a node on a position collision, so ask
        # for a margin above the cutover rather than exactly n = min-n.
        n, p_t, m, k = HUB_ORACLE_MIN_N + 500, 0.03, 60, 5
        radius = 0.2 * math.sqrt(100 / n)
        net = random_geometric_network(
            n, radius=radius, max_link_failure=0.08, seed=1
        )
        assert net.graph.number_of_nodes() >= HUB_ORACLE_MIN_N
        pairs = sample_important_pairs(
            net.graph, m, p_t, seed=(1, "bench")
        )
        inst = MSCInstance(
            net.graph, pairs, k=k, p_threshold=p_t, oracle="auto"
        )
        assert inst.oracle_kind == "hub"
        placement = greedy_placement(SigmaEvaluator(inst), k)
        assert len(placement) == k


def reference_label_arrays(graph, cutoff=None):
    """The label build as it was before the edge filter: relax every edge
    (the length test sits inside the search) and rank by a Python sort.
    The library's build must produce byte-identical index arrays."""
    import heapq

    n = graph.number_of_nodes()
    adjacency = [
        list(graph.neighbors_by_index(u).items()) for u in range(n)
    ]
    order = sorted(range(n), key=lambda u: (-len(adjacency[u]), u))
    label_hubs = [[] for _ in range(n)]
    label_dists = [[] for _ in range(n)]
    root_dist = [math.inf] * n
    for rank, root in enumerate(order):
        for h, d in zip(label_hubs[root], label_dists[root]):
            root_dist[h] = d
        dist = {root: 0.0}
        heap = [(0.0, root)]
        while heap:
            d, u = heapq.heappop(heap)
            if d > dist.get(u, math.inf):
                continue
            if cutoff is not None and d > cutoff:
                break
            if any(
                root_dist[h] + dh <= d
                for h, dh in zip(label_hubs[u], label_dists[u])
            ):
                continue
            label_hubs[u].append(rank)
            label_dists[u].append(d)
            for v, length in adjacency[u]:
                nd = d + length
                if cutoff is not None and nd > cutoff:
                    continue
                if nd < dist.get(v, math.inf):
                    dist[v] = nd
                    heapq.heappush(heap, (nd, v))
        for h in label_hubs[root]:
            root_dist[h] = math.inf
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum([len(h) for h in label_hubs], out=indptr[1:])
    return {
        "label_indptr": indptr,
        "label_hubs": np.array(
            [h for hubs in label_hubs for h in hubs], dtype=np.int64
        ),
        "label_dists": np.array(
            [d for dists in label_dists for d in dists], dtype=np.float64
        ),
    }


class TestBuildMatchesReference:
    """Dropping edges longer than the cutoff and ranking with lexsort
    leave the label buffers byte-identical. ``cutoff=None`` is the
    reference's uncut build, which the library reproduces at
    ``cutoff=inf``."""

    @staticmethod
    def assert_same_index(graph, cutoff):
        hub = HubLabelOracle(
            graph, cutoff=math.inf if cutoff is None else cutoff
        )
        expected = reference_label_arrays(graph, cutoff)
        for array, reference in (
            (hub._indptr, expected["label_indptr"]),
            (hub._hubs, expected["label_hubs"]),
            (hub._dists, expected["label_dists"]),
        ):
            assert array.dtype == reference.dtype
            assert array.tobytes() == reference.tobytes()

    @pytest.mark.parametrize("cutoff", [None, 0.0, 0.5, 1.0, 2.5])
    def test_grid_and_path(self, cutoff):
        self.assert_same_index(grid_graph(5, 4), cutoff)
        self.assert_same_index(path_graph([0.5, 1.0, 0.0, 2.0, 0.5]), cutoff)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        cutoff=st.sampled_from([None, 0.2, 0.6, 1.5]),
    )
    def test_random_graphs_with_zero_edges_and_isolated_nodes(
        self, seed, cutoff
    ):
        rng = random.Random(seed)
        g = random_graph(16, 0.3, rng)
        u, v = rng.sample(range(16), 2)
        g.add_edge(u, v, length=0.0)
        g.add_node(16)
        self.assert_same_index(g, cutoff)

    def test_rg_workload(self):
        from repro.netgen.geometric import random_geometric_network

        graph = random_geometric_network(
            400, radius=0.1, max_link_failure=0.08, seed=3
        ).graph
        self.assert_same_index(graph, threshold_cutoff(0.03))
        self.assert_same_index(graph, None)
