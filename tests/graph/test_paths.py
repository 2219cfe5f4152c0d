"""Tests for repro.graph.paths — including equivalence with networkx and
between the scipy and pure-Python APSP backends."""

import math
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError
from repro.graph.graph import WirelessGraph
from repro.graph.paths import (
    all_pairs_distance_matrix,
    dijkstra,
    shortest_path,
    shortest_path_length,
)
from tests.conftest import grid_graph, path_graph, random_graph


class TestDijkstra:
    def test_path_graph_distances(self):
        g = path_graph([1.0, 2.0, 3.0])
        dist = dijkstra(g, 0)
        assert dist == {0: 0.0, 1: 1.0, 2: 3.0, 3: 6.0}

    def test_unreachable_nodes_absent(self):
        g = WirelessGraph()
        g.add_edge(0, 1, length=1.0)
        g.add_node(2)
        assert 2 not in dijkstra(g, 0)

    def test_cutoff_prunes(self):
        g = path_graph([1.0, 1.0, 1.0])
        dist = dijkstra(g, 0, cutoff=1.5)
        assert dist == {0: 0.0, 1: 1.0}

    def test_cutoff_keeps_exact_boundary(self):
        g = path_graph([1.0, 1.0])
        dist = dijkstra(g, 0, cutoff=2.0)
        assert dist[2] == 2.0

    def test_zero_length_edges(self):
        g = WirelessGraph()
        g.add_edge(0, 1, length=0.0)
        g.add_edge(1, 2, length=1.0)
        assert dijkstra(g, 0)[2] == 1.0

    def test_takes_shorter_route(self):
        g = WirelessGraph()
        g.add_edge(0, 1, length=10.0)
        g.add_edge(0, 2, length=1.0)
        g.add_edge(2, 1, length=1.0)
        assert dijkstra(g, 0)[1] == 2.0

    def test_unknown_source_raises(self):
        g = path_graph([1.0])
        with pytest.raises(GraphError):
            dijkstra(g, 99)


class TestShortestPath:
    def test_returns_length_and_nodes(self):
        g = path_graph([1.0, 2.0])
        length, nodes = shortest_path(g, 0, 2)
        assert length == 3.0
        assert nodes == [0, 1, 2]

    def test_source_equals_target(self):
        g = path_graph([1.0])
        length, nodes = shortest_path(g, 0, 0)
        assert length == 0.0
        assert nodes == [0]

    def test_unreachable_raises(self):
        g = WirelessGraph()
        g.add_edge(0, 1, length=1.0)
        g.add_node(2)
        with pytest.raises(GraphError, match="unreachable"):
            shortest_path(g, 0, 2)

    def test_path_edges_exist_and_sum(self):
        g = grid_graph(3, 3)
        length, nodes = shortest_path(g, 0, 8)
        total = sum(
            g.length(a, b) for a, b in zip(nodes, nodes[1:])
        )
        assert total == pytest.approx(length)
        assert length == pytest.approx(shortest_path_length(g, 0, 8))


class TestAllPairs:
    def test_matches_single_source(self):
        g = grid_graph(3, 4)
        matrix = all_pairs_distance_matrix(g)
        for src in range(g.number_of_nodes()):
            dist = dijkstra(g, src)
            for dst, d in dist.items():
                assert matrix[src, g.node_index(dst)] == pytest.approx(d)

    def test_disconnected_is_inf(self):
        g = WirelessGraph()
        g.add_edge(0, 1, length=1.0)
        g.add_node(2)
        matrix = all_pairs_distance_matrix(g)
        assert math.isinf(matrix[0, 2])

    def test_symmetric_zero_diagonal(self):
        g = grid_graph(2, 3)
        matrix = all_pairs_distance_matrix(g)
        assert np.allclose(matrix, matrix.T)
        assert np.allclose(np.diag(matrix), 0.0)

    def test_scipy_and_python_backends_agree(self):
        rng = random.Random(3)
        for _ in range(5):
            g = random_graph(12, 0.3, rng)
            a = all_pairs_distance_matrix(g, use_scipy=True)
            b = all_pairs_distance_matrix(g, use_scipy=False)
            assert np.allclose(a, b, equal_nan=False)

    def test_zero_length_edges_scipy_backend(self):
        """scipy csgraph drops explicit zeros; the backend must not."""
        g = WirelessGraph()
        g.add_edge(0, 1, length=0.0)
        g.add_edge(1, 2, length=1.0)
        matrix = all_pairs_distance_matrix(g, use_scipy=True)
        assert matrix[0, 2] == pytest.approx(1.0, abs=1e-12)
        assert matrix[0, 1] == pytest.approx(0.0, abs=1e-12)

    def test_empty_graph(self):
        g = WirelessGraph()
        assert all_pairs_distance_matrix(g).shape == (0, 0)


class TestAgainstNetworkx:
    @given(
        n=st.integers(2, 14),
        edge_prob=st.floats(0.1, 0.9),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=40, deadline=None)
    def test_apsp_matches_networkx(self, n, edge_prob, seed):
        g = random_graph(n, edge_prob, random.Random(seed))
        matrix = all_pairs_distance_matrix(g)
        nxg = g.to_networkx()
        for src in range(n):
            ref = nx.single_source_dijkstra_path_length(
                nxg, src, weight="length"
            )
            for dst in range(n):
                expected = ref.get(dst, math.inf)
                got = matrix[src, dst]
                if math.isinf(expected):
                    assert math.isinf(got)
                else:
                    assert got == pytest.approx(expected)


class TestZeroLengthEdgeBackends:
    """Regression for the scipy zero-length workaround: csgraph drops
    explicit zeros from sparse matrices, so the scipy row search bumps
    them to 1e-300. Both backends must agree on graphs with exact-zero
    edges."""

    def _assert_backends_agree(self, g):
        pytest.importorskip("scipy")
        via_scipy = all_pairs_distance_matrix(g, use_scipy=True)
        via_python = all_pairs_distance_matrix(g, use_scipy=False)
        assert via_scipy.shape == via_python.shape
        finite = np.isfinite(via_python)
        assert np.array_equal(finite, np.isfinite(via_scipy))
        # The 1e-300 bump is the only permissible deviation; anything
        # visible at 1e-200 means the workaround broke.
        assert np.all(
            np.abs(via_scipy[finite] - via_python[finite]) < 1e-200
        )

    def test_exact_zero_edge_on_path(self):
        g = path_graph([1.0, 0.0, 2.0])
        self._assert_backends_agree(g)
        matrix = all_pairs_distance_matrix(g, use_scipy=False)
        assert matrix[1, 2] == 0.0
        assert matrix[0, 3] == pytest.approx(3.0)

    def test_all_zero_component(self):
        g = WirelessGraph()
        g.add_nodes(range(4))
        g.add_edge(0, 1, length=0.0)
        g.add_edge(1, 2, length=0.0)
        g.add_edge(2, 0, length=0.0)  # zero triangle, node 3 disconnected
        self._assert_backends_agree(g)
        matrix = all_pairs_distance_matrix(g, use_scipy=True)
        assert matrix[0, 2] < 1e-200
        assert math.isinf(matrix[0, 3])

    @given(
        n=st.integers(2, 12),
        zero_prob=st.floats(0.1, 0.9),
        seed=st.integers(0, 100_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_random_graphs_with_zero_edges(self, n, zero_prob, seed):
        rng = random.Random(seed)
        g = WirelessGraph()
        g.add_nodes(range(n))
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    length = (
                        0.0
                        if rng.random() < zero_prob
                        else rng.uniform(0.0, 3.0)
                    )
                    g.add_edge(i, j, length=length)
        self._assert_backends_agree(g)
