"""Tests for repro.graph.sparse_oracle — the SparseRowOracle must agree
*exactly* with the dense DistanceOracle on every query it serves, because
the greedy/evaluator hot paths treat the two tiers as interchangeable."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.problem import (
    MSCInstance,
    SPARSE_ORACLE_MIN_N,
    resolve_oracle,
)
from repro.core.substrate import PlacementRequest, Substrate
from repro.exceptions import GraphError, InstanceError
from repro.graph.distances import DistanceOracle
from repro.graph.graph import WirelessGraph
from repro.graph.hub_labels import threshold_cutoff
from repro.graph.paths import all_pairs_distance_matrix
from repro.graph.sparse_oracle import (
    SparseRowOracle,
    relevant_source_indices,
)
from tests.conftest import grid_graph, path_graph, random_graph


class TestAgreementWithDense:
    def test_block_rows_match_dense_matrix(self):
        g = grid_graph(4, 4)
        dense = DistanceOracle(g)
        sparse = SparseRowOracle(g, [0, 5, 15], radius=2.0, cutoff=math.inf)
        for src in sparse.source_indices:
            assert np.array_equal(
                sparse.row_by_index(int(src)), dense.matrix[int(src)]
            )

    def test_straggler_rows_match_dense_matrix(self):
        g = grid_graph(4, 4)
        dense = DistanceOracle(g)
        sparse = SparseRowOracle(g, [0], radius=1.0, cutoff=math.inf)
        outside = [
            i
            for i in range(g.number_of_nodes())
            if i not in set(int(s) for s in sparse.source_indices)
        ]
        assert outside, "need at least one row outside the block"
        for src in outside:
            assert np.array_equal(
                sparse.row_by_index(src), dense.matrix[src]
            )

    def test_unreachable_distances_are_inf_like_dense(self):
        g = WirelessGraph()
        g.add_edge(0, 1, length=1.0)
        g.add_edge(2, 3, length=1.0)  # separate component
        dense = DistanceOracle(g)
        sparse = SparseRowOracle(g, [0], radius=5.0, cutoff=math.inf)
        assert math.isinf(sparse.distance_by_index(0, 2))
        assert np.array_equal(sparse.row_by_index(0), dense.matrix[0])
        # A straggler row from the other component agrees too.
        assert np.array_equal(sparse.row_by_index(2), dense.matrix[2])

    def test_zero_length_edges_agree(self):
        g = WirelessGraph()
        g.add_edge(0, 1, length=0.0)
        g.add_edge(1, 2, length=1.0)
        g.add_edge(2, 3, length=0.0)
        dense = DistanceOracle(g)
        sparse = SparseRowOracle(g, [0], radius=0.5, cutoff=math.inf)
        for i in range(4):
            assert np.array_equal(sparse.row_by_index(i), dense.matrix[i])

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        edge_prob=st.floats(min_value=0.05, max_value=0.5),
        radius=st.floats(min_value=0.0, max_value=3.0),
    )
    def test_random_graphs_agree_everywhere(
        self, seed, edge_prob, radius
    ):
        rng = random.Random(seed)
        g = random_graph(12, edge_prob, rng)  # may be disconnected
        if rng.random() < 0.5:  # exercise exact-zero edge lengths too
            u, v = rng.sample(range(12), 2)
            if not g.has_edge(u, v):
                g.add_edge(u, v, length=0.0)
        seeds = rng.sample(range(12), 3)
        dense = DistanceOracle(g)
        sparse = SparseRowOracle(g, seeds, radius=radius, cutoff=math.inf)
        for i in range(12):
            assert np.array_equal(sparse.row_by_index(i), dense.matrix[i])
        for _ in range(10):
            iu, iv = rng.randrange(12), rng.randrange(12)
            d_sparse = sparse.distance_by_index(iu, iv)
            d_dense = float(dense.matrix[iu, iv])
            if math.isinf(d_dense):
                assert math.isinf(d_sparse)
            else:
                # distance_by_index may serve the symmetric query from
                # the other endpoint's row — a different Dijkstra
                # summation order, so allow ULP-level noise (rows from
                # the same source are compared bit-exactly above).
                assert math.isclose(
                    d_sparse, d_dense, rel_tol=1e-9, abs_tol=0.0
                )

    def test_backends_agree(self):
        g = grid_graph(3, 4)
        a = SparseRowOracle(
            g, [0, 11], radius=2.0, use_scipy=False, cutoff=math.inf
        )
        b = SparseRowOracle(
            g, [0, 11], radius=2.0, use_scipy=True, cutoff=math.inf
        )
        assert np.array_equal(a.block, b.block)


class TestBlockAndLaziness:
    def test_sources_cover_seeds_and_ball(self):
        g = path_graph([1.0, 1.0, 1.0, 1.0])
        sources = relevant_source_indices(g, [0], 2.0)
        assert list(sources) == [0, 1, 2]

    def test_lazy_fill_counted_once(self):
        g = path_graph([1.0, 1.0, 1.0])
        sparse = SparseRowOracle(g, [0], radius=0.5, cutoff=math.inf)
        assert sparse.lazy_fills == 0
        sparse.row_by_index(3)
        assert sparse.lazy_fills == 1
        sparse.row_by_index(3)  # cached now
        assert sparse.lazy_fills == 1

    def test_block_rows_are_not_lazy_fills(self):
        g = path_graph([1.0, 1.0])
        sparse = SparseRowOracle(g, [0, 1, 2], radius=0.0, cutoff=math.inf)
        sparse.rows([0, 1, 2])
        assert sparse.lazy_fills == 0

    def test_build_counter_counts_real_builds_only(self):
        g = path_graph([1.0, 1.0, 1.0])
        before = SparseRowOracle.build_count
        sparse = SparseRowOracle(g, [0], radius=0.5, cutoff=math.inf)
        assert SparseRowOracle.build_count == before  # built on demand
        sparse.block  # first access builds
        sparse.block  # cached
        sparse.row_by_index(3)  # straggler -> lazy fill, not a build
        assert SparseRowOracle.build_count == before + 1
        assert sparse.lazy_fills == 1

    def test_out_of_range_sources_rejected(self):
        g = path_graph([1.0])
        for radius in (0.0, 1.0):
            with pytest.raises(GraphError, match="out of range"):
                SparseRowOracle(g, [5], radius=radius, cutoff=1.0)
            with pytest.raises(GraphError, match="out of range"):
                SparseRowOracle(g, [-1], radius=radius, cutoff=1.0)

    def test_block_nbytes_counts_block_only(self):
        g = path_graph([1.0, 1.0, 1.0])
        sparse = SparseRowOracle(g, [0], radius=1.0, cutoff=math.inf)
        assert sparse.block_nbytes() == sparse.source_indices.size * 4 * 8


class TestOraclePolicy:
    def test_auto_picks_dense_below_min_n(self):
        g = grid_graph(3, 3)
        oracle = resolve_oracle(g, [(0, 8)], 2.0, "auto")
        assert isinstance(oracle, DistanceOracle)

    def test_explicit_sparse_on_small_graph(self):
        g = grid_graph(3, 3)
        oracle = resolve_oracle(g, [(0, 8)], 2.0, "sparse")
        assert isinstance(oracle, SparseRowOracle)

    def test_auto_picks_sparse_on_large_sparse_ball(self):
        # A long path: n >= SPARSE_ORACLE_MIN_N but the d_t-ball around
        # the single pair stays tiny, so auto should choose the row block.
        n = SPARSE_ORACLE_MIN_N + 1
        g = path_graph([1.0] * (n - 1))
        oracle = resolve_oracle(g, [(0, 4)], 2.0, "auto")
        assert isinstance(oracle, SparseRowOracle)

    def test_auto_builds_cutoff_block_over_wide_ball(self):
        n = SPARSE_ORACLE_MIN_N + 1
        g = path_graph([1.0] * (n - 1))
        # A radius spanning the whole path puts every node in the ball;
        # auto still builds what the sparse policy builds.
        pairs, d_t = [(0, n - 1)], float(n)
        auto = resolve_oracle(g, pairs, d_t, "auto")
        explicit = resolve_oracle(g, pairs, d_t, "sparse")
        assert isinstance(auto, SparseRowOracle)
        assert auto.source_indices.size == n
        assert auto.cutoff == threshold_cutoff(d_t)
        assert Substrate(g, auto) == Substrate(g, explicit)

    def test_unknown_policy_rejected(self):
        g = grid_graph(2, 2)
        with pytest.raises(InstanceError):
            resolve_oracle(g, [(0, 3)], 1.0, "fancy")

    def test_instance_accepts_policy_string(self):
        g = grid_graph(3, 3)
        inst = MSCInstance(
            g, [(0, 8)], k=1, d_threshold=2.0, oracle="sparse"
        )
        assert inst.oracle_kind == "sparse"
        dense_inst = MSCInstance(g, [(0, 8)], k=1, d_threshold=2.0)
        assert dense_inst.oracle_kind == "dense"

    def test_sigma_identical_across_tiers(self):
        # The end-to-end guarantee: same instance, same sigma, same
        # greedy placement whichever tier serves the distances.
        from repro.core.evaluator import SigmaEvaluator
        from repro.core.greedy import greedy_placement

        rng = random.Random(7)
        g = random_graph(16, 0.25, rng)
        pairs = [(0, 15), (3, 12), (1, 9)]
        placements = {}
        for tier in ("dense", "sparse"):
            inst = MSCInstance(
                g,
                pairs,
                k=2,
                d_threshold=1.5,
                oracle=tier,
                require_initially_unsatisfied=False,
            )
            placements[tier] = greedy_placement(
                SigmaEvaluator(inst), inst.k
            )
        assert placements["dense"] == placements["sparse"]


def assert_cutoff_row(row, full_row, cutoff):
    """A cutoff row equals the full row wherever the full row is within
    the cutoff (bit for bit) and reads inf everywhere else."""
    within = full_row <= cutoff
    assert np.array_equal(row[within], full_row[within])
    assert np.all(np.isinf(row[~within]))


def zero_edge_graph_with_isolated_node(seed):
    """A random graph with an exact-zero edge and an isolated node."""
    rng = random.Random(seed)
    g = random_graph(14, 0.25, rng)
    u, v = rng.sample(range(14), 2)
    g.add_edge(u, v, length=0.0)
    g.add_node(14)
    return g


class TestCutoffMode:
    @pytest.mark.parametrize("use_scipy", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_rows_exact_within_cutoff_inf_beyond(self, use_scipy, seed):
        g = zero_edge_graph_with_isolated_node(seed)
        full = all_pairs_distance_matrix(g, use_scipy=use_scipy)
        cutoff = [0.4, 0.9, 1.7][seed % 3]
        seeds = random.Random(seed).sample(range(15), 2)
        sparse = SparseRowOracle(
            g, seeds, radius=cutoff / 2, cutoff=cutoff, use_scipy=use_scipy
        )
        inside = {int(s) for s in sparse.source_indices}
        assert len(inside) < 15, "need straggler rows too"
        for i in range(15):  # block rows and straggler rows
            assert_cutoff_row(sparse.row_by_index(i), full[i], cutoff)
        assert sparse.lazy_fills == 15 - len(inside)
        rows = sparse.rows(range(15))
        columns = [0, 7, 14]
        assert np.array_equal(
            sparse.rows_to(range(15), columns), rows[:, columns]
        )

    @pytest.mark.parametrize("use_scipy", [False, True])
    def test_distance_exactly_at_cutoff_is_kept(self, use_scipy):
        g = path_graph([0.5, 0.5, 0.5])
        sparse = SparseRowOracle(
            g, [0], radius=0.5, cutoff=1.0, use_scipy=use_scipy
        )
        assert list(sparse.source_indices) == [0, 1]  # row 3 straggles
        assert list(sparse.row_by_index(0)) == [0.0, 0.5, 1.0, math.inf]
        assert list(sparse.row_by_index(3)) == [math.inf, 1.0, 0.5, 0.0]

    @pytest.mark.parametrize("use_scipy", [False, True])
    def test_zero_length_edges_and_disconnected_nodes(self, use_scipy):
        g = WirelessGraph()
        g.add_edge(0, 1, length=0.0)
        g.add_edge(1, 2, length=0.3)
        g.add_edge(2, 3, length=0.0)
        g.add_edge(4, 5, length=0.1)  # separate component
        full = all_pairs_distance_matrix(g, use_scipy=use_scipy)
        sparse = SparseRowOracle(
            g, [0], radius=0.0, cutoff=0.3, use_scipy=use_scipy
        )
        # The zero-length edge pulls node 1 into the ball; 2..5 straggle.
        assert list(sparse.source_indices) == [0, 1]
        for i in range(6):
            assert_cutoff_row(sparse.row_by_index(i), full[i], 0.3)
        assert math.isinf(sparse.distance_by_index(0, 4))

    def test_matrix_raises_with_cutoff(self):
        # No full matrix: a cutoff block's entries beyond the cutoff are
        # upper bounds, so a matrix reader must fail, not get them.
        sparse = SparseRowOracle(
            grid_graph(3, 3), [0], radius=1.0, cutoff=1.0
        )
        with pytest.raises(AttributeError):
            sparse.matrix

    def test_negative_cutoff_rejected(self):
        with pytest.raises(GraphError):
            SparseRowOracle(grid_graph(2, 2), [0], radius=1.0, cutoff=-1.0)

    def test_policies_build_threshold_cutoff_blocks(self):
        g = grid_graph(3, 3)
        explicit = resolve_oracle(g, [(0, 8)], 2.0, "sparse")
        assert explicit.cutoff == threshold_cutoff(2.0)
        n = SPARSE_ORACLE_MIN_N + 1
        path = path_graph([1.0] * (n - 1))
        auto = resolve_oracle(path, [(0, 4)], 2.0, "auto")
        assert isinstance(auto, SparseRowOracle)
        assert auto.cutoff == threshold_cutoff(2.0)

    def test_request_beyond_cutoff_rejected(self):
        g = path_graph([1.0] * 6)
        substrate = Substrate.build(
            g, oracle="sparse", d_threshold=2.0, pair_indices=[(0, 6)]
        )
        substrate.instance(PlacementRequest([(0, 6)], 1, d_threshold=2.0))
        substrate.instance(PlacementRequest([(0, 6)], 1, d_threshold=1.5))
        with pytest.raises(InstanceError, match="cutoff"):
            substrate.instance(
                PlacementRequest([(0, 6)], 1, d_threshold=2.5)
            )
        with pytest.raises(InstanceError, match="cutoff"):
            MSCInstance(g, [(0, 6)], 1, d_threshold=2.5, oracle=substrate)

    @pytest.mark.parametrize("policy", ["sparse", "hub"])
    def test_cutoff_substrate_needs_a_threshold(self, policy):
        g = path_graph([1.0] * 6)
        with pytest.raises(InstanceError, match="threshold"):
            Substrate.build(g, oracle=policy, pair_indices=[(0, 6)])
        substrate = Substrate.build(
            g, oracle=policy, d_threshold=2.0, pair_indices=[(0, 6)]
        )
        instance = substrate.instance(
            PlacementRequest([(0, 6)], 1, d_threshold=2.0)
        )
        assert instance.oracle_kind == policy

    def test_dense_substrates_need_no_threshold(self):
        g = path_graph([1.0] * 6)
        for policy in ("dense", "auto", None):
            substrate = Substrate.build(
                g, oracle=policy, pair_indices=[(0, 6)]
            )
            assert substrate.oracle_kind == "dense"
        n = SPARSE_ORACLE_MIN_N + 1
        path = path_graph([1.0] * (n - 1))
        assert Substrate.build(path, oracle="auto").oracle_kind == "dense"
        with pytest.raises(InstanceError, match="threshold"):
            Substrate.build(path, oracle="auto", pair_indices=[(0, 4)])

    def test_fingerprint_depends_on_cutoff(self):
        g = grid_graph(3, 3)

        def fingerprint(cutoff):
            oracle = SparseRowOracle(g, [0, 8], radius=1.0, cutoff=cutoff)
            return Substrate(g, oracle).fingerprint

        assert fingerprint(1.5) == fingerprint(1.5)
        cutoffs = (math.inf, 1.5, 2.5)
        assert len({fingerprint(c) for c in cutoffs}) == 3
