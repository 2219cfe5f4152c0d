"""Tests for solve_msc_cn_exact (Theorem 1-based exact MSC-CN solver)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.exact import solve_exact
from repro.core.msc_cn import solve_msc_cn, solve_msc_cn_exact
from repro.core.problem import MSCInstance
from repro.exceptions import SolverError
from tests.conftest import path_graph, star_graph


def cn_instance(k=2, d=1.5):
    g = star_graph(5, length=2.0)
    for leaf in range(1, 6):
        relay = 10 + leaf
        g.add_edge(0, relay, length=1.0)
        g.add_edge(relay, leaf, length=1.0)
    pairs = [(0, leaf) for leaf in range(1, 6)]
    return MSCInstance(g, pairs, k, d_threshold=d)


class TestExactCn:
    def test_matches_general_exact(self):
        """Theorem 1: restricting to edges incident to the common node does
        not lose optimality."""
        inst = cn_instance(k=2)
        cn_exact = solve_msc_cn_exact(inst)
        general = solve_exact(inst)
        assert cn_exact.sigma == general.sigma

    def test_at_least_greedy(self):
        inst = cn_instance(k=2)
        assert (
            solve_msc_cn_exact(inst).sigma >= solve_msc_cn(inst).sigma
        )

    def test_edges_incident_to_common(self):
        inst = cn_instance(k=2)
        result = solve_msc_cn_exact(inst)
        assert all(0 in edge for edge in result.edges)

    def test_work_limit(self):
        inst = cn_instance(k=3)
        with pytest.raises(SolverError, match="work_limit"):
            solve_msc_cn_exact(inst, work_limit=10)

    def test_no_common_node_rejected(self):
        g = path_graph([1.0] * 4)
        inst = MSCInstance(
            g, [(0, 4), (1, 3)], k=1, d_threshold=2.5,
            require_initially_unsatisfied=False,
        )
        with pytest.raises(SolverError, match="no common node"):
            solve_msc_cn_exact(inst)

    def test_base_satisfied_pairs_counted(self):
        """Pairs the base graph already satisfies count in σ and in the
        flags, as in the general exact solver."""
        g = cn_instance().graph
        g.add_edge(0, 6, length=0.5)
        g.add_edge(0, 7, length=1.0)
        inst = MSCInstance(
            g, [(0, leaf) for leaf in range(1, 8)], 1, d_threshold=1.5,
            require_initially_unsatisfied=False,
        )
        result = solve_msc_cn_exact(inst)
        assert result.satisfied[5] and result.satisfied[6]
        assert result.sigma == solve_exact(inst).sigma == 3

    def test_satisfied_flags_consistent(self):
        inst = cn_instance(k=2)
        result = solve_msc_cn_exact(inst)
        assert sum(result.satisfied) == result.sigma

    @given(seed=st.integers(0, 2_000))
    @settings(max_examples=10, deadline=None)
    def test_random_common_node_instances(self, seed):
        """CN-exact equals general exact on random common-node instances."""
        import random

        from repro.graph.distances import DistanceOracle
        from tests.conftest import random_graph

        rng = random.Random(seed)
        g = random_graph(7, 0.4, rng)
        oracle = DistanceOracle(g)
        row = oracle.row(0)
        partners = [v for v in range(1, 7) if row[v] > 1.0]
        if len(partners) < 2:
            return
        inst = MSCInstance(
            g,
            [(0, v) for v in partners],
            k=2,
            d_threshold=1.0,
            oracle=oracle,
        )
        assert (
            solve_msc_cn_exact(inst).sigma == solve_exact(inst).sigma
        )
