"""Placements are identical on every oracle tier, the two cutoff tiers
included: the sparse row block and the hub index search only out to
``threshold_cutoff(d_t)``, and every solver decision must resolve as it
does on the full dense matrix. Sandwich, AEA and σ-greedy run on RG
instances at n=600 and n=2000; the MSC-CN solvers on a common-node
instance at n=600 (they read rows since the cutoff tiers have no
``.matrix``). Where the ``d_t``-ball covers most of the graph, ``auto``
builds the cutoff block and places as the dense matrix does."""

import math

import pytest

from repro.core.evaluator import SigmaEvaluator
from repro.core.greedy import greedy_placement
from repro.core.problem import MSCInstance
from repro.core.registry import get_solver
from repro.failure.models import failure_to_length
from repro.graph.distances import DistanceOracle
from repro.graph.hub_labels import threshold_cutoff
from repro.graph.sparse_oracle import relevant_source_indices
from repro.netgen.geometric import random_geometric_network
from repro.netgen.pairs import (
    sample_important_pairs,
    select_common_node_pairs,
)

TIERS = ("dense", "sparse", "hub")
P_T = 0.03
#: Wide enough that the pairs' d_t-ball covers most of an n=600 graph.
WIDE_P_T = 0.10


def rg_graph(n):
    return random_geometric_network(
        n, radius=0.2 * math.sqrt(100 / n), max_link_failure=0.08, seed=n
    ).graph


def tier_instances(graph, pairs, k):
    instances = {
        tier: MSCInstance(graph, pairs, k=k, p_threshold=P_T, oracle=tier)
        for tier in TIERS
    }
    for tier, instance in instances.items():
        assert instance.oracle_kind == tier
        if tier != "dense":
            assert instance.oracle.cutoff == threshold_cutoff(
                instance.d_threshold
            )
    return instances


def outcome(result):
    return (result.edges, result.sigma, result.satisfied, result.extras)


@pytest.fixture(scope="module", params=[600, 2000])
def rg_instances(request):
    n = request.param
    graph = rg_graph(n)
    pairs = sample_important_pairs(graph, 10, P_T, seed=(n, "tiers"))
    return tier_instances(graph, pairs, k=3)


@pytest.mark.slow
class TestGeneralSolvers:
    def test_sigma_greedy(self, rg_instances):
        placements = {
            tier: greedy_placement(SigmaEvaluator(instance), instance.k)
            for tier, instance in rg_instances.items()
        }
        assert placements["sparse"] == placements["dense"]
        assert placements["hub"] == placements["dense"]
        assert placements["dense"]

    def test_sandwich(self, rg_instances):
        results = {
            tier: outcome(get_solver("sandwich")(instance))
            for tier, instance in rg_instances.items()
        }
        assert results["sparse"] == results["dense"]
        assert results["hub"] == results["dense"]

    def test_aea(self, rg_instances):
        results = {
            tier: outcome(
                get_solver("aea")(instance, seed=5, iterations=40)
            )
            for tier, instance in rg_instances.items()
        }
        assert results["sparse"] == results["dense"]
        assert results["hub"] == results["dense"]


@pytest.mark.slow
class TestCommonNodeSolvers:
    @pytest.fixture(scope="class")
    def cn_instances(self):
        graph = rg_graph(600)
        common = graph.nodes[0]
        pairs = select_common_node_pairs(
            graph, common, 12, P_T, seed=(600, "cn"),
            oracle=DistanceOracle(graph),
        )
        return tier_instances(graph, pairs, k=2)

    @pytest.mark.parametrize("name", ["msc_cn", "msc_cn_exact"])
    def test_identical_across_tiers(self, cn_instances, name):
        results = {
            tier: outcome(get_solver(name)(instance))
            for tier, instance in cn_instances.items()
        }
        assert results["sparse"] == results["dense"]
        assert results["hub"] == results["dense"]
        assert results["dense"][1] > 0  # the placement rescues pairs


@pytest.mark.slow
class TestAutoOverWideBall:
    """``auto`` used to build the dense matrix where the d_t-ball covers
    more than half the graph; it now builds the sparse policy's cutoff
    block there, and every placement stays the same."""

    @pytest.fixture(scope="class")
    def instances(self):
        graph = rg_graph(600)
        pairs = sample_important_pairs(
            graph, 60, WIDE_P_T, seed=(600, "auto")
        )
        seeds = {graph.node_index(node) for pair in pairs for node in pair}
        ball = relevant_source_indices(
            graph, seeds, failure_to_length(WIDE_P_T)
        )
        # The old fallback region: more than half the nodes are sources.
        assert ball.size > graph.number_of_nodes() / 2
        instances = {
            tier: MSCInstance(
                graph, pairs, k=5, p_threshold=WIDE_P_T, oracle=tier
            )
            for tier in ("dense", "auto")
        }
        assert instances["auto"].oracle_kind == "sparse"
        return instances

    def test_sigma_greedy(self, instances):
        placements = {
            tier: greedy_placement(SigmaEvaluator(instance), instance.k)
            for tier, instance in instances.items()
        }
        assert placements["auto"] == placements["dense"]
        assert placements["dense"]

    def test_sandwich(self, instances):
        results = {
            tier: outcome(get_solver("sandwich")(instance))
            for tier, instance in instances.items()
        }
        assert results["auto"] == results["dense"]
