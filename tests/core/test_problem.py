"""Tests for repro.core.problem (MSCInstance)."""

import math

import pytest

from repro.core.problem import MSCInstance
from repro.exceptions import InstanceError
from repro.graph.distances import DistanceOracle
from tests.conftest import path_graph, star_graph


class TestConstruction:
    def test_threshold_conversion(self):
        g = path_graph([1.0] * 3)
        inst = MSCInstance(g, [(0, 3)], k=1, p_threshold=0.5)
        assert inst.d_threshold == pytest.approx(math.log(2))
        assert inst.p_threshold == pytest.approx(0.5)

    def test_d_threshold_direct(self):
        g = path_graph([1.0] * 3)
        inst = MSCInstance(g, [(0, 3)], k=1, d_threshold=1.5)
        assert inst.p_threshold == pytest.approx(1 - math.exp(-1.5))

    def test_both_thresholds_rejected(self):
        g = path_graph([1.0])
        with pytest.raises(InstanceError, match="exactly one"):
            MSCInstance(
                g, [(0, 1)], k=1, p_threshold=0.5, d_threshold=1.0
            )

    def test_neither_threshold_rejected(self):
        g = path_graph([1.0])
        with pytest.raises(InstanceError, match="exactly one"):
            MSCInstance(g, [(0, 1)], k=1)

    def test_self_pair_rejected(self):
        g = path_graph([1.0])
        with pytest.raises(InstanceError, match="self-pair"):
            MSCInstance(g, [(0, 0)], k=1, d_threshold=0.5)

    def test_unknown_node_rejected(self):
        g = path_graph([1.0])
        with pytest.raises(InstanceError, match="unknown node"):
            MSCInstance(g, [(0, 9)], k=1, d_threshold=0.5)

    def test_empty_pairs_rejected(self):
        g = path_graph([1.0])
        with pytest.raises(InstanceError, match="at least one"):
            MSCInstance(g, [], k=1, d_threshold=0.5)

    def test_invalid_budget_rejected(self):
        g = path_graph([1.0, 1.0])
        with pytest.raises(Exception):
            MSCInstance(g, [(0, 2)], k=0, d_threshold=1.5)

    def test_initially_satisfied_pair_rejected_by_default(self):
        g = path_graph([1.0, 1.0])
        with pytest.raises(InstanceError, match="already meets"):
            MSCInstance(g, [(0, 1)], k=1, d_threshold=1.5)

    def test_initially_satisfied_pair_allowed_when_opted_in(self):
        g = path_graph([1.0, 1.0])
        inst = MSCInstance(
            g,
            [(0, 1)],
            k=1,
            d_threshold=1.5,
            require_initially_unsatisfied=False,
        )
        assert inst.m == 1

    def test_duplicate_pairs_counted_separately(self):
        g = path_graph([1.0, 1.0])
        inst = MSCInstance(g, [(0, 2), (0, 2)], k=1, d_threshold=1.5)
        assert inst.m == 2

    def test_foreign_oracle_rejected(self):
        g = path_graph([1.0, 1.0])
        other = path_graph([1.0])
        with pytest.raises(InstanceError, match="different graph"):
            MSCInstance(
                g,
                [(0, 2)],
                k=1,
                d_threshold=1.5,
                oracle=DistanceOracle(other),
            )

    def test_shared_oracle_reused(self):
        g = path_graph([1.0, 1.0])
        oracle = DistanceOracle(g)
        inst = MSCInstance(g, [(0, 2)], k=1, d_threshold=1.5, oracle=oracle)
        assert inst.oracle is oracle


class TestAccessors:
    def test_m_and_n(self):
        g = path_graph([1.0] * 4)
        inst = MSCInstance(g, [(0, 4), (1, 4)], k=1, d_threshold=2.5)
        assert inst.m == 2
        assert inst.n == 5

    def test_pair_indices_normalized(self):
        g = path_graph([1.0] * 4)
        inst = MSCInstance(g, [(4, 0)], k=1, d_threshold=2.5)
        assert inst.pair_indices == [(0, 4)]

    def test_pair_nodes_deduplicated_in_order(self):
        g = path_graph([1.0] * 4)
        inst = MSCInstance(
            g, [(0, 4), (0, 3)], k=1, d_threshold=2.5
        )
        assert inst.pair_nodes() == [0, 4, 3]

    def test_index_pair_to_nodes(self):
        g = path_graph([1.0] * 4)
        inst = MSCInstance(g, [(0, 4)], k=1, d_threshold=2.5)
        assert inst.index_pair_to_nodes((0, 4)) == (0, 4)
        assert inst.edges_to_nodes([(0, 4)]) == [(0, 4)]

    def test_describe(self):
        g = path_graph([1.0] * 4)
        inst = MSCInstance(g, [(0, 4)], k=2, d_threshold=2.5)
        text = inst.describe()
        assert "m=1" in text and "k=2" in text


class TestCommonNode:
    def test_detects_common_node(self):
        g = star_graph(4, length=1.0)
        inst = MSCInstance(
            g, [(1, 0), (0, 2), (0, 3)], k=1, d_threshold=0.5,
            require_initially_unsatisfied=False,
        )
        assert inst.common_node() == 0

    def test_no_common_node(self):
        g = path_graph([1.0] * 4)
        inst = MSCInstance(
            g, [(0, 4), (1, 3)], k=1, d_threshold=2.5,
            require_initially_unsatisfied=False,
        )
        assert inst.common_node() is None

    def test_single_pair_returns_first_endpoint(self):
        g = path_graph([1.0] * 3)
        inst = MSCInstance(g, [(0, 3)], k=1, d_threshold=2.5)
        assert inst.common_node() == 0


class TestHubThresholdGuard:
    """A cutoff hub-label index is exact only up to its cutoff; beyond it
    labels may over-report distances and σ undercounts without error. A
    request whose threshold the cutoff does not cover must be refused."""

    P_T = 0.3

    @pytest.fixture(scope="class")
    def rg300(self):
        from repro.core.substrate import PlacementRequest
        from repro.experiments.workloads import rg_workload
        from repro.netgen.pairs import select_important_pairs

        workload = rg_workload(seed=1, n=300)
        pairs = select_important_pairs(
            workload.graph, 20, self.P_T, seed=1, oracle=workload.oracle
        )
        return workload, PlacementRequest(pairs, 3, p_threshold=self.P_T)

    @staticmethod
    def _hub(graph, d_threshold):
        from repro.core.substrate import Substrate
        from repro.graph.hub_labels import HubLabelOracle, threshold_cutoff

        return Substrate(
            graph, HubLabelOracle(graph, cutoff=threshold_cutoff(d_threshold))
        )

    def test_lower_cutoff_rejected_by_from_parts_and_constructor(self, rg300):
        from repro.failure.models import failure_to_length

        workload, request = rg300
        hub = self._hub(workload.graph, failure_to_length(0.03))
        with pytest.raises(InstanceError, match="cutoff"):
            MSCInstance.from_parts(hub, request)
        with pytest.raises(InstanceError, match="cutoff"):
            MSCInstance(
                workload.graph, request.pairs, request.k,
                p_threshold=self.P_T, oracle=hub.oracle,
            )
        with pytest.raises(InstanceError, match="cutoff"):
            MSCInstance(
                workload.graph, request.pairs, request.k,
                p_threshold=self.P_T, oracle=hub,
            )

    def test_cutoff_from_the_requests_own_threshold_passes(self, rg300):
        from repro.core.evaluator import SigmaEvaluator
        from repro.core.greedy import greedy_placement

        workload, request = rg300
        hub = self._hub(workload.graph, request.d_threshold)
        sigmas = []
        for substrate in (hub, workload.substrate()):
            evaluator = SigmaEvaluator(
                MSCInstance.from_parts(substrate, request)
            )
            sigmas.append(
                evaluator.value(greedy_placement(evaluator, request.k))
            )
        assert sigmas[0] == sigmas[1]

    def test_boundary_is_the_satisfaction_limit(self):
        from repro.failure.models import satisfaction_limit
        from repro.graph.hub_labels import HubLabelOracle

        g = path_graph([1.0] * 4)
        d_t = 2.5
        # A cutoff at d_t itself misses the rounding tolerance above it.
        below = HubLabelOracle(g, cutoff=d_t)
        with pytest.raises(InstanceError, match="cutoff"):
            MSCInstance(g, [(0, 4)], k=1, d_threshold=d_t, oracle=below)
        at = HubLabelOracle(g, cutoff=satisfaction_limit(d_t))
        inst = MSCInstance(g, [(0, 4)], k=1, d_threshold=d_t, oracle=at)
        assert inst.oracle_kind == "hub"

    def test_full_hub_index_serves_any_threshold(self):
        from repro.graph.hub_labels import HubLabelOracle

        g = path_graph([1.0] * 4)
        full = HubLabelOracle(g, cutoff=math.inf)
        inst = MSCInstance(g, [(0, 4)], k=1, d_threshold=3.5, oracle=full)
        assert inst.oracle_kind == "hub"
