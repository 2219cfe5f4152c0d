"""Every satisfaction check compares against one limit,
:func:`repro.failure.models.satisfaction_limit`, so a pair whose path is
exactly ``d_t`` long counts as satisfied everywhere — even when the float
sum of its edge lengths lands one rounding step above ``d_t``."""

import math

import pytest

from repro.core.bounds import MuFunction, NuFunction
from repro.core.evaluator import SigmaEvaluator
from repro.core.msc_cn import solve_msc_cn
from repro.core.problem import MSCInstance
from repro.exceptions import InstanceError
from repro.failure.models import failure_to_length, satisfaction_limit
from repro.graph.graph import WirelessGraph
from repro.graph.hub_labels import threshold_cutoff
from repro.graph.shortcuts import ShortcutDistanceEngine
from repro.netgen.pairs import eligible_pairs
from tests.conftest import path_graph

#: 0.1 + 0.2 == 0.30000000000000004 in floating point.
D_T = 0.3


@pytest.fixture
def boundary_instance():
    """Path 0 -5- 1 -0.1- 2 -0.2- 3. Pair (1, 3) is exactly d_t apart in
    the base graph; pair (0, 3) is exactly d_t apart once shortcut (0, 1)
    is placed. Both pairs share node 3, so MSC-CN applies too."""
    graph = path_graph([5.0, 0.1, 0.2])
    assert 0.1 + 0.2 > D_T
    return MSCInstance(
        graph,
        [(1, 3), (0, 3)],
        k=1,
        d_threshold=D_T,
        require_initially_unsatisfied=False,
    )


BOUNDARY_VALUES = {
    "sigma": (lambda inst: SigmaEvaluator(inst).value([(0, 1)]), 2),
    "sigma_scan": (
        lambda inst: SigmaEvaluator(inst).add_candidates([])[0, 1],
        2,
    ),
    "mu": (lambda inst: MuFunction(inst).value([(0, 1)]), 2),
    # Pair nodes 0 and 1 weigh 0.5, node 3 weighs 1.0, plus the one
    # base-satisfied pair.
    "nu": (lambda inst: NuFunction(inst).value([(0, 1)]), 3.0),
    "msc_cn": (lambda inst: solve_msc_cn(inst).sigma, 2),
    "engine": (
        lambda inst: sum(
            ShortcutDistanceEngine(inst.oracle, [(0, 1)]).satisfied_pairs(
                inst.pairs, D_T
            )
        ),
        2,
    ),
}


@pytest.mark.parametrize("name", sorted(BOUNDARY_VALUES))
def test_pair_at_exactly_d_t_is_satisfied(boundary_instance, name):
    evaluate, expected = BOUNDARY_VALUES[name]
    assert evaluate(boundary_instance) == expected


@pytest.mark.parametrize("d_t", [0.0, D_T, 1.0, 1e3])
def test_hub_cutoff_covers_the_limit(d_t):
    assert threshold_cutoff(d_t) >= satisfaction_limit(d_t)


def test_pair_inside_the_tolerance_is_not_initially_unsatisfied():
    # 1.0 is above d_t but within its satisfaction limit: σ counts the
    # pair satisfied before any shortcut, so the request must refuse it.
    with pytest.raises(InstanceError, match="already meets"):
        MSCInstance(
            path_graph([1.0]), [(0, 1)], k=1, d_threshold=1.0 - 1e-10
        )


@pytest.mark.parametrize("oracle", ["dense", "sparse", "hub"])
def test_initially_unsatisfied_pairs_start_unsatisfied_in_sigma(oracle):
    """Star whose pairs (0, leaf) sit at d_t, inside the tolerance band
    above it, one float step past the limit, and at 2·d_t."""
    p_t = 0.5
    d_t = failure_to_length(p_t)
    limit = satisfaction_limit(d_t)
    graph = WirelessGraph()
    lengths = [
        d_t, (d_t + limit) / 2, math.nextafter(limit, math.inf), 2 * d_t,
    ]
    for leaf, length in enumerate(lengths, start=1):
        graph.add_edge(0, leaf, length=length)
    pairs = eligible_pairs(graph, p_t)
    assert (0, 2) not in pairs and (0, 3) in pairs
    instance = MSCInstance(graph, pairs, k=1, p_threshold=p_t, oracle=oracle)
    assert instance.oracle_kind == oracle
    assert SigmaEvaluator(instance).base_sigma == 0
    with pytest.raises(InstanceError, match="already meets"):
        MSCInstance(graph, [(0, 2)], k=1, p_threshold=p_t, oracle=oracle)
