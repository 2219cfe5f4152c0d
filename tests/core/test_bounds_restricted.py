"""The ball-restricted scans of μ, ν and their weighted forms against the
dense reference scans (``tests/core/reference_bounds.py``) on every oracle
tier: the block equals the dense array at ``np.ix_(universe, universe)``,
``add_candidates`` equals it cell for cell, and greedy places the same
edges."""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import MuFunction, NuFunction
from repro.core.evaluator import base_ball
from repro.core.greedy import greedy_placement
from repro.core.lazy_greedy import lazy_greedy_placement
from repro.core.problem import MSCInstance
from repro.core.weighted import (
    WeightedMuFunction,
    WeightedNuFunction,
    WeightedSigmaEvaluator,
)
from repro.failure.models import satisfaction_limit
from repro.graph.distances import DistanceOracle
from repro.graph.graph import WirelessGraph
from tests.conftest import random_graph
from tests.core.reference_bounds import DenseMu, DenseNu

TIERS = ("dense", "sparse", "hub")


class DenseOnly:
    """A set function with its restricted scan hidden: greedy runs the
    full ``(n, n)`` scan."""

    def __init__(self, fn):
        self._fn = fn

    @property
    def n(self):
        return self._fn.n

    def value(self, edges):
        return self._fn.value(edges)

    def value_many(self, placements):
        return self._fn.value_many(placements)

    def add_candidates(self, edges):
        return self._fn.add_candidates(edges)


def build_case(seed):
    """``(graph, pairs, d_t, degenerate, placed, weights)`` for one seed.

    The graph has zero-length edges, ``d_t`` is an exact base distance
    (so some pair or candidate sits exactly at the requirement), and half
    the cases admit base-satisfied pairs, one of them exactly at ``d_t``.
    *placed* draws from every node, so its endpoints may lie outside the
    ball; it is empty for a quarter of the seeds. Weights include zeros.
    """
    rng = random.Random(seed)
    n = rng.randrange(6, 36)
    graph = random_graph(n, rng.uniform(0.08, 0.3), rng)
    for _ in range(rng.randrange(1, 4)):
        a, b = rng.sample(range(n), 2)
        graph.add_edge(a, b, length=0.0)
    matrix = DistanceOracle(graph).matrix
    cells = [(i, j) for i in range(n) for j in range(i + 1, n)]
    # The dense tier stores zero lengths as 1e-300, so a requirement that
    # small would compare rounding artefacts between tiers.
    distances = {float(matrix[i, j]) for i, j in cells}
    finite = sorted(d for d in distances if 1e-6 < d < math.inf)
    if not finite:
        return None
    d_t = finite[rng.randrange(max(1, len(finite) // 3))]
    far = [
        (i, j) for i, j in cells if matrix[i, j] > satisfaction_limit(d_t)
    ]
    if not far:
        return None
    pairs = rng.sample(far, min(len(far), rng.randrange(1, 7)))
    degenerate = rng.random() < 0.5
    if degenerate:
        near = [(i, j) for i, j in cells if matrix[i, j] <= d_t]
        exact = [(i, j) for i, j in near if matrix[i, j] == d_t]
        pairs += rng.sample(near, min(len(near), 2)) + exact[:1]
    placed = []
    if rng.random() < 0.75:
        placed = sorted(
            {tuple(sorted(rng.sample(range(n), 2)))
             for _ in range(rng.randrange(1, 4))}
        )
    weights = [rng.choice([0.0, rng.uniform(0.0, 3.0)]) for _ in pairs]
    return graph, pairs, d_t, degenerate, placed, weights


def tier_instance(graph, pairs, d_t, degenerate, tier, k):
    return MSCInstance(
        graph, pairs, k=k, d_threshold=d_t, oracle=tier,
        require_initially_unsatisfied=not degenerate,
    )


def assert_matches(fn, reference, placed, k):
    dense = reference.add_candidates(placed)
    restricted = getattr(fn, "add_candidates_restricted", None)
    if restricted is not None:
        block, universe = restricted(placed)
        assert np.all(np.diff(universe) > 0)
        assert block.dtype == dense.dtype
        assert np.array_equal(block, dense[np.ix_(universe, universe)])
    full = fn.add_candidates(placed)
    assert full.dtype == dense.dtype
    assert np.array_equal(full, dense)
    assert greedy_placement(fn, k, existing=placed) == greedy_placement(
        reference, k, existing=placed
    )


@pytest.mark.parametrize("tier", TIERS)
@given(seed=st.integers(0, 100_000))
@settings(max_examples=30, deadline=None)
def test_bounds_match_dense_reference(tier, seed):
    case = build_case(seed)
    if case is None:
        return
    graph, pairs, d_t, degenerate, placed, weights = case
    k = len(placed) + 3
    instance = tier_instance(graph, pairs, d_t, degenerate, tier, k)
    assert_matches(MuFunction(instance), DenseMu(instance), placed, k)
    assert_matches(NuFunction(instance), DenseNu(instance), placed, k)
    assert_matches(
        WeightedMuFunction(instance, weights),
        DenseMu(instance, weights),
        placed,
        k,
    )
    assert_matches(
        WeightedNuFunction(instance, weights),
        DenseNu(instance, weights),
        placed,
        k,
    )


@pytest.mark.parametrize("tier", TIERS)
@given(seed=st.integers(0, 100_000))
@settings(max_examples=20, deadline=None)
def test_weighted_sigma_block_matches_dense(tier, seed):
    case = build_case(seed)
    if case is None:
        return
    graph, pairs, d_t, degenerate, placed, weights = case
    k = len(placed) + 3
    instance = tier_instance(graph, pairs, d_t, degenerate, tier, k)
    sigma = WeightedSigmaEvaluator(instance, weights)
    block, universe = sigma.add_candidates_restricted(placed)
    full = sigma.add_candidates(placed)
    assert np.array_equal(block, full[np.ix_(universe, universe)])
    n = instance.n
    cells = [(a, b) for a in range(n) for b in range(a + 1, n)]
    values = sigma.value_many([placed + [cell] for cell in cells])
    for (a, b), value in zip(cells, values):
        assert full[a, b] == pytest.approx(value, abs=1e-9)
    assert greedy_placement(sigma, k, existing=placed) == greedy_placement(
        DenseOnly(sigma), k, existing=placed
    )


class TestNuOutsidePick:
    """ν's first maximum at a node outside the pair ball: once every pair
    node but one is covered, the cell pairing the one node that covers it
    with any zero-cover node gains as much as any other."""

    @pytest.fixture
    def instance(self):
        # Nodes 0-3 hang far off node 4; pairs (4, 7) and (5, 9) sit on a
        # unit path 4-...-9, so the d_t=0.5 ball is {4, 5, 7, 9} and the
        # smallest nodes 0-3 are all outside it.
        graph = WirelessGraph()
        graph.add_nodes(range(10))
        for leaf in range(4):
            graph.add_edge(leaf, 4, length=10.0)
        for a in range(4, 9):
            graph.add_edge(a, a + 1, length=1.0)
        return MSCInstance(graph, [(4, 7), (5, 9)], k=4, d_threshold=0.5)

    @pytest.mark.parametrize(
        "placed",
        [
            [(4, 7), (5, 6)],  # only 9 open: the pick pairs 0 with 9
            [(0, 4), (0, 7), (1, 5)],  # placed edges on outside nodes
            [(0, 1), (0, 2), (4, 5), (6, 7)],
        ],
    )
    def test_pick_matches_dense(self, instance, placed):
        nu = NuFunction(instance)
        assert list(base_ball(instance, [4, 5, 7, 9])) == [4, 5, 7, 9]
        reference = DenseNu(instance)
        k = len(placed) + 1
        picked = greedy_placement(nu, k, existing=placed)[-1]
        assert picked == greedy_placement(reference, k, existing=placed)[-1]
        assert picked[0] < 4 and picked[1] == 9
        block, universe = nu.add_candidates_restricted(placed)
        assert universe.size == 4 + len(placed) + 1
        # The ball alone would miss the pick.
        assert not set(picked) <= {4, 5, 7, 9}
        assert np.array_equal(
            block, reference.add_candidates(placed)[np.ix_(universe, universe)]
        )

    def test_celf_seeds_nu_from_the_dense_scan(self, instance):
        nu = NuFunction(instance)
        assert lazy_greedy_placement(nu, 3) == lazy_greedy_placement(
            DenseOnly(nu), 3, assume_submodular=True
        )


class TestMuMaskTable:
    def test_masks_cover_the_ball_only(self):
        rng = random.Random(7)
        graph = random_graph(60, 0.05, rng)
        matrix = DistanceOracle(graph).matrix
        far = [
            (i, j) for i in range(60) for j in range(i + 1, 60)
            if matrix[i, j] > 0.3
        ]
        instance = MSCInstance(graph, far[:5], k=2, d_threshold=0.3)
        mu = MuFunction(instance)
        block, ball = mu.add_candidates_restricted([])
        assert ball.size < instance.n
        assert block.shape == (ball.size, ball.size)
        for mask in mu._masks:
            assert mask.shape == (ball.size, ball.size)
