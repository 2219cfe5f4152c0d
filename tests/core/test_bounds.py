"""Tests for repro.core.bounds — the sandwich property μ ≤ σ ≤ ν and the
submodularity/monotonicity of both bounds are what the AA guarantee
(paper Eq. 5) rests on."""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aea import AdaptiveEvolutionaryAlgorithm
from repro.core.bounds import MuFunction, NuFunction
from repro.core.evaluator import SigmaEvaluator
from repro.core.greedy import greedy_placement
from repro.core.problem import MSCInstance
from repro.core.random_baseline import solve_random_baseline
from tests.conftest import path_graph
from tests.core.helpers import all_candidate_edges, random_instance


def random_edge_sets(n, rng, max_edges=4):
    """Nested pair X ⊆ Y plus an extra edge f ∉ Y, for submodularity."""
    universe = all_candidate_edges(n)
    rng.shuffle(universe)
    y_size = rng.randrange(1, min(max_edges, len(universe)))
    y = universe[:y_size]
    x = y[: rng.randrange(0, y_size)]
    extra = universe[y_size]
    return x, y, extra


class TestMuBasics:
    def test_lower_bounds_sigma_on_path(self, tiny_instance):
        mu = MuFunction(tiny_instance)
        sigma = SigmaEvaluator(tiny_instance)
        for edges in ([], [(0, 4)], [(0, 2), (2, 4)], [(0, 3), (1, 4)]):
            assert mu.value(edges) <= sigma.value(edges)

    def test_multi_shortcut_path_not_counted(self):
        """A pair needing two chained shortcuts is rescued under σ but not
        under μ (the defining restriction of the lower bound)."""
        g = path_graph([1.0] * 6)  # 0..6
        inst = MSCInstance(g, [(0, 6)], k=2, d_threshold=0.5)
        sigma = SigmaEvaluator(inst)
        mu = MuFunction(inst)
        edges = [(0, 3), (3, 6)]  # chain: 0 ~ 3 ~ 6 at distance 0
        assert sigma.value(edges) == 1
        assert mu.value(edges) == 0

    def test_single_shortcut_agrees_with_sigma(self, tiny_instance):
        mu = MuFunction(tiny_instance)
        sigma = SigmaEvaluator(tiny_instance)
        for edge in all_candidate_edges(tiny_instance.n):
            assert mu.value([edge]) == sigma.value([edge])

    def test_satisfied_flags(self, tiny_instance):
        mu = MuFunction(tiny_instance)
        assert mu.satisfied([(0, 4)]) == [True, True, True]
        assert mu.satisfied([]) == [False, False, False]

    def test_base_satisfied_pair_always_counts(self):
        g = path_graph([1.0, 1.0])
        inst = MSCInstance(
            g, [(0, 1), (0, 2)], k=1, d_threshold=1.5,
            require_initially_unsatisfied=False,
        )
        mu = MuFunction(inst)
        assert mu.value([]) == 1

    def test_add_candidates_matches_value(self, tiny_instance):
        mu = MuFunction(tiny_instance)
        for existing in ([], [(0, 4)]):
            scores = mu.add_candidates(existing)
            for a, b in all_candidate_edges(tiny_instance.n):
                assert scores[a, b] == mu.value(list(existing) + [(a, b)])


class TestNuBasics:
    def test_weights_are_half_appearance_counts(self):
        g = path_graph([1.0] * 4)
        inst = MSCInstance(
            g, [(0, 4), (0, 3)], k=1, d_threshold=2.5
        )
        nu = NuFunction(inst)
        weights = dict(zip(nu.pair_nodes, nu.weights))
        assert weights[0] == 1.0  # appears twice
        assert weights[4] == 0.5
        assert weights[3] == 0.5

    def test_upper_bounds_sigma_on_path(self, tiny_instance):
        nu = NuFunction(tiny_instance)
        sigma = SigmaEvaluator(tiny_instance)
        for edges in ([], [(0, 4)], [(0, 2), (2, 4)], [(1, 3)]):
            assert nu.value(edges) >= sigma.value(edges) - 1e-12

    def test_coverage_without_satisfaction(self):
        """ν can exceed σ: covering both endpoints does not mean the pair is
        actually connected within d_t."""
        g = path_graph([1.0] * 6)
        inst = MSCInstance(g, [(0, 6)], k=2, d_threshold=0.5)
        nu = NuFunction(inst)
        sigma = SigmaEvaluator(inst)
        edges = [(0, 2), (4, 6)]  # covers 0 and 6 but σ = 0
        assert sigma.value(edges) == 0
        assert nu.value(edges) == pytest.approx(1.0)

    def test_add_candidates_matches_value(self, tiny_instance):
        nu = NuFunction(tiny_instance)
        for existing in ([], [(0, 4)], [(1, 3), (0, 2)]):
            scores = nu.add_candidates(existing)
            for a, b in all_candidate_edges(tiny_instance.n):
                assert scores[a, b] == pytest.approx(
                    nu.value(list(existing) + [(a, b)])
                )

    def test_symmetry(self, tiny_instance):
        scores = NuFunction(tiny_instance).add_candidates([])
        assert np.allclose(scores, scores.T)


class TestSandwichProperty:
    @given(seed=st.integers(0, 20_000))
    @settings(max_examples=40, deadline=None)
    def test_mu_le_sigma_le_nu_everywhere(self, seed):
        instance = random_instance(seed)
        sigma = SigmaEvaluator(instance)
        mu = MuFunction(instance)
        nu = NuFunction(instance)
        rng = random.Random(seed ^ 0xABCD)
        for _ in range(5):
            edges = []
            for _ in range(rng.randrange(0, 5)):
                a, b = sorted(rng.sample(range(instance.n), 2))
                edges.append((a, b))
            s = sigma.value(edges)
            assert mu.value(edges) <= s
            assert s <= nu.value(edges) + 1e-9


class _RecordingSigma:
    """σ that records every placement a solver passes to it."""

    def __init__(self, sigma):
        self._sigma = sigma
        self.points = []
        self.scans = []

    @property
    def n(self):
        return self._sigma.n

    def value(self, edges):
        self.points.append(list(edges))
        return self._sigma.value(edges)

    def value_many(self, placements):
        placements = [list(edges) for edges in placements]
        self.points.extend(placements)
        return self._sigma.value_many(placements)

    def add_candidates(self, edges):
        self.scans.append(list(edges))
        return self._sigma.add_candidates(edges)

    def satisfied(self, edges):
        return self._sigma.satisfied(edges)


class TestSandwichWhereSolversLook:
    """μ(F) <= σ(F) <= ν(F) at every F greedy, AEA and the random
    baseline pass to σ — point evaluations, and every cell F ∪ {e} of a
    candidate scan."""

    @pytest.mark.parametrize("seed", [3, 17, 58, 211])
    def test_bounds_hold_at_visited_placements(self, seed):
        instance = random_instance(seed, n_range=(8, 14), k=3)
        sigma = SigmaEvaluator(instance)
        mu = MuFunction(instance)
        nu = NuFunction(instance)
        recorder = _RecordingSigma(sigma)

        assert greedy_placement(recorder, instance.k) == greedy_placement(
            sigma, instance.k
        )
        solved = AdaptiveEvolutionaryAlgorithm(
            instance, iterations=25, sigma=recorder, seed=seed
        ).solve()
        reference = AdaptiveEvolutionaryAlgorithm(
            instance, iterations=25, seed=seed
        ).solve()
        assert solved.edges == reference.edges
        assert solved.evaluations == reference.evaluations
        baseline = solve_random_baseline(
            instance, seed=seed, trials=30, sigma=recorder
        )
        assert baseline.edges == solve_random_baseline(
            instance, seed=seed, trials=30
        ).edges

        assert len(recorder.points) >= 30 and recorder.scans
        for edges in recorder.points:
            value = sigma.value(edges)
            assert mu.value(edges) <= value <= nu.value(edges) + 1e-9
        for edges in recorder.scans:
            scores = sigma.add_candidates(edges)
            assert np.all(mu.add_candidates(edges) <= scores)
            assert np.all(scores <= nu.add_candidates(edges) + 1e-9)


class TestSubmodularity:
    @given(seed=st.integers(0, 20_000))
    @settings(max_examples=40, deadline=None)
    def test_mu_is_submodular_and_monotone(self, seed):
        instance = random_instance(seed)
        mu = MuFunction(instance)
        rng = random.Random(seed ^ 0x1111)
        x, y, f = random_edge_sets(instance.n, rng)
        gain_x = mu.value(x + [f]) - mu.value(x)
        gain_y = mu.value(y + [f]) - mu.value(y)
        assert gain_x >= gain_y  # submodular
        assert gain_y >= 0  # monotone

    @given(seed=st.integers(0, 20_000))
    @settings(max_examples=40, deadline=None)
    def test_nu_is_submodular_and_monotone(self, seed):
        instance = random_instance(seed)
        nu = NuFunction(instance)
        rng = random.Random(seed ^ 0x2222)
        x, y, f = random_edge_sets(instance.n, rng)
        gain_x = nu.value(x + [f]) - nu.value(x)
        gain_y = nu.value(y + [f]) - nu.value(y)
        assert gain_x >= gain_y - 1e-9
        assert gain_y >= -1e-9

    def test_sigma_is_not_submodular(self, triangle_instance):
        """The paper's §V-A counterexample: adding f12 to {f23} gains more
        than adding it to ∅."""
        sigma = SigmaEvaluator(triangle_instance)
        x_gain = sigma.value([(0, 1)]) - sigma.value([])
        y_gain = sigma.value([(0, 1), (1, 2)]) - sigma.value([(1, 2)])
        assert x_gain == 1
        assert y_gain == 2
        assert x_gain < y_gain
