"""The greedy prefix property and the budget sweeps built on it.

A greedy round depends only on the edges already placed and on the set
function, so ``greedy_placement(fn, K)[:k] == greedy_placement(fn, k)``
for every ``k <= K``. :class:`~repro.core.greedy.GreedyPrefix`, the
sandwich AA and ``ratio_grid`` reuse one greedy run across budgets on the
strength of it; these tests pin the property and each reuse against fresh
runs.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.bounds import MuFunction, NuFunction
from repro.core.evaluator import SigmaEvaluator
from repro.core.greedy import GreedyPrefix, greedy_placement
from repro.core.ratio import ratio_grid, sandwich_ratio
from repro.core.sandwich import SandwichApproximation
from repro.core.weighted import WeightedSigmaEvaluator, weighted_sandwich
from repro.exceptions import ValidationError
from tests.core.helpers import random_instance

K = 5


def _weights(instance):
    rng = random.Random(instance.m)
    return [rng.uniform(0.1, 3.0) for _ in range(instance.m)]


FUNCTIONS = {
    "sigma": SigmaEvaluator,
    "mu": MuFunction,
    "nu": NuFunction,
    "weighted": lambda inst: WeightedSigmaEvaluator(inst, _weights(inst)),
}

seeds = st.integers(0, 5_000)
names = st.sampled_from(sorted(FUNCTIONS))


def _ordered(budgets, order, seed):
    budgets = list(budgets)
    if order == "descending":
        budgets.reverse()
    elif order == "shuffled":
        random.Random(seed).shuffle(budgets)
    return budgets


class TestPrefixProperty:
    @given(seed=seeds, name=names)
    @settings(max_examples=30, deadline=None)
    def test_smaller_budget_is_a_prefix(self, seed, name):
        fn = FUNCTIONS[name](random_instance(seed, k=K))
        full = greedy_placement(fn, K)
        for k in range(K + 1):
            assert greedy_placement(fn, k) == full[:k]

    @given(seed=seeds, name=names)
    @settings(max_examples=30, deadline=None)
    def test_extending_a_prefix_gives_the_fresh_run(self, seed, name):
        fn = FUNCTIONS[name](random_instance(seed, k=K))
        full = greedy_placement(fn, K)
        for k in range(K + 1):
            prefix = greedy_placement(fn, k)
            assert greedy_placement(fn, K, existing=prefix) == full

    def test_early_stop_when_every_pair_is_satisfied(self, tiny_instance):
        sigma = SigmaEvaluator(tiny_instance)
        budget = 6
        full = greedy_placement(sigma, budget)
        assert len(full) < budget
        assert sigma.value(full) == tiny_instance.m
        for k in range(budget + 1):
            prefix = greedy_placement(sigma, k)
            assert prefix == full[:k]
            assert greedy_placement(sigma, budget, existing=prefix) == full
        prefix = GreedyPrefix(sigma)
        for k in (1, budget, 2, budget + 3, 0):
            assert prefix.placement(k) == greedy_placement(sigma, k)


class TestGreedyPrefix:
    @given(
        seed=seeds,
        name=names,
        order=st.sampled_from(["ascending", "descending", "shuffled"]),
    )
    @settings(max_examples=30, deadline=None)
    def test_any_order_matches_fresh_runs(self, seed, name, order):
        fn = FUNCTIONS[name](random_instance(seed, k=K))
        prefix = GreedyPrefix(fn)
        for k in _ordered(range(K + 1), order, seed):
            assert prefix.placement(k) == greedy_placement(fn, k)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_sweep_costs_one_run_at_the_largest_budget(self, seed):
        nu = NuFunction(random_instance(seed, k=K))
        scans = []
        scan = nu.add_candidates

        def counting(edges):
            scans.append(tuple(edges))
            return scan(edges)

        nu.add_candidates = counting
        greedy_placement(nu, K)
        fresh = len(scans)
        scans.clear()
        prefix = GreedyPrefix(nu)
        for k in _ordered(range(1, K + 1), "shuffled", seed):
            prefix.placement(k)
        assert len(scans) == fresh

    def test_placements_are_fresh_lists(self, tiny_instance):
        prefix = GreedyPrefix(NuFunction(tiny_instance))
        first = prefix.placement(2)
        first.append((0, 1))
        assert prefix.placement(2) == greedy_placement(prefix.fn, 2)

    def test_negative_budget_rejected(self, tiny_instance):
        with pytest.raises(ValidationError):
            GreedyPrefix(SigmaEvaluator(tiny_instance)).placement(-1)


class TestSandwichBudgetSweep:
    @given(
        seed=seeds,
        weighted=st.booleans(),
        order=st.sampled_from(["ascending", "descending", "shuffled"]),
    )
    @settings(max_examples=20, deadline=None)
    def test_one_object_matches_a_fresh_object_per_budget(
        self, seed, weighted, order
    ):
        instance = random_instance(seed, k=K)
        if weighted:
            weights = _weights(instance)
            make = lambda: weighted_sandwich(instance, weights)  # noqa: E731
        else:
            make = lambda: SandwichApproximation(instance)  # noqa: E731
        shared = make()
        for k in _ordered(range(K + 1), order, seed):
            assert shared.solve(k=k) == make().solve(k=k)
        assert shared.data_dependent_ratio() == make().data_dependent_ratio()


class TestRatioGrid:
    @pytest.mark.parametrize("draws", [1, 2])
    def test_matches_per_budget_sandwich_ratio(self, draws):
        budgets = [2, 5, 1, 3]
        p_values = [0.1, 0.2]

        def factory(p, draw):
            return random_instance(int(p * 100) + draw, k=max(budgets))

        grid = ratio_grid(factory, p_values, budgets, draws=draws)
        for p in p_values:
            for report, k in zip(grid[p], budgets):
                singles = [
                    sandwich_ratio(factory(p, draw), k)
                    for draw in range(draws)
                ]
                assert report.k == k
                assert report.ratio == sum(r.ratio for r in singles) / draws
                assert report.sigma_value == (
                    sum(r.sigma_value for r in singles) / draws
                )
                assert report.nu_value == (
                    sum(r.nu_value for r in singles) / draws
                )
