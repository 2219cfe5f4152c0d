"""AEA's greedy-swap memo against the memo-free reference loop.

The memo replays the greedy swap of a parent it has already swapped. That
is exact only because the swap draws no random numbers and the replay
charges the evaluations the swap cost the first time; these tests pin both
by running the solver and :func:`tests.core.reference_aea.reference_solve`
side by side on the same seed.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.aea import AdaptiveEvolutionaryAlgorithm
from repro.core.evaluator import SigmaEvaluator
from repro.core.problem import MSCInstance
from repro.core.setfunction import SumSetFunction
from repro.core.weighted import WeightedSigmaEvaluator
from repro.graph.distances import DistanceOracle
from repro.netgen.general import barabasi_albert_network
from repro.netgen.geometric import random_geometric_network
from tests.core.reference_aea import reference_solve

N = 14


def _graph(kind: str, seed: int):
    if kind == "rg":
        # The node count must not depend on the seed, so topologies of a
        # summed objective share one index space; pairs may be disconnected.
        return random_geometric_network(
            N, 0.4, seed=seed, restrict_to_largest_component=False
        ).graph
    return barabasi_albert_network(N, 2, seed=seed)


def _instance(graph, k: int, rng: random.Random) -> MSCInstance:
    """Up to six pairs that violate a threshold at the lower third of the
    graph's finite pair distances."""
    matrix = DistanceOracle(graph).matrix
    upper = matrix[np.triu_indices(N, 1)]
    finite = np.sort(upper[np.isfinite(upper)])
    threshold = float(finite[len(finite) // 3])
    violating = [
        (graph.index_node(a), graph.index_node(b))
        for a in range(N)
        for b in range(a + 1, N)
        if matrix[a, b] > threshold
    ]
    pairs = rng.sample(violating, min(6, len(violating)))
    return MSCInstance(graph, pairs, k, d_threshold=threshold)


def _problem(kind: str, objective: str, k: int, seed: int):
    """An instance and a factory of fresh objectives over it, so the memo
    run and the reference run share no evaluator state."""
    rng = random.Random(seed)
    if objective == "sum":
        instances = [
            _instance(_graph(kind, seed * 7 + t), k, rng)
            for t in range(rng.choice([2, 3]))
        ]
        return instances[0], lambda: SumSetFunction(
            [SigmaEvaluator(inst) for inst in instances]
        )
    instance = _instance(_graph(kind, seed), k, rng)
    if objective == "weighted":
        weights = [rng.uniform(0.1, 3.0) for _ in range(instance.m)]
        return instance, lambda: WeightedSigmaEvaluator(instance, weights)
    return instance, lambda: SigmaEvaluator(instance)


def _counting(fn):
    """Count *fn*'s candidate scans: one per greedy swap computed."""
    calls = []
    scan = fn.add_candidates

    def add_candidates(edges):
        calls.append(tuple(edges))
        return scan(edges)

    fn.add_candidates = add_candidates
    return calls


def _run_both(instance, make_fn, seed, **kwargs):
    """Solve with the memo and with the reference loop on the same seed;
    assert they agree and return (result, scans, greedy parents)."""
    fn = make_fn()
    solver = AdaptiveEvolutionaryAlgorithm(
        instance, sigma=fn, seed=seed, **kwargs
    )
    reference = AdaptiveEvolutionaryAlgorithm(
        instance, sigma=make_fn(), seed=seed, **kwargs
    )
    scans = _counting(fn)
    greedy_parents = []
    result = solver.solve()
    expected = reference_solve(reference, greedy_parents=greedy_parents)
    assert result.edges == expected.edges
    assert result.sigma == expected.sigma
    assert result.satisfied == expected.satisfied
    assert result.evaluations == expected.evaluations
    assert result.trace == expected.trace
    assert result.extras == expected.extras
    assert solver._rng.getstate() == reference._rng.getstate()
    # One candidate scan per distinct parent that took a greedy swap.
    assert len(scans) == len(set(greedy_parents))
    return result, scans, greedy_parents


class TestMemoMatchesReference:
    @given(
        kind=st.sampled_from(["rg", "ba"]),
        objective=st.sampled_from(["sigma", "weighted", "sum"]),
        warm=st.booleans(),
        delta=st.sampled_from([0.0, 0.05, 1.0]),
        pool_size=st.sampled_from([1, 10]),
        k=st.integers(1, 3),
        iterations=st.integers(1, 60),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=100, deadline=None)
    def test_same_result_and_stream(
        self, kind, objective, warm, delta, pool_size, k, iterations, seed
    ):
        instance, make_fn = _problem(kind, objective, k, seed)
        kwargs = dict(iterations=iterations, pool_size=pool_size, delta=delta)
        if warm:
            # Up to k warm-start edges; a short warm start is topped up at
            # random inside solve.
            rng = random.Random(seed)
            kwargs["initial_edges"] = sorted({
                tuple(sorted(rng.sample(range(N), 2)))
                for _ in range(rng.randint(1, k))
            })
        _run_both(instance, make_fn, seed, **kwargs)


class TestMemoReplays:
    def test_settled_pool_replays_swaps(self, tiny_instance):
        """With only greedy swaps and a pool of one, the pool settles at
        once; after that no scan is repeated."""
        _result, scans, greedy_parents = _run_both(
            tiny_instance, lambda: SigmaEvaluator(tiny_instance), 3,
            iterations=40, pool_size=1, delta=0.0,
        )
        assert len(greedy_parents) == 40
        assert len(scans) < 5

    @pytest.mark.parametrize("delta", [0.0, 0.05])
    def test_evaluations_count_logical_swaps(self, tiny_instance, delta):
        """``evaluations`` charges every swap, replayed or not: k removals
        plus one scan per greedy swap, one evaluation per random swap."""
        iterations = 50
        result, scans, greedy_parents = _run_both(
            tiny_instance, lambda: SigmaEvaluator(tiny_instance), 11,
            iterations=iterations, pool_size=10, delta=delta,
        )
        greedy = len(greedy_parents)
        assert len(scans) < greedy
        assert result.evaluations == (
            1 + greedy * (tiny_instance.k + 1) + (iterations - greedy)
        )
