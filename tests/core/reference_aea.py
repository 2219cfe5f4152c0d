"""Memo-free reference of AEA's solve loop.

This is :meth:`AdaptiveEvolutionaryAlgorithm.solve` without the greedy-swap
memo: every greedy swap runs its removal batch and its candidate scan
again, even for a parent it has swapped before. It stays here as the
executable specification the memoized loop is tested against: on the same
seed both must return the same result and leave the generator in the same
state.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.core.aea import (
    AdaptiveEvolutionaryAlgorithm,
    Individual,
    _satisfied_or_empty,
)
from repro.types import IndexPair, PlacementResult


def reference_solve(
    aea: AdaptiveEvolutionaryAlgorithm,
    k: Optional[int] = None,
    *,
    greedy_parents: Optional[List[Tuple[IndexPair, ...]]] = None,
) -> PlacementResult:
    """Run Algorithm 2 on *aea*'s instance, objective and generator with a
    fresh greedy swap every time.

    When *greedy_parents* is given, the edges of each parent that took a
    greedy swap are appended to it, in iteration order.
    """
    budget = aea.instance.k if k is None else k
    if budget == 0:
        value = float(aea.sigma.value([]))
        return PlacementResult(
            algorithm="aea",
            edges=[],
            sigma=int(value),
            satisfied=_satisfied_or_empty(aea.sigma, []),
            evaluations=1,
            trace=[int(value)],
            extras={"pool_size": 1, "delta": aea.delta},
        )
    if aea._initial_edges is not None:
        initial = list(aea._initial_edges[:budget])
        while len(initial) < budget:
            initial.append(aea._random_nonmember(initial))
        initial.sort()
    else:
        initial = aea._random_placement(budget)
    pool: List[Individual] = [(initial, float(aea.sigma.value(initial)))]
    evaluations = 1
    best: Individual = pool[0]
    trace: List[int] = [int(best[1])]

    for _ in range(aea.iterations):
        parent = pool[aea._rng.randrange(len(pool))]
        if aea._rng.random() <= 1.0 - aea.delta:
            if greedy_parents is not None:
                greedy_parents.append(tuple(parent[0]))
            child_edges, child_value, cost = aea._greedy_swap(parent[0])
        else:
            child_edges, child_value, cost = aea._random_swap(parent[0])
        evaluations += cost
        child: Individual = (child_edges, child_value)

        if len(pool) < aea.pool_size:
            pool.append(child)
        else:
            worst_idx = min(range(len(pool)), key=lambda i: pool[i][1])
            if pool[worst_idx][1] < child_value:
                pool[worst_idx] = child
        if child_value > best[1]:
            best = child
        trace.append(int(best[1]))

    return PlacementResult(
        algorithm="aea",
        edges=aea.instance.edges_to_nodes(best[0]),
        sigma=int(best[1]),
        satisfied=_satisfied_or_empty(aea.sigma, best[0]),
        evaluations=evaluations,
        trace=trace,
        extras={"pool_size": len(pool), "delta": aea.delta},
    )
