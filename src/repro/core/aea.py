"""Adaptive Evolutionary Algorithm (AEA) — Algorithm 2 of the paper.

AEA keeps a pool ``P`` of at most ``l`` *feasible* solutions (each with
exactly ``k`` shortcut edges). Every iteration picks a pool member uniformly
at random and produces an offspring by a swap:

* with probability ``1 - δ`` a **greedy swap** — remove the edge whose
  removal hurts σ least (i.e. maximizes ``σ(F \\ {f})``), then add the edge
  maximizing ``σ(F ∪ {f'})``;
* with probability ``δ`` a **random swap** — remove a uniform edge, add a
  uniform non-member edge.

The offspring replaces the worst pool member if strictly better (or simply
joins while the pool is under capacity). The pool provides diversity; the
mostly-greedy exploration is what makes AEA overtake both EA and AA as the
iteration budget grows (paper Figs. 3–4).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.evaluator import SigmaEvaluator
from repro.core.problem import MSCInstance
from repro.core.setfunction import SetFunctionProtocol
from repro.exceptions import SolverError
from repro.types import IndexPair, PlacementResult, normalize_index_pair
from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_positive_int, check_probability

Individual = Tuple[List[IndexPair], float]  # (edges sorted, σ value)


class AdaptiveEvolutionaryAlgorithm:
    """AEA over shortcut placements (paper Algorithm 2).

    Args:
        instance: the MSC instance.
        iterations: swap rounds ``r`` (paper default 500).
        pool_size: candidate-solution pool capacity ``l`` (paper default 10).
        delta: probability of a random (vs. greedy) swap (paper default
            0.05 — "close to 0").
        sigma: objective; defaults to the instance's exact σ.
        seed: RNG seed.
    """

    def __init__(
        self,
        instance: MSCInstance,
        iterations: int = 500,
        *,
        pool_size: int = 10,
        delta: float = 0.05,
        sigma: Optional[SetFunctionProtocol] = None,
        seed: SeedLike = None,
        initial_edges: Optional[Sequence[IndexPair]] = None,
    ) -> None:
        self.instance = instance
        self.iterations = check_positive_int(iterations, "iterations")
        self.pool_size = check_positive_int(pool_size, "pool_size")
        self.delta = check_probability(delta, "delta")
        self.sigma = sigma if sigma is not None else SigmaEvaluator(instance)
        self._rng = ensure_rng(seed)
        n = self.sigma.n
        if n < 2:
            raise SolverError("AEA needs at least two nodes")
        max_edges = n * (n - 1) // 2
        if instance.k > max_edges:
            raise SolverError(
                f"budget k={instance.k} exceeds the {max_edges} possible "
                "shortcut edges"
            )
        # Optional warm start (e.g. the AA placement): the pool is seeded
        # with this placement instead of a random one, so the final answer
        # can only match or beat it. The paper initializes randomly; warm
        # starting is this library's practical-configuration extension
        # (see the `ablation_warmstart` experiment).
        self._initial_edges: Optional[List[IndexPair]] = None
        if initial_edges is not None:
            canonical = sorted(
                normalize_index_pair(a, b) for a, b in initial_edges
            )
            if len(set(canonical)) != len(canonical):
                raise SolverError("initial_edges contains duplicates")
            if len(canonical) > instance.k:
                raise SolverError(
                    f"{len(canonical)} initial edges exceed the budget "
                    f"k={instance.k}"
                )
            self._initial_edges = canonical

    # ------------------------------------------------------------- sampling

    def _random_placement(self, k: int) -> List[IndexPair]:
        """Uniform placement of exactly *k* distinct shortcut edges."""
        n = self.sigma.n
        chosen: Set[IndexPair] = set()
        while len(chosen) < k:
            a = self._rng.randrange(n)
            b = self._rng.randrange(n)
            if a != b:
                chosen.add(normalize_index_pair(a, b))
        return sorted(chosen)

    def _random_nonmember(self, edges: Sequence[IndexPair]) -> IndexPair:
        n = self.sigma.n
        members = set(edges)
        while True:
            a = self._rng.randrange(n)
            b = self._rng.randrange(n)
            if a != b:
                pair = normalize_index_pair(a, b)
                if pair not in members:
                    return pair

    # ----------------------------------------------------------------- swaps

    def _greedy_swap(
        self, edges: List[IndexPair]
    ) -> Tuple[List[IndexPair], float, int]:
        """Greedy remove-then-add; returns (new edges, σ, evaluations)."""
        evaluations = 0
        kept = list(edges)
        if kept:
            # Remove the edge whose removal keeps σ highest (the first
            # one on ties); the k removals are scored in one batch.
            values = self.sigma.value_many(
                [kept[:i] + kept[i + 1 :] for i in range(len(kept))]
            )
            evaluations += len(kept)
            del kept[int(np.argmax(values))]
        # Add the candidate maximizing σ(F ∪ {f'}).
        scores = np.asarray(
            self.sigma.add_candidates(kept), dtype=float
        )
        evaluations += 1
        n = scores.shape[0]
        invalid = np.zeros_like(scores, dtype=bool)
        np.fill_diagonal(invalid, True)
        for a, b in kept:
            invalid[a, b] = True
            invalid[b, a] = True
        scores = np.where(invalid, -math.inf, scores)
        flat_best = int(np.argmax(scores))
        a, b = divmod(flat_best, n)
        kept.append(normalize_index_pair(a, b))
        kept.sort()
        return kept, float(scores[a, b]), evaluations

    def _random_swap(
        self, edges: List[IndexPair]
    ) -> Tuple[List[IndexPair], float, int]:
        kept = list(edges)
        if kept:
            del kept[self._rng.randrange(len(kept))]
        kept.append(self._random_nonmember(kept))
        kept.sort()
        return kept, float(self.sigma.value(kept)), 1

    # ------------------------------------------------------------------- run

    def solve(self, k: Optional[int] = None) -> PlacementResult:
        """Run Algorithm 2 and return the best placement found.

        The greedy swap draws no random numbers, so its offspring is a
        function of the parent alone. Once the pool settles the same parent
        is swapped again and again; each greedy swap is therefore computed
        once per distinct parent and replayed from a memo local to this
        call (at most ``iterations`` entries of k edges). The parent pick
        and the greedy-or-random coin are drawn before the lookup, so the
        random stream is unchanged. ``evaluations`` counts the algorithm's
        logical evaluations: a replayed swap adds the cost it had when it
        was computed, so the result equals a memo-free run's.
        """
        budget = self.instance.k if k is None else k
        if budget == 0:
            # The swap operators maintain exactly-k placements and always
            # add an edge, so a zero budget must short-circuit to the empty
            # placement instead of entering the loop.
            value = float(self.sigma.value([]))
            return PlacementResult(
                algorithm="aea",
                edges=[],
                sigma=int(value),
                satisfied=_satisfied_or_empty(self.sigma, []),
                evaluations=1,
                trace=[int(value)],
                extras={"pool_size": 1, "delta": self.delta},
            )
        if self._initial_edges is not None:
            initial = list(self._initial_edges[:budget])
            # AEA maintains exactly-k placements; top up short warm starts.
            members = set(initial)
            while len(initial) < budget:
                extra = self._random_nonmember(initial)
                initial.append(extra)
                members.add(extra)
            initial.sort()
        else:
            initial = self._random_placement(budget)
        pool: List[Individual] = [
            (initial, float(self.sigma.value(initial)))
        ]
        evaluations = 1
        best: Individual = pool[0]
        trace: List[int] = [int(best[1])]
        # parent edges -> (child edges, σ, cost) of its greedy swap
        greedy_swaps: Dict[
            Tuple[IndexPair, ...], Tuple[Tuple[IndexPair, ...], float, int]
        ] = {}

        for _ in range(self.iterations):
            parent = pool[self._rng.randrange(len(pool))]
            if self._rng.random() <= 1.0 - self.delta:
                key = tuple(parent[0])
                if key not in greedy_swaps:
                    edges, value, cost = self._greedy_swap(parent[0])
                    greedy_swaps[key] = (tuple(edges), value, cost)
                swapped, child_value, cost = greedy_swaps[key]
                child_edges = list(swapped)
            else:
                child_edges, child_value, cost = self._random_swap(parent[0])
            evaluations += cost
            child: Individual = (child_edges, child_value)

            if len(pool) < self.pool_size:
                pool.append(child)
            else:
                worst_idx = min(
                    range(len(pool)), key=lambda i: pool[i][1]
                )
                if pool[worst_idx][1] < child_value:
                    pool[worst_idx] = child
            if child_value > best[1]:
                best = child
            trace.append(int(best[1]))

        satisfied = _satisfied_or_empty(self.sigma, best[0])
        return PlacementResult(
            algorithm="aea",
            edges=self.instance.edges_to_nodes(best[0]),
            sigma=int(best[1]),
            satisfied=satisfied,
            evaluations=evaluations,
            trace=trace,
            extras={
                "pool_size": len(pool),
                "delta": self.delta,
            },
        )


def _satisfied_or_empty(sigma, edges: Sequence[IndexPair]):
    satisfied_fn = getattr(sigma, "satisfied", None)
    return satisfied_fn(edges) if satisfied_fn is not None else []


def solve_aea(
    instance: MSCInstance,
    seed: SeedLike = None,
    iterations: int = 500,
    pool_size: int = 10,
    delta: float = 0.05,
    initial_edges: Optional[Sequence[IndexPair]] = None,
    **_ignored,
) -> PlacementResult:
    """Registry-compatible wrapper for
    :class:`AdaptiveEvolutionaryAlgorithm`."""
    return AdaptiveEvolutionaryAlgorithm(
        instance,
        iterations=iterations,
        pool_size=pool_size,
        delta=delta,
        seed=seed,
        initial_edges=initial_edges,
    ).solve()


def solve_aea_warmstart(
    instance: MSCInstance,
    seed: SeedLike = None,
    iterations: int = 500,
    pool_size: int = 10,
    delta: float = 0.05,
    **_ignored,
) -> PlacementResult:
    """AEA warm-started from the sandwich AA placement.

    Because the initial pool contains the AA solution and AEA only ever
    replaces pool members with strictly better ones, the answer is
    guaranteed ≥ the AA value — the recommended practical configuration
    (see the `ablation_warmstart` study). Reported algorithm name:
    ``aea+warm``.
    """
    from repro.core.sandwich import SandwichApproximation

    aa = SandwichApproximation(instance).solve()
    graph = instance.graph
    warm = [
        normalize_index_pair(graph.node_index(u), graph.node_index(v))
        for u, v in aa.edges
    ]
    result = AdaptiveEvolutionaryAlgorithm(
        instance,
        iterations=iterations,
        pool_size=pool_size,
        delta=delta,
        seed=seed,
        initial_edges=warm,
    ).solve()
    return PlacementResult(
        algorithm="aea+warm",
        edges=result.edges,
        sigma=result.sigma,
        satisfied=result.satisfied,
        evaluations=result.evaluations + aa.evaluations,
        trace=result.trace,
        extras={**result.extras, "warm_start_sigma": aa.sigma},
    )
