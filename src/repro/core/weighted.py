"""Weighted MSC: social pairs with importance weights.

The paper's conclusion notes its algorithms "could also provide insights
into the general shortcut edge addition problems in any graphs"; the most
natural generalization is pairs that are not equally important — the platoon
commander's link to a squad leader may be worth more than a squad leader's
link to another. This module provides weighted counterparts of σ, μ and ν
implementing the same set-function protocol, so *every* solver in the
library (greedy, sandwich, EA, AEA, random, exact) works on weighted
instances unchanged.

The sandwich property and submodularity proofs carry over verbatim:

* weighted μ restricts paths to one shortcut edge — still a (now weighted)
  maximum coverage over pairs, submodular and ≤ weighted σ;
* weighted ν assigns each node half the *weight sum* of the pairs it
  appears in (for unit weights this reduces to the paper's half-appearance
  count), and the same covering argument yields weighted σ ≤ weighted ν.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.bounds import MuFunction, NuFunction
from repro.core.evaluator import SigmaEvaluator, expand_scores
from repro.core.problem import MSCInstance
from repro.core.setfunction import PointwiseValueMany
from repro.exceptions import InstanceError
from repro.types import IndexPair
from repro.util.validation import check_nonnegative


def _check_weights(
    instance: MSCInstance, weights: Sequence[float]
) -> np.ndarray:
    if len(weights) != instance.m:
        raise InstanceError(
            f"{len(weights)} weights for {instance.m} pairs"
        )
    return np.array(
        [check_nonnegative(w, "pair weight") for w in weights], dtype=float
    )


class WeightedSigmaEvaluator:
    """Weighted objective: total weight of maintained pairs."""

    def __init__(
        self, instance: MSCInstance, weights: Sequence[float]
    ) -> None:
        self.instance = instance
        self.weights = _check_weights(instance, weights)
        self._sigma = SigmaEvaluator(instance)

    @property
    def n(self) -> int:
        return self.instance.n

    def max_value(self) -> float:
        return float(self.weights.sum())

    def satisfied(self, edges: Sequence[IndexPair]) -> List[bool]:
        return self._sigma.satisfied(edges)

    def value(self, edges: Sequence[IndexPair]) -> float:
        return self.value_many([edges])[0]

    def value_many(
        self, placements: Sequence[Sequence[IndexPair]]
    ) -> List[float]:
        """Weighted σ of every placement, from σ's batched flags."""
        flags = self._sigma.satisfied_many(placements)
        return [float(self.weights @ row) for row in flags]

    def add_candidates_restricted(
        self, edges: Sequence[IndexPair]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Weighted one-step lookahead over σ's candidate universe: σ's
        candidate scan with per-pair weights, sharing its engine cache,
        candidate universe and memory bounds."""
        return self._sigma._scan(edges, self.weights)

    def add_candidates(self, edges: Sequence[IndexPair]) -> np.ndarray:
        return expand_scores(*self.add_candidates_restricted(edges), self.n)


class WeightedMuFunction(PointwiseValueMany):
    """Weighted lower bound: μ with per-pair weights."""

    is_submodular = True

    def __init__(
        self, instance: MSCInstance, weights: Sequence[float]
    ) -> None:
        self.instance = instance
        self.weights = _check_weights(instance, weights)
        self._mu = MuFunction(instance)

    @property
    def n(self) -> int:
        return self.instance.n

    def value(self, edges: Sequence[IndexPair]) -> float:
        flags = np.array(self._mu.satisfied(edges), dtype=bool)
        return float(self.weights @ flags)

    def add_candidates_restricted(
        self, edges: Sequence[IndexPair]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """μ's candidate scan over its ball, with per-pair weights."""
        return self._mu._scan(edges, self.weights)

    def add_candidates(self, edges: Sequence[IndexPair]) -> np.ndarray:
        return expand_scores(*self.add_candidates_restricted(edges), self.n)


class WeightedNuFunction(NuFunction):
    """Weighted upper bound: coverage with pair-weight-scaled node weights.

    A node's weight is half the sum of the weights of the pairs it appears
    in; the base-satisfied pairs' weight is added as a constant — exactly
    the construction of :class:`~repro.core.bounds.NuFunction` with counts
    replaced by weight sums, and the same scans.
    """

    #: With arbitrary float node weights ν's gains are float sums that the
    #: matrix product of a smaller block may round differently in the last
    #: bit, so greedy keeps the (n, n) scan and its placements.
    add_candidates_restricted = None

    def __init__(
        self, instance: MSCInstance, weights: Sequence[float]
    ) -> None:
        pair_weights = _check_weights(instance, weights)
        super().__init__(instance)
        self.pair_weights = pair_weights
        node_weight = {node: 0.0 for node in self.pair_nodes}
        for (u, w), weight in zip(instance.pairs, self.pair_weights):
            node_weight[u] += weight / 2.0
            node_weight[w] += weight / 2.0
        self.weights = np.array(
            [node_weight[node] for node in self.pair_nodes], dtype=float
        )
        self.base_sigma = float(
            self.pair_weights @ np.array(self.base_satisfied, dtype=bool)
        )


def weighted_sandwich(
    instance: MSCInstance,
    weights: Sequence[float],
):
    """A :class:`~repro.core.sandwich.SandwichApproximation` over the
    weighted objective and its weighted bounds."""
    from repro.core.sandwich import SandwichApproximation

    return SandwichApproximation(
        instance,
        sigma=WeightedSigmaEvaluator(instance, weights),
        mu=WeightedMuFunction(instance, weights),
        nu=WeightedNuFunction(instance, weights),
    )
