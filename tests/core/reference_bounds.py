"""Dense reference of the sandwich bounds μ and ν.

These are μ and ν as they scanned before the ``d_t``-ball restriction: μ
keeps one ``n × n`` rescue mask per open pair, and ν scores every cell of
the ``(n, n)`` block from n-wide cover rows. Neither has
``add_candidates_restricted``, so greedy runs them on the full scan. They
stay here as the executable specification the ball-restricted scans of
:mod:`repro.core.bounds` and :mod:`repro.core.weighted` are tested
against: the same cells bit for bit, and the same greedy placements.

Pass per-pair *weights* for the weighted forms; ``None`` counts pairs.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.problem import MSCInstance
from repro.failure.models import satisfaction_limit
from repro.types import IndexPair


class DenseMu:
    """μ with one ``n × n`` boolean rescue mask per open pair."""

    def __init__(
        self, instance: MSCInstance, weights: Optional[Sequence[float]] = None
    ) -> None:
        self.instance = instance
        self.weights = None if weights is None else np.array(weights, float)
        limit = satisfaction_limit(instance.d_threshold)
        oracle = instance.oracle
        self.masks: List[Optional[np.ndarray]] = []
        for iu, iw in instance.pair_indices:
            du = oracle.row_by_index(iu)
            dw = oracle.row_by_index(iw)
            if du[iw] <= limit:
                self.masks.append(None)  # base-satisfied: counts always
                continue
            mask = (du[:, None] + dw[None, :]) <= limit
            self.masks.append(mask | mask.T)

    @property
    def n(self) -> int:
        return self.instance.n

    def rescued(self, pair: int, edges: Sequence[IndexPair]) -> bool:
        mask = self.masks[pair]
        return mask is None or any(mask[a, b] for a, b in edges)

    def satisfied(self, edges: Sequence[IndexPair]) -> List[bool]:
        return [self.rescued(i, edges) for i in range(len(self.masks))]

    def value(self, edges: Sequence[IndexPair]) -> float:
        flags = self.satisfied(edges)
        if self.weights is None:
            return sum(flags)
        return float(self.weights @ np.array(flags, dtype=bool))

    def value_many(self, placements):
        return [self.value(edges) for edges in placements]

    def add_candidates(self, edges: Sequence[IndexPair]) -> np.ndarray:
        n = self.n
        if self.weights is None:
            acc = np.zeros((n, n), dtype=np.int32)
            covered = 0
            for i, mask in enumerate(self.masks):
                if self.rescued(i, edges):
                    covered += 1
                else:
                    acc += mask
            acc += covered
            np.fill_diagonal(acc, covered)
            return acc
        acc = np.zeros((n, n), dtype=float)
        current = 0.0
        for i, weight in enumerate(self.weights):
            if self.rescued(i, edges):
                current += weight
            elif weight > 0.0:
                acc += self.masks[i] * weight
        acc += current
        np.fill_diagonal(acc, current)
        return acc


class DenseNu:
    """ν scored over every cell from the ``(n, P)`` cover matrix."""

    def __init__(
        self, instance: MSCInstance, weights: Optional[Sequence[float]] = None
    ) -> None:
        self.instance = instance
        limit = satisfaction_limit(instance.d_threshold)
        oracle = instance.oracle
        graph = instance.graph
        pair_nodes = instance.pair_nodes()
        indices = np.array(
            [graph.node_index(x) for x in pair_nodes], dtype=np.intp
        )
        pair_weights = (
            np.ones(instance.m) if weights is None
            else np.array(weights, float)
        )
        node_weight = {node: 0.0 for node in pair_nodes}
        for (u, w), weight in zip(instance.pairs, pair_weights):
            node_weight[u] += weight / 2.0
            node_weight[w] += weight / 2.0
        self.weights = np.array([node_weight[x] for x in pair_nodes])
        self.cover = oracle.rows(indices).T <= limit
        base = np.array(
            [
                oracle.distance_by_index(iu, iw) <= limit
                for iu, iw in instance.pair_indices
            ],
            dtype=bool,
        )
        self.base = (
            int(base.sum()) if weights is None
            else float(pair_weights @ base)
        )

    @property
    def n(self) -> int:
        return self.instance.n

    def covered_nodes(self, edges: Sequence[IndexPair]) -> np.ndarray:
        covered = np.zeros(self.cover.shape[1], dtype=bool)
        for a, b in edges:
            covered |= self.cover[a, :]
            covered |= self.cover[b, :]
        return covered

    def value(self, edges: Sequence[IndexPair]) -> float:
        return float(self.weights @ self.covered_nodes(edges)) + self.base

    def value_many(self, placements):
        return [self.value(edges) for edges in placements]

    def add_candidates(self, edges: Sequence[IndexPair]) -> np.ndarray:
        covered = self.covered_nodes(edges)
        current = float(self.weights @ covered) + self.base
        uncovered = np.where(covered, 0.0, self.weights)
        nw = self.cover @ uncovered
        overlap = (self.cover * uncovered) @ self.cover.T
        acc = current + nw[:, None] + nw[None, :] - overlap
        np.fill_diagonal(acc, current)
        return acc
