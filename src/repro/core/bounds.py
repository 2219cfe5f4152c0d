"""Submodular lower/upper bounds μ and ν for the MSC objective (paper §V-B).

``μ`` (lower bound): σ restricted so that each pair's path may use **at most
one shortcut edge**. Restricting paths can only lose satisfied pairs, so
``μ(F) <= σ(F)``. Because a pair is then satisfied exactly when *some* edge
in F individually satisfies it, μ is a maximum-coverage function over pairs —
monotone and submodular.

``ν`` (upper bound): a **weighted maximum coverage** over the pair endpoints.
A node of a pair is *covered* by F when some shortcut endpoint is within
``d_t`` of it (base-graph distance); each node's weight is half its number of
appearances in S. Any pair newly satisfied by F must have both endpoints
covered (the first/last shortcut endpoint on its short path is within ``d_t``
of each end), which gives ``σ(F) <= ν(F)``; weighted coverage is monotone and
submodular.

Both classes add the count of pairs already satisfied in the base graph as a
constant, so the sandwich ``μ <= σ <= ν`` also holds for instances that allow
initially-satisfied pairs (the paper's instances have none).
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.core.problem import MSCInstance
from repro.core.setfunction import PointwiseValueMany
from repro.failure.models import satisfaction_limit
from repro.types import IndexPair


class MuFunction(PointwiseValueMany):
    """Lower bound μ: each pair may be rescued by at most one shortcut edge.

    Precomputes, for every pair ``i``, the symmetric boolean matrix
    ``mask_i[a, b] = [min(D[u,a]+D[b,w], D[u,b]+D[a,w]) <= d_t]`` over base
    distances ``D``. Memory is ``O(m n²)`` bytes, fine for the laptop-scale
    instances this library targets (documented in DESIGN.md).
    """

    #: μ is provably submodular (paper §V-B1); consumed by CELF.
    is_submodular = True

    def __init__(self, instance: MSCInstance) -> None:
        self.instance = instance
        self.threshold = instance.d_threshold
        limit = satisfaction_limit(self.threshold)
        # Row accessors, never the square matrix: identical masks on every
        # oracle tier (a sparse/hub oracle serves pair-endpoint rows
        # without materializing O(n²)).
        oracle = instance.oracle
        self._masks: List[Optional[np.ndarray]] = []
        self.base_satisfied: List[bool] = []
        for iu, iw in instance.pair_indices:
            du = oracle.row_by_index(iu)
            dw = oracle.row_by_index(iw)
            if du[iw] <= limit:
                # Base-satisfied pairs need no mask; they count always.
                self.base_satisfied.append(True)
                self._masks.append(None)
                continue
            self.base_satisfied.append(False)
            mask = (du[:, None] + dw[None, :]) <= limit
            self._masks.append(mask | mask.T)
        self.base_sigma = sum(self.base_satisfied)

    @property
    def n(self) -> int:
        return self.instance.n

    def pair_rescued(self, pair_index: int, edges: Sequence[IndexPair]) -> bool:
        """Whether pair *pair_index* meets the requirement under μ's
        one-shortcut restriction."""
        if self.base_satisfied[pair_index]:
            return True
        mask = self._masks[pair_index]
        return any(mask[a, b] for a, b in edges)

    def satisfied(self, edges: Sequence[IndexPair]) -> List[bool]:
        """Per-pair satisfaction flags under the μ restriction."""
        return [
            self.pair_rescued(i, edges)
            for i in range(len(self._masks))
        ]

    def value(self, edges: Sequence[IndexPair]) -> int:
        return sum(self.satisfied(edges))

    def add_candidates(self, edges: Sequence[IndexPair]) -> np.ndarray:
        n = self.n
        acc = np.zeros((n, n), dtype=np.int32)
        covered = 0
        for i, mask in enumerate(self._masks):
            if self.pair_rescued(i, edges):
                covered += 1
            else:
                acc += mask
        acc += covered
        np.fill_diagonal(acc, covered)
        return acc


class NuFunction(PointwiseValueMany):
    """Upper bound ν: weighted maximum coverage over pair endpoints.

    The cover relation is precomputed as an ``(n, P)`` boolean matrix over
    the ``P`` distinct pair nodes; evaluating ν(F) reduces the rows of F's
    endpoints, and the one-step lookahead uses the identity
    ``gain(a, b) = nw[a] + nw[b] - overlap(a, b)`` with
    ``overlap = (Cov · diag(w_uncovered)) Covᵀ``.
    """

    #: ν is provably submodular (paper §V-B2); consumed by CELF.
    is_submodular = True

    def __init__(self, instance: MSCInstance) -> None:
        self.instance = instance
        self.threshold = instance.d_threshold
        limit = satisfaction_limit(self.threshold)
        oracle = instance.oracle

        graph = instance.graph
        self.pair_nodes = instance.pair_nodes()
        self._pair_node_indices = np.array(
            [graph.node_index(x) for x in self.pair_nodes], dtype=np.intp
        )
        # Weight of a node: half its appearance count across S (paper §V-B2).
        counts = {}
        for u, w in instance.pairs:
            counts[u] = counts.get(u, 0) + 1
            counts[w] = counts.get(w, 0) + 1
        self.weights = np.array(
            [counts[x] / 2.0 for x in self.pair_nodes], dtype=float
        )
        # cover[v, j]: endpoint v covers pair node j. Base distances are
        # symmetric, so the pair-node *rows* transpose into the column
        # slice the dense matrix used to provide.
        self.cover = oracle.rows(self._pair_node_indices).T <= limit

        base_limits = [
            bool(oracle.distance_by_index(iu, iw) <= limit)
            for iu, iw in instance.pair_indices
        ]
        self.base_sigma = sum(base_limits)

    @property
    def n(self) -> int:
        return self.instance.n

    def covered_nodes(self, edges: Sequence[IndexPair]) -> np.ndarray:
        """Boolean vector over pair nodes: covered by any endpoint of F."""
        covered = np.zeros(len(self.pair_nodes), dtype=bool)
        for a, b in edges:
            covered |= self.cover[a, :]
            covered |= self.cover[b, :]
        return covered

    def value(self, edges: Sequence[IndexPair]) -> float:
        return float(
            self.weights @ self.covered_nodes(edges)
        ) + self.base_sigma

    def add_candidates(self, edges: Sequence[IndexPair]) -> np.ndarray:
        covered = self.covered_nodes(edges)
        current = float(self.weights @ covered) + self.base_sigma
        uncovered_weights = np.where(covered, 0.0, self.weights)
        # nw[v]: weight newly covered by endpoint v alone.
        nw = self.cover @ uncovered_weights
        overlap = (self.cover * uncovered_weights) @ self.cover.T
        acc = current + nw[:, None] + nw[None, :] - overlap
        np.fill_diagonal(acc, current)
        return acc
