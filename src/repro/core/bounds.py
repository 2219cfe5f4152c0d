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

Both bounds have σ's locality: a candidate edge rescues or covers something
only through endpoints within ``d_t`` of a pair endpoint, the base-distance
ball σ's candidate scan works over
(:func:`~repro.core.evaluator.base_ball`). So both scan that ball, never
all ``n²`` candidate cells: ``add_candidates_restricted`` returns the block
over a universe that holds the dense scan's first selectable maximum, and
``add_candidates`` gives the ``(n, n)`` form of the same numbers.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.evaluator import base_ball, expand_scores
from repro.core.problem import MSCInstance
from repro.core.setfunction import PointwiseValueMany
from repro.failure.models import satisfaction_limit
from repro.types import IndexPair


class MuFunction(PointwiseValueMany):
    """Lower bound μ: each pair may be rescued by at most one shortcut edge.

    Candidate ``(a, b)`` rescues an open pair ``(u, w)`` iff
    ``min(D[u,a]+D[b,w], D[u,b]+D[a,w]) <= d_t`` over base distances
    ``D``. Distances are nonnegative, so both ``a`` and ``b`` then lie in
    the pair endpoints' ``d_t``-ball, and every cell with an endpoint
    outside it holds exactly μ(F). The first candidate scan builds one
    symmetric ``(r, r)`` boolean mask per open pair over that ball of
    ``r`` nodes — ``O(m r²)`` bytes, never ``O(m n²)`` — and a point
    evaluation reads the pair endpoints' distances to F's endpoints.
    """

    #: μ is provably submodular (paper §V-B1); consumed by CELF.
    is_submodular = True

    def __init__(self, instance: MSCInstance) -> None:
        self.instance = instance
        self.threshold = instance.d_threshold
        self.limit = satisfaction_limit(self.threshold)
        # Row accessors, never the square matrix: identical masks on every
        # oracle tier (a sparse/hub oracle serves pair-endpoint rows
        # without materializing O(n²)).
        oracle = instance.oracle
        pairs = instance.pair_indices
        self.base_satisfied: List[bool] = [
            bool(oracle.distance_by_index(iu, iw) <= self.limit)
            for iu, iw in pairs
        ]
        self.base_sigma = sum(self.base_satisfied)
        # Base-satisfied pairs count always; the open ones read their
        # endpoints' rows (_u_rows, _w_rows) out of one query over the
        # distinct pair endpoints (_sources).
        self._sources = sorted({i for pair in pairs for i in pair})
        row_of = {s: i for i, s in enumerate(self._sources)}
        self._open = np.flatnonzero(
            ~np.array(self.base_satisfied, dtype=bool)
        )
        self._u_rows = np.array(
            [row_of[pairs[p][0]] for p in self._open], dtype=np.intp
        )
        self._w_rows = np.array(
            [row_of[pairs[p][1]] for p in self._open], dtype=np.intp
        )
        # The ball and the per-pair masks over it (None for base-satisfied
        # pairs), built on the first scan.
        self._ball: Optional[np.ndarray] = None
        self._masks: Optional[List[Optional[np.ndarray]]] = None

    @property
    def n(self) -> int:
        return self.instance.n

    def satisfied(self, edges: Sequence[IndexPair]) -> List[bool]:
        """Per-pair satisfaction flags under the μ restriction."""
        flags = np.array(self.base_satisfied, dtype=bool)
        if len(edges) and self._open.size:
            ends = np.asarray(edges, dtype=np.intp)
            terminals, slots = np.unique(ends, return_inverse=True)
            slots = slots.reshape(ends.shape)
            rows = self.instance.oracle.rows_to(self._sources, terminals)
            du = rows[self._u_rows]
            dw = rows[self._w_rows]
            a, b = slots[:, 0], slots[:, 1]
            limit = self.limit
            flags[self._open] = (
                (du[:, a] + dw[:, b] <= limit)
                | (du[:, b] + dw[:, a] <= limit)
            ).any(axis=1)
        return flags.tolist()

    def value(self, edges: Sequence[IndexPair]) -> int:
        return sum(self.satisfied(edges))

    def _mask_table(self) -> List[Optional[np.ndarray]]:
        if self._masks is None:
            self._ball = base_ball(self.instance, self._sources)
            rows = self.instance.oracle.rows_to(self._sources, self._ball)
            masks: List[Optional[np.ndarray]] = [None] * len(
                self.base_satisfied
            )
            for p, u, w in zip(self._open, self._u_rows, self._w_rows):
                mask = (rows[u][:, None] + rows[w][None, :]) <= self.limit
                masks[p] = mask | mask.T
            self._masks = masks
        return self._masks

    def _scan(
        self,
        edges: Sequence[IndexPair],
        weights: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(scores, ball)``: ``scores[i, j]`` is μ of
        ``F ∪ {(ball[i], ball[j])}``, with per-pair *weights* (``None``
        counts pairs) — the one candidate scan behind μ and weighted μ.
        Symmetric; the diagonal holds the value of F."""
        masks = self._mask_table()
        r = self._ball.size
        rescued = self.satisfied(edges)
        if weights is None:
            acc = np.zeros((r, r), dtype=np.int32)
            current = sum(rescued)
            for done, mask in zip(rescued, masks):
                if not done:
                    acc += mask
        else:
            acc = np.zeros((r, r), dtype=float)
            current = 0.0
            for done, mask, weight in zip(rescued, masks, weights):
                if done:
                    current += weight
                elif weight > 0.0:
                    acc += mask * weight
        acc += current
        np.fill_diagonal(acc, current)
        return acc, self._ball

    def add_candidates_restricted(
        self, edges: Sequence[IndexPair]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(scores, universe)``: the ``(r, r)`` block of
        :meth:`add_candidates` over the pair endpoints' ``d_t``-ball."""
        return self._scan(edges)

    def add_candidates(self, edges: Sequence[IndexPair]) -> np.ndarray:
        return expand_scores(*self._scan(edges), self.n)


class NuFunction(PointwiseValueMany):
    """Upper bound ν: weighted maximum coverage over pair endpoints.

    A node covers pair node ``j`` when it lies within ``d_t`` of it, so
    only the ``r`` nodes of the pair nodes' ``d_t``-ball cover anything.
    The cover relation is kept over that ball as a ``(P, r)`` boolean
    matrix over the ``P`` distinct pair nodes; evaluating ν(F) reduces the
    columns of F's endpoints, and the one-step lookahead uses the identity
    ``gain(a, b) = nw[a] + nw[b] - overlap(a, b)`` with
    ``overlap = (Cov · diag(w_uncovered)) Covᵀ``.

    A node ``z`` outside the ball covers nothing, yet the cell ``(a, z)``
    still gains ``nw[a]``, so the dense scan's first maximum can have an
    endpoint outside the ball. The restricted universe is therefore the
    ball plus the ``|F| + 1`` smallest-index nodes outside it: placed
    edges block at most ``|F|`` of the cells ``(a, z)`` of one ``a``, so
    the smallest outside partner of any maximal ``a`` is among them.
    """

    #: ν is provably submodular (paper §V-B2); consumed by CELF.
    is_submodular = True

    #: Cells outside the restricted universe can still gain (see above),
    #: so CELF, whose heap must hold every gaining candidate, seeds from
    #: :meth:`add_candidates` instead.
    zero_gain_outside_universe = False

    def __init__(self, instance: MSCInstance) -> None:
        self.instance = instance
        self.threshold = instance.d_threshold
        limit = satisfaction_limit(self.threshold)
        oracle = instance.oracle

        graph = instance.graph
        self.pair_nodes = instance.pair_nodes()
        pair_node_indices = [graph.node_index(x) for x in self.pair_nodes]
        # Weight of a node: half its appearance count across S (paper §V-B2).
        counts = {}
        for u, w in instance.pairs:
            counts[u] = counts.get(u, 0) + 1
            counts[w] = counts.get(w, 0) + 1
        self.weights = np.array(
            [counts[x] / 2.0 for x in self.pair_nodes], dtype=float
        )
        # _cover_t[j, i]: ball node i covers pair node j. Base distances
        # are symmetric, so the pair-node rows at the ball's columns are
        # the cover relation.
        self._ball = base_ball(instance, pair_node_indices)
        self._cover_t = oracle.rows_to(pair_node_indices, self._ball) <= limit

        self.base_satisfied: List[bool] = [
            bool(oracle.distance_by_index(iu, iw) <= limit)
            for iu, iw in instance.pair_indices
        ]
        self.base_sigma = sum(self.base_satisfied)

    @property
    def n(self) -> int:
        return self.instance.n

    def covered_nodes(self, edges: Sequence[IndexPair]) -> np.ndarray:
        """Boolean vector over pair nodes: covered by any endpoint of F."""
        ends = np.unique(np.asarray(edges, dtype=np.intp))
        inside = ends[np.isin(ends, self._ball)]
        slots = np.searchsorted(self._ball, inside)
        return self._cover_t[:, slots].any(axis=1)

    def value(self, edges: Sequence[IndexPair]) -> float:
        return float(
            self.weights @ self.covered_nodes(edges)
        ) + self.base_sigma

    def _scores(
        self, edges: Sequence[IndexPair], universe: np.ndarray
    ) -> np.ndarray:
        """ν of ``F ∪ {(a, b)}`` for every *a*, *b* of the sorted
        *universe*, which holds the ball."""
        covered = self.covered_nodes(edges)
        current = float(self.weights @ covered) + self.base_sigma
        uncovered_weights = np.where(covered, 0.0, self.weights)
        # cover[v, j] over the universe (nodes outside the ball cover
        # nothing), column-major like the transposed pair-node rows: the
        # layout picks the BLAS kernel, which fixes the last bit of
        # weighted ν's float gains on the (n, n) scan.
        cover_t = np.zeros((len(self.pair_nodes), universe.size), dtype=bool)
        cover_t[:, np.searchsorted(universe, self._ball)] = self._cover_t
        cover = cover_t.T
        # nw[v]: weight newly covered by endpoint v alone.
        nw = cover @ uncovered_weights
        overlap = (cover * uncovered_weights) @ cover.T
        acc = current + nw[:, None] + nw[None, :] - overlap
        np.fill_diagonal(acc, current)
        return acc

    def add_candidates_restricted(
        self, edges: Sequence[IndexPair]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(scores, universe)``: the block of :meth:`add_candidates` over
        the ball plus the ``|F| + 1`` smallest-index nodes outside it,
        which holds the dense scan's first selectable maximum (class
        docs)."""
        want = len(edges) + 1
        head = np.arange(min(self.n, self._ball.size + want))
        outside = head[~np.isin(head, self._ball)][:want]
        universe = np.union1d(self._ball, outside)
        return self._scores(edges, universe), universe

    def add_candidates(self, edges: Sequence[IndexPair]) -> np.ndarray:
        return self._scores(edges, np.arange(self.n))
