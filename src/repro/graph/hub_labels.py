"""Hub-labeling (pruned landmark) distance oracle: the large-n tier.

The dense tier stores the full APSP matrix (``O(n²)``); the sparse tier an
``r × n`` row block whose width still grows linearly with ``n``. This third
tier stores a *2-hop labeling* instead: every node ``v`` keeps a short
sorted list of ``(hub, d(v, hub))`` entries such that every shortest path
is covered by a common hub, so

``d(u, v) = min over shared hubs h of  d(u, h) + d(h, v)``

Labels are built by Akiba et al.'s pruned landmark labeling: roots are
processed in degree-descending rank order, each running a Dijkstra that
*prunes* any node whose distance is already certified by earlier (higher
rank) hubs. The index is exact and its footprint is the total label size —
on the bounded-degree geometric graphs the experiments use, a few entries
per node, independent of ``n``.

Threshold cutoff
----------------

The MSC solver stack never needs arbitrary distances: every decision
compares a distance (or a sum of individually-small legs) against
``limit = d_t + tol``. The builder bounds every root's search by the
``cutoff`` ball (the policies pass ``threshold_cutoff(d_t) >= limit``),
making the build ``O(n · ball)`` — seconds at n=10⁵ in pure Python — while
keeping every query **exact for true distances ≤ cutoff**. Queries beyond
the cutoff return an upper bound (usually ``inf``): each label entry is a
real path, so reported distances are never below the true distance, and
any true distance within the cutoff is covered by the max-rank-hub
argument (all certificate distances involved are themselves ≤ cutoff).
Solver comparisons ``d <= limit`` therefore resolve identically to a full
oracle, which is what keeps placements identical across tiers (asserted by
the tier tests and the benchmark harness). ``cutoff=math.inf`` builds the
full exact index through the same search.
"""

from __future__ import annotations

import heapq
import math
from collections import OrderedDict
from typing import Dict, Sequence

import numpy as np

from repro.exceptions import GraphError
from repro.failure.models import satisfaction_limit
from repro.graph.graph import Node, WirelessGraph
from repro.graph.paths import graph_csr

INFINITY = math.inf


def threshold_cutoff(d_threshold: float) -> float:
    """The build cutoff used for an instance with requirement *d_threshold*.

    Strictly above the solvers' :func:`satisfaction_limit`, with an extra
    relative margin so label distances a float-rounding step away from the
    boundary stay covered.
    """
    return satisfaction_limit(d_threshold) * (1.0 + 1e-9) + 1e-12


class HubLabelOracle:
    """Pruned-landmark hub-label oracle serving the distance-row protocol.

    Args:
        graph: the base graph (must not be mutated afterwards).
        cutoff: distance bound on the per-root search, keeping queries
            exact for true distances ≤ cutoff and upper bounds (typically
            ``inf``) beyond — sufficient for every threshold comparison the
            solvers make (see module docs); ``math.inf`` builds the full
            exact index.
    """

    #: Process-local count of label-index builds — see
    #: :class:`~repro.graph.distances.DistanceOracle`.
    build_count: int = 0

    #: Row-cache capacity: full n-width rows are off the hot path for this
    #: tier (consumers use :meth:`rows_to`), so a handful is plenty.
    _ROW_CACHE_SIZE = 8

    #: Tells the evaluator's candidate-universe builder to derive the
    #: d_t-ball from cutoff Dijkstra instead of full oracle rows — row
    #: queries on this tier cost the whole index, while the ball search
    #: costs only the ball.
    prefers_ball_universe = True

    def __init__(self, graph: WirelessGraph, *, cutoff: float) -> None:
        if cutoff < 0:
            raise GraphError(f"negative cutoff {cutoff}")
        self._graph = graph
        self._cutoff = float(cutoff)
        self._build()
        HubLabelOracle.build_count += 1

    # ----------------------------------------------------------- the build

    def _build(self) -> None:
        graph = self._graph
        n = graph.number_of_nodes()
        cutoff = self._cutoff
        indptr, indices, lengths = graph_csr(graph)
        # Degree-descending rank order (index tiebreak): high-degree nodes
        # become hubs first, which is what keeps labels short on the
        # hub-and-spoke structure of geometric/social graphs.
        order = np.lexsort((np.arange(n), -np.diff(indptr))).tolist()
        # From any d >= 0 an edge longer than the cutoff reaches
        # d + length > cutoff, which the search never relaxes; drop such
        # edges up front (each node keeps its neighbor order).
        keep = lengths <= cutoff
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
        indices, lengths = indices[keep], lengths[keep]
        edges = list(zip(indices.tolist(), lengths.tolist()))
        bounds = indptr.tolist()
        adjacency = [edges[bounds[u] : bounds[u + 1]] for u in range(n)]
        label_hubs = [[] for _ in range(n)]
        label_dists = [[] for _ in range(n)]
        # Rank-indexed scratch holding the current root's label distances,
        # so the pruning query is one pass over the popped node's label.
        root_dist = [INFINITY] * n
        for rank, root in enumerate(order):
            root_hubs = label_hubs[root]
            root_dists = label_dists[root]
            for h, d in zip(root_hubs, root_dists):
                root_dist[h] = d
            dist: Dict[int, float] = {root: 0.0}
            heap = [(0.0, root)]
            while heap:
                d, u = heapq.heappop(heap)
                if d > dist.get(u, INFINITY):
                    continue
                if d > cutoff:
                    break  # popped non-decreasing: the rest is farther
                # Prune when an earlier (higher-rank) hub pair already
                # certifies a distance this short.
                hubs_u = label_hubs[u]
                dists_u = label_dists[u]
                pruned = False
                for h, dh in zip(hubs_u, dists_u):
                    if root_dist[h] + dh <= d:
                        pruned = True
                        break
                if pruned:
                    continue
                hubs_u.append(rank)
                dists_u.append(d)
                for v, length in adjacency[u]:
                    nd = d + length
                    if nd > cutoff:
                        continue
                    if nd < dist.get(v, INFINITY):
                        dist[v] = nd
                        heapq.heappush(heap, (nd, v))
            for h in root_hubs:
                root_dist[h] = INFINITY
        self._indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(
            [len(hubs) for hubs in label_hubs], out=self._indptr[1:]
        )
        self._hubs = np.array(
            [h for hubs in label_hubs for h in hubs], dtype=np.int64
        )
        self._dists = np.array(
            [d for dists in label_dists for d in dists], dtype=np.float64
        )
        for array in (self._indptr, self._hubs, self._dists):
            array.setflags(write=False)
        self._nonempty = np.diff(self._indptr) > 0
        self._segment_starts = self._indptr[:-1][self._nonempty]
        # Rank-space scratch for the vectorized row queries; only entries
        # touched by a query are reset, so queries stay O(label size).
        self._hub_scratch = np.full(n, INFINITY)
        self._row_cache: "OrderedDict[int, np.ndarray]" = OrderedDict()

    # ----------------------------------------------------------- inspection

    @property
    def graph(self) -> WirelessGraph:
        return self._graph

    @property
    def cutoff(self) -> float:
        """The build cutoff."""
        return self._cutoff

    def number_of_nodes(self) -> int:
        return self._graph.number_of_nodes()

    def label_count(self) -> int:
        """Total number of (hub, distance) label entries."""
        return int(self._hubs.size)

    def index_nbytes(self) -> int:
        """Memory footprint of the label buffers in bytes."""
        return (
            self._indptr.nbytes + self._hubs.nbytes + self._dists.nbytes
        )

    # -------------------------------------------------------------- queries

    def distance_by_index(self, iu: int, iv: int) -> float:
        """Distance between dense indices (sorted-label merge, O(labels))."""
        indptr = self._indptr
        su, eu = int(indptr[iu]), int(indptr[iu + 1])
        sv, ev = int(indptr[iv]), int(indptr[iv + 1])
        hubs, dists = self._hubs, self._dists
        best = INFINITY
        i, j = su, sv
        while i < eu and j < ev:
            hi = hubs[i]
            hj = hubs[j]
            if hi == hj:
                total = dists[i] + dists[j]
                if total < best:
                    best = float(total)
                i += 1
                j += 1
            elif hi < hj:
                i += 1
            else:
                j += 1
        return best

    def distance(self, u: Node, v: Node) -> float:
        return self.distance_by_index(
            self._graph.node_index(u), self._graph.node_index(v)
        )

    def _fill_scratch(self, index: int) -> np.ndarray:
        start, end = self._indptr[index], self._indptr[index + 1]
        hubs = self._hubs[start:end]
        self._hub_scratch[hubs] = self._dists[start:end]
        return hubs

    def _clear_scratch(self, touched: np.ndarray) -> None:
        self._hub_scratch[touched] = INFINITY

    def row_by_index(self, index: int) -> np.ndarray:
        """Distances from dense *index* to every node (read-only).

        One vectorized label sweep: candidate sums over every node's label
        entries, segment-min folded per node. Cached in a tiny LRU — full
        rows are off this tier's hot path (consumers use :meth:`rows_to`).
        """
        index = int(index)
        cached = self._row_cache.get(index)
        if cached is not None:
            self._row_cache.move_to_end(index)
            return cached
        n = self._graph.number_of_nodes()
        out = np.full(n, INFINITY)
        touched = self._fill_scratch(index)
        if self._hubs.size:
            candidates = self._dists + self._hub_scratch[self._hubs]
            out[self._nonempty] = np.minimum.reduceat(
                candidates, self._segment_starts
            )
        self._clear_scratch(touched)
        out.setflags(write=False)
        self._row_cache[index] = out
        while len(self._row_cache) > self._ROW_CACHE_SIZE:
            self._row_cache.popitem(last=False)
        return out

    def row(self, node: Node) -> np.ndarray:
        return self.row_by_index(self._graph.node_index(node))

    def rows(self, indices: Sequence[int]) -> np.ndarray:
        """Distances from each of *indices* to every node, as a
        ``(len(indices), n)`` block (a fresh array; safe to keep)."""
        idx = np.asarray(indices, dtype=np.intp)
        if idx.size == 0:
            return np.empty((0, self._graph.number_of_nodes()))
        return np.vstack([self.row_by_index(int(i)) for i in idx])

    def rows_to(
        self, sources: Sequence[int], columns: Sequence[int]
    ) -> np.ndarray:
        """Distances from each of *sources* to each of *columns*, as a
        ``(len(sources), len(columns))`` array.

        Equals ``rows(sources)[:, columns]`` but the work scales with the
        *requested* labels — ``O(Σ|label(source)| + s·Σ|label(column)|)``
        — never with ``n``. This is the batch query the shortcut engine's
        lazy tables and the restricted candidate scan are built on.
        """
        src = np.asarray(sources, dtype=np.intp)
        cols = np.asarray(columns, dtype=np.intp)
        out = np.full((src.size, cols.size), INFINITY)
        if src.size == 0 or cols.size == 0:
            return out
        # Concatenate the requested columns' label slices once; every
        # source then reuses the gathered buffers.
        indptr = self._indptr
        col_lengths = (indptr[cols + 1] - indptr[cols]).astype(np.int64)
        total = int(col_lengths.sum())
        if total == 0:
            return out
        gather = np.empty(total, dtype=np.int64)
        position = 0
        for c, length in zip(cols, col_lengths):
            if length:
                start = int(indptr[c])
                gather[position : position + length] = np.arange(
                    start, start + length
                )
                position += int(length)
        col_hubs = self._hubs[gather]
        col_dists = self._dists[gather]
        col_nonempty = col_lengths > 0
        col_indptr = np.zeros(cols.size + 1, dtype=np.int64)
        np.cumsum(col_lengths, out=col_indptr[1:])
        col_starts = col_indptr[:-1][col_nonempty]
        for i, s in enumerate(src):
            touched = self._fill_scratch(int(s))
            candidates = col_dists + self._hub_scratch[col_hubs]
            out[i, col_nonempty] = np.minimum.reduceat(
                candidates, col_starts
            )
            self._clear_scratch(touched)
        return out

    def __repr__(self) -> str:
        return (
            f"HubLabelOracle(n={self._graph.number_of_nodes()}, "
            f"labels={self.label_count()}, cutoff={self._cutoff:.4g})"
        )
