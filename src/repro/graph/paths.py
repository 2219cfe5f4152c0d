"""Shortest-path algorithms over :class:`~repro.graph.graph.WirelessGraph`.

A pure-Python binary-heap Dijkstra is the reference implementation; the
row searches (:func:`source_rows_matrix`, and through it the all-pairs
matrix) additionally have a scipy fast path (``scipy.sparse.csgraph``) that
is used automatically when scipy is importable. Both produce identical
results (covered by tests).
"""

from __future__ import annotations

import heapq
import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.graph.graph import Node, WirelessGraph

INFINITY = math.inf

#: scipy's csgraph treats explicit zeros as "no edge"; exact-zero edge
#: lengths are bumped to this negligible value on the scipy paths so both
#: backends agree (covered by regression tests).
_ZERO_LENGTH_EPSILON = 1e-300


def dijkstra(
    graph: WirelessGraph,
    source: Node,
    cutoff: Optional[float] = None,
) -> Dict[Node, float]:
    """Single-source shortest path lengths from *source*.

    Returns a dict mapping every reachable node (within *cutoff*, if given)
    to its distance. Unreachable nodes are absent from the result.
    """
    src = graph.node_index(source)
    dist = _dijkstra_indices(graph, src, cutoff)
    return {
        graph.index_node(i): d
        for i, d in enumerate(dist)
        if not math.isinf(d)
    }


def _dijkstra_indices(
    graph: WirelessGraph,
    src: int,
    cutoff: Optional[float] = None,
) -> List[float]:
    """Dijkstra over dense indices; returns a distance list with ``inf`` for
    unreachable nodes."""
    n = graph.number_of_nodes()
    dist = [INFINITY] * n
    dist[src] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, src)]
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        if cutoff is not None and d > cutoff:
            # The heap is popped in non-decreasing order, so every remaining
            # entry is at least this far; stop and post-filter below.
            break
        for v, length in graph.neighbors_by_index(u).items():
            nd = d + length
            if nd < dist[v]:
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    if cutoff is not None:
        dist = [d if d <= cutoff else INFINITY for d in dist]
    return dist


def shortest_path_length(graph: WirelessGraph, u: Node, v: Node) -> float:
    """Shortest-path length between *u* and *v* (``inf`` if disconnected)."""
    src = graph.node_index(u)
    dst = graph.node_index(v)
    return _dijkstra_indices(graph, src)[dst]


def shortest_path(
    graph: WirelessGraph, u: Node, v: Node
) -> Tuple[float, List[Node]]:
    """Shortest path between *u* and *v* as ``(length, node_list)``.

    Raises :class:`GraphError` if *v* is unreachable from *u*.
    """
    src, dst = graph.node_index(u), graph.node_index(v)
    n = graph.number_of_nodes()
    dist = [INFINITY] * n
    parent: List[Optional[int]] = [None] * n
    dist[src] = 0.0
    heap: List[Tuple[float, int]] = [(0.0, src)]
    while heap:
        d, x = heapq.heappop(heap)
        if d > dist[x]:
            continue
        if x == dst:
            break
        for y, length in graph.neighbors_by_index(x).items():
            nd = d + length
            if nd < dist[y]:
                dist[y] = nd
                parent[y] = x
                heapq.heappush(heap, (nd, y))
    if math.isinf(dist[dst]):
        raise GraphError(f"{v!r} is unreachable from {u!r}")
    path_indices = [dst]
    while path_indices[-1] != src:
        prev = parent[path_indices[-1]]
        assert prev is not None
        path_indices.append(prev)
    path_indices.reverse()
    return dist[dst], [graph.index_node(i) for i in path_indices]


def all_pairs_distance_matrix(
    graph: WirelessGraph, use_scipy: Optional[bool] = None
) -> np.ndarray:
    """Dense ``n x n`` all-pairs shortest-path matrix (``inf`` when
    disconnected), indexed by the graph's dense node indices.

    *use_scipy* forces the scipy (`True`) or pure-Python (`False`) backend;
    ``None`` auto-selects scipy when available. This is
    :func:`source_rows_matrix` from every node.
    """
    return source_rows_matrix(
        graph, range(graph.number_of_nodes()), use_scipy=use_scipy
    )


def _scipy_available() -> bool:
    try:
        import scipy.sparse.csgraph  # noqa: F401
    except ImportError:
        return False
    return True


def graph_csr(
    graph: WirelessGraph,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The graph's adjacency as CSR arrays ``(indptr, indices, data)``.

    Deterministic given the graph (neighbors are emitted in insertion
    order). Exact-zero edge lengths are preserved as-is; the scipy callers
    bump them themselves.
    """
    n = graph.number_of_nodes()
    indptr = np.zeros(n + 1, dtype=np.int64)
    cols: List[int] = []
    vals: List[float] = []
    for u in range(n):
        nbrs = graph.neighbors_by_index(u)
        indptr[u + 1] = indptr[u] + len(nbrs)
        cols.extend(nbrs.keys())
        vals.extend(nbrs.values())
    return (
        indptr,
        np.asarray(cols, dtype=np.int64),
        np.asarray(vals, dtype=np.float64),
    )


def _scipy_graph(graph: WirelessGraph):
    from scipy.sparse import csr_matrix

    n = graph.number_of_nodes()
    indptr, indices, data = graph_csr(graph)
    data = np.where(data > 0, data, _ZERO_LENGTH_EPSILON)
    return csr_matrix((data, indices, indptr), shape=(n, n))


def source_rows_matrix(
    graph: WirelessGraph,
    sources: Sequence[int],
    use_scipy: Optional[bool] = None,
    limit: Optional[float] = None,
) -> np.ndarray:
    """Shortest-path distances from each of *sources* to every node, as a
    ``(len(sources), n)`` row block (``inf`` when disconnected).

    Cost scales with the number of sources, not with ``n`` squared, which
    is what the sparse distance-oracle tier is built on; from every node
    it is :func:`all_pairs_distance_matrix`.

    *limit* bounds every search at that distance, so each source costs
    its ``limit``-ball instead of the graph: an entry at most *limit*
    equals the unbounded one bit for bit (every prefix of a shortest
    path is no longer than the path), and a larger one reads ``inf``.
    """
    sources = list(sources)
    if not sources:
        return np.empty((0, graph.number_of_nodes()))
    return source_row_search(graph, use_scipy=use_scipy, limit=limit)(
        sources
    )


def source_row_search(
    graph: WirelessGraph,
    *,
    use_scipy: Optional[bool] = None,
    limit: Optional[float] = None,
) -> Callable[[Sequence[int]], np.ndarray]:
    """A reusable :func:`source_rows_matrix` over one graph: the returned
    function maps source indices to their row block, and the graph's CSR
    form is built once here rather than once per call.

    The graph must not be mutated while the function is in use.
    """
    if use_scipy is None:
        use_scipy = _scipy_available()
    if not use_scipy:
        n = graph.number_of_nodes()

        def search(sources: Sequence[int]) -> np.ndarray:
            # Row by row into one block: stacking per-row Python lists
            # would hold every row as float objects at once (up to ~4×
            # the block for the all-pairs matrix).
            rows = np.empty((len(sources), n))
            for slot, src in enumerate(sources):
                rows[slot] = _dijkstra_indices(graph, int(src), limit)
            return rows

        return search
    from scipy.sparse.csgraph import dijkstra as sp_dijkstra

    csr = _scipy_graph(graph)
    bound = INFINITY if limit is None else limit
    return lambda sources: np.atleast_2d(
        sp_dijkstra(csr, directed=False, indices=list(sources), limit=bound)
    )


def ball_indices(
    graph: WirelessGraph, sources: Sequence[int], radius: float
) -> np.ndarray:
    """Sorted dense indices of every node within *radius* of a source.

    One *multi-source* cutoff Dijkstra (every source seeded at distance
    zero) computes ``min_s d(s, v)`` directly, so the union ball is
    explored once — not once per source — and exploration stays bounded
    by the ball size rather than the graph size. Membership
    (``min_s d(s, v) <= radius``) is identical to the union of per-source
    cutoff balls. Sources themselves are always included (distance zero).
    """
    dist: Dict[int, float] = {int(s): 0.0 for s in sources}
    heap: List[Tuple[float, int]] = [(0.0, s) for s in dist]
    heapq.heapify(heap)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist.get(u, INFINITY):
            continue
        if d > radius:
            break
        for v, length in graph.neighbors_by_index(u).items():
            nd = d + length
            if nd <= radius and nd < dist.get(v, INFINITY):
                dist[v] = nd
                heapq.heappush(heap, (nd, v))
    return np.array(
        sorted(i for i, d in dist.items() if d <= radius), dtype=np.intp
    )
