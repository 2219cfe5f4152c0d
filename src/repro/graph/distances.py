"""Cached all-pairs distance oracle for a fixed base graph.

Every MSC algorithm repeatedly asks for base-graph distances between social
pair endpoints and candidate shortcut endpoints. :class:`DistanceOracle`
computes the APSP matrix once and serves O(1) queries plus numpy row views
for the vectorized evaluators.

Oracle protocol
---------------

Distance consumers (the shortcut engine, the σ evaluator, the solvers) are
written against the *row* accessors — ``row_by_index``, ``rows``,
``rows_to`` (a sources × columns block), ``distance_by_index`` — never
against a full square matrix. That is what
lets :class:`~repro.graph.sparse_oracle.SparseRowOracle` slot in behind the
same call sites with an ``r × n`` row block (``r ≪ n``) instead of the
O(n²) matrix. Only this dense tier has ``matrix``, for the consumers
that still read the full square.

Every full build of distance rows bumps the class-level ``build_count``
(process-local), which the fan-out and fault-injection tests use to
assert that an APSP/row block is computed exactly once per distinct base
graph.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.graph.graph import Node, WirelessGraph
from repro.graph.paths import all_pairs_distance_matrix


class DistanceOracle:
    """All-pairs shortest-path distances of a base graph, computed lazily.

    The matrix is indexed by the graph's dense node indices; node-keyed
    convenience accessors are provided. The oracle assumes the graph is not
    mutated after the first query — callers that modify the graph must build
    a fresh oracle.
    """

    #: Process-local count of full APSP builds (matrices adopted through
    #: :meth:`with_matrix`, such as fault-injection memo hits, do not count).
    build_count: int = 0

    def __init__(
        self, graph: WirelessGraph, use_scipy: Optional[bool] = None
    ) -> None:
        self._graph = graph
        self._use_scipy = use_scipy
        self._matrix: Optional[np.ndarray] = None

    @classmethod
    def with_matrix(
        cls, graph: WirelessGraph, matrix: np.ndarray
    ) -> "DistanceOracle":
        """Oracle adopting an already-computed APSP *matrix* for *graph*.

        The matrix is used as-is (marked read-only, never copied), which is
        how the fault-injection memo reuses one APSP computation across
        cells without rebuilding it. The caller is responsible for the
        matrix actually belonging to *graph* (match signatures via
        :func:`~repro.graph.graph.graph_signature`).
        """
        n = graph.number_of_nodes()
        if matrix.shape != (n, n):
            raise ValueError(
                f"matrix shape {matrix.shape} != ({n}, {n})"
            )
        oracle = cls(graph)
        if matrix.flags.writeable:
            matrix = matrix.view()
            matrix.setflags(write=False)
        oracle._matrix = matrix
        return oracle

    @property
    def graph(self) -> WirelessGraph:
        return self._graph

    @property
    def matrix(self) -> np.ndarray:
        """The full ``n x n`` distance matrix (computed on first access).

        The returned array is the oracle's internal buffer and is marked
        read-only — writing through it raises, enforcing the documented
        contract (callers needing a mutable copy must ``.copy()``).
        """
        if self._matrix is None:
            self._matrix = all_pairs_distance_matrix(
                self._graph, use_scipy=self._use_scipy
            )
            self._matrix.setflags(write=False)
            DistanceOracle.build_count += 1
        return self._matrix

    def distance(self, u: Node, v: Node) -> float:
        """Base-graph distance between nodes *u* and *v*."""
        return float(
            self.matrix[self._graph.node_index(u), self._graph.node_index(v)]
        )

    def distance_by_index(self, iu: int, iv: int) -> float:
        """Base-graph distance between dense indices *iu* and *iv*."""
        return float(self.matrix[iu, iv])

    def row(self, node: Node) -> np.ndarray:
        """Distances from *node* to every node, as a read-only numpy row."""
        return self.matrix[self._graph.node_index(node), :]

    def row_by_index(self, index: int) -> np.ndarray:
        """Distances from dense *index* to every node."""
        return self.matrix[index, :]

    def rows(self, indices: Sequence[int]) -> np.ndarray:
        """Distances from each of *indices* to every node, as a
        ``(len(indices), n)`` block (a fresh array; safe to keep)."""
        return self.matrix[np.asarray(indices, dtype=np.intp), :]

    def rows_to(
        self, sources: Sequence[int], columns: Sequence[int]
    ) -> np.ndarray:
        """Distances from each of *sources* to each of *columns*, as a
        ``(len(sources), len(columns))`` array (a fresh array)."""
        src = np.asarray(sources, dtype=np.intp)
        return self.matrix[src[:, None], np.asarray(columns, dtype=np.intp)]

    def number_of_nodes(self) -> int:
        return self._graph.number_of_nodes()
