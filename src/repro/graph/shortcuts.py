"""Exact distances in a graph augmented with zero-length shortcut edges.

Shortcut edges have length 0, so the endpoints of any connected group of
shortcut edges collapse — for distance purposes — into a single *supernode*.
Given the base graph's APSP matrix ``D`` (from a
:class:`~repro.graph.distances.DistanceOracle`), the augmented distance is

``d_F(u, w) = min(D[u, w],  min_{a, b} (D[u, comp_a] + C[a, b] + D[comp_b, w]))``

where ``D[u, comp]`` is the minimum base distance from ``u`` to any member of
the component, and ``C`` is the shortest-path closure of the inter-component
minimum-distance matrix. With ``c`` components (``c <= |F|``), building the
engine costs ``O(c^2 n + c^3)`` and each ``distances_from`` query is one
vectorized pass over ``n`` — far cheaper than re-running Dijkstra on the
augmented graph, and exact (verified against networkx in the test suite).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError
from repro.failure.models import satisfaction_limit
from repro.graph.distances import DistanceOracle
from repro.graph.graph import Node
from repro.util.unionfind import UnionFind

ShortcutPair = Tuple[Node, Node]


def _floyd_warshall_closure(matrix: np.ndarray) -> np.ndarray:
    """Min-plus shortest-path closure (diag = 0) of a small dense matrix,
    or of every matrix in a ``(..., c, c)`` stack at once."""
    closure = matrix.copy()
    c = closure.shape[-1]
    diagonal = np.arange(c)
    closure[..., diagonal, diagonal] = 0.0
    via = np.empty_like(closure)
    for mid in range(c):
        np.add(
            closure[..., :, mid : mid + 1],
            closure[..., mid : mid + 1, :],
            out=via,
        )
        np.minimum(closure, via, out=closure)
    return closure


def check_shortcut_indices(
    index_pairs: Iterable[Tuple[int, int]], n: int
) -> None:
    """Raise :class:`GraphError` at the first self-loop or out-of-range
    shortcut index pair."""
    for iu, iv in index_pairs:
        if iu == iv:
            raise GraphError(f"shortcut self-loop on index {iu}")
        if not (0 <= iu < n and 0 <= iv < n):
            raise GraphError(
                f"shortcut index pair ({iu}, {iv}) out of range for n={n}"
            )


class ShortcutDistanceEngine:
    """Distance queries on ``G' = (V, E ∪ F)`` for a fixed shortcut set F.

    The engine is immutable; evaluating a different shortcut set means
    building a new engine — either from scratch, or incrementally from an
    engine for a subset via :meth:`extended` (the greedy/EA hot path, which
    derives the new tables from the parent's instead of re-reducing the
    APSP matrix).
    """

    def __init__(
        self,
        oracle: DistanceOracle,
        shortcuts: Iterable[ShortcutPair],
    ) -> None:
        graph = oracle.graph
        index_pairs = []
        for u, v in shortcuts:
            index_pairs.append((graph.node_index(u), graph.node_index(v)))
        self._init_from_indices(oracle, index_pairs)

    @classmethod
    def from_index_pairs(
        cls,
        oracle: DistanceOracle,
        index_pairs: Iterable[Tuple[int, int]],
    ) -> "ShortcutDistanceEngine":
        """Build an engine directly from dense index pairs (fast path used by
        the σ evaluator, which works in index space throughout)."""
        engine = cls.__new__(cls)
        engine._init_from_indices(oracle, list(index_pairs))
        return engine

    def _init_from_indices(
        self,
        oracle: DistanceOracle,
        index_pairs: List[Tuple[int, int]],
    ) -> None:
        self._oracle = oracle
        check_shortcut_indices(index_pairs, oracle.number_of_nodes())
        self._shortcuts: List[Tuple[int, int]] = []
        uf = UnionFind()
        for iu, iv in index_pairs:
            self._shortcuts.append((iu, iv))
            uf.union(iu, iv)
        components = uf.components()
        self._components: List[List[int]] = [sorted(c) for c in components]
        self._build_tables()

    def _build_tables(self) -> None:
        c = len(self._components)
        oracle = self._oracle
        if c == 0:
            self._comp_min = np.empty((0, oracle.number_of_nodes()))
            self._inter = np.empty((0, 0))
            self._closure = np.empty((0, 0))
            return
        if getattr(oracle, "prefers_ball_universe", False):
            # Lazy tables (hub-label tier): never materialize the (c, n)
            # comp_min block. F is tiny, so the inter-supernode matrix is
            # a handful of label-sliced set-to-set queries, and the
            # column-restricted queries derive their comp_min slices on
            # demand (:meth:`_comp_block`). Full-width rows appear only
            # if a consumer asks for a full-row query (off the hot path).
            self._comp_min = None
            inter = np.empty((c, c))
            for a in range(c):
                inter[a, a] = 0.0
                for b in range(a + 1, c):
                    value = float(
                        oracle.rows_to(
                            self._components[a], self._components[b]
                        ).min()
                    )
                    inter[a, b] = inter[b, a] = value
            self._inter = inter
        else:
            # comp_min[a, :] = distance from supernode a to every base
            # node. Row access (never the square matrix) keeps the engine
            # working unchanged on row-block oracles.
            self._comp_min = np.vstack(
                [
                    oracle.rows(members).min(axis=0)
                    for members in self._components
                ]
            )
            # Pairwise supernode distances through the base graph, then
            # closed under taking further shortcut hops (supernodes can
            # chain).
            self._inter = np.vstack(
                [
                    self._comp_min[:, members].min(axis=1)
                    for members in self._components
                ]
            )
        self._closure = _floyd_warshall_closure(self._inter)

    def _comp_min_table(self) -> np.ndarray:
        """The full ``(c, n)`` comp_min block, materialized on demand in
        lazy mode (full-width queries only; restricted queries go through
        :meth:`_comp_block`)."""
        if self._comp_min is None:
            oracle = self._oracle
            self._comp_min = np.vstack(
                [
                    oracle.rows(members).min(axis=0)
                    for members in self._components
                ]
            )
        return self._comp_min

    def _comp_block(self, columns: np.ndarray) -> np.ndarray:
        """comp_min restricted to *columns* — ``(c, len(columns))``;
        label-sliced in lazy mode, a column view otherwise."""
        if self._comp_min is not None:
            return self._comp_min[:, columns]
        rows_to = self._oracle.rows_to
        return np.vstack(
            [
                rows_to(members, columns).min(axis=0)
                for members in self._components
            ]
        )

    # ----------------------------------------------------- incremental build

    def extended(self, shortcut: ShortcutPair) -> "ShortcutDistanceEngine":
        """Engine for ``F ∪ {shortcut}``, derived from this engine's tables.

        Equivalent to building a fresh engine for the extended set, but the
        supernode tables are updated incrementally: the affected component's
        ``comp_min`` row is an elementwise min of existing rows (plus at most
        two APSP rows), the inter-supernode matrix changes only in that
        component's row/column, and only the small ``c × c`` closure is
        recomputed — ``O(cn + c³)`` with ``c <= |F|`` tiny, instead of
        re-reducing the APSP matrix over every component member.
        """
        graph = self._oracle.graph
        u, v = shortcut
        return self.extended_by_index(
            graph.node_index(u), graph.node_index(v)
        )

    def extended_by_index(
        self, iu: int, iv: int
    ) -> "ShortcutDistanceEngine":
        """Index-space :meth:`extended` (fast path for the σ evaluator)."""
        check_shortcut_indices([(iu, iv)], self._oracle.number_of_nodes())
        child = ShortcutDistanceEngine.__new__(ShortcutDistanceEngine)
        child._oracle = self._oracle
        child._shortcuts = self._shortcuts + [(iu, iv)]

        comp_u = comp_v = -1
        for j, members in enumerate(self._components):
            if iu in members:
                comp_u = j
            if iv in members:
                comp_v = j
        if comp_u >= 0 and comp_u == comp_v:
            # Redundant edge inside one supernode: tables are unchanged
            # (engines are immutable, so sharing them is safe).
            child._components = self._components
            child._comp_min = self._comp_min
            child._inter = self._inter
            child._closure = self._closure
            return child

        oracle = self._oracle
        # A lazy parent stays lazy: the touched inter row/column comes
        # from label-sliced set-to-set queries, and no comp_min rows are
        # carried at all. (A parent whose comp_min was materialized by a
        # full-width query keeps the materialized update path.)
        lazy = self._comp_min is None
        components = [list(m) for m in self._components]
        comp_min_rows = None if lazy else list(self._comp_min)
        if comp_u < 0 and comp_v < 0:
            # Fresh two-node supernode, appended last.
            touched = len(components)
            components.append(sorted((iu, iv)))
            if not lazy:
                comp_min_rows.append(
                    np.minimum(
                        oracle.row_by_index(iu), oracle.row_by_index(iv)
                    )
                )
            kept = list(range(len(self._components)))
        elif comp_u >= 0 and comp_v >= 0:
            # Merge two existing supernodes (keep the lower slot).
            lo, hi = sorted((comp_u, comp_v))
            touched = lo
            components[lo] = sorted(components[lo] + components[hi])
            if not lazy:
                comp_min_rows[lo] = np.minimum(
                    comp_min_rows[lo], comp_min_rows[hi]
                )
                del comp_min_rows[hi]
            del components[hi]
            kept = [j for j in range(len(self._components)) if j != hi]
        else:
            # Absorb the loose endpoint into the existing supernode.
            touched = comp_u if comp_u >= 0 else comp_v
            loose = iv if comp_u >= 0 else iu
            components[touched] = sorted(components[touched] + [loose])
            if not lazy:
                comp_min_rows[touched] = np.minimum(
                    comp_min_rows[touched], oracle.row_by_index(loose)
                )
            kept = list(range(len(self._components)))

        child._components = [sorted(m) for m in components]
        child._comp_min = None if lazy else np.vstack(comp_min_rows)
        # Inter-supernode base distances change only in the touched row and
        # column (base distances between untouched member sets are fixed).
        c = len(components)
        inter = np.empty((c, c))
        kept_rows = [j for j in range(c) if j != touched]
        if kept_rows:
            sub = np.ix_(
                [kept[j] for j in kept_rows], [kept[j] for j in kept_rows]
            )
            inter[np.ix_(kept_rows, kept_rows)] = self._inter[sub]
        touched_members = child._components[touched]
        if lazy:
            touched_row = np.array(
                [
                    float(oracle.rows_to(touched_members, members).min())
                    for members in child._components
                ]
            )
        else:
            touched_row = np.array(
                [
                    child._comp_min[touched, members].min()
                    for members in child._components
                ]
            )
        inter[touched, :] = touched_row
        inter[:, touched] = touched_row  # base distances are symmetric
        child._inter = inter
        child._closure = _floyd_warshall_closure(inter)
        return child

    # ------------------------------------------------------------ inspection

    @property
    def oracle(self) -> DistanceOracle:
        return self._oracle

    @property
    def shortcut_indices(self) -> List[Tuple[int, int]]:
        """The shortcut edges as dense index pairs, in input order."""
        return list(self._shortcuts)

    @property
    def component_indices(self) -> List[List[int]]:
        """Supernode membership (dense indices), one list per component."""
        return [list(c) for c in self._components]

    # --------------------------------------------------------------- queries

    def distances_from_index(self, src: int) -> np.ndarray:
        """Augmented distances from dense index *src* to every node."""
        base = self._oracle.row_by_index(src)
        if not self._components:
            return base.copy()
        comp_min = self._comp_min_table()
        entry = comp_min[:, src]  # cost to reach each supernode
        reach = (entry[:, None] + self._closure).min(axis=0)
        via = (reach[:, None] + comp_min).min(axis=0)
        return np.minimum(base, via)

    def distances_from(self, node: Node) -> np.ndarray:
        """Augmented distances from *node* to every node (dense order)."""
        return self.distances_from_index(
            self._oracle.graph.node_index(node)
        )

    def distances_from_indices(self, sources: Sequence[int]) -> np.ndarray:
        """Augmented distances from each of *sources* to every node, as an
        ``(len(sources), n)`` array.

        Equivalent to stacking :meth:`distances_from_index` per source but
        performed in a handful of batched numpy operations — the fast path
        for evaluating σ over many social pairs at once.
        """
        src = np.asarray(sources, dtype=np.intp)
        out = self._oracle.rows(src)  # fresh (s, n) array; used as scratch
        if not self._components:
            return out
        comp_min = self._comp_min_table()
        entry = comp_min[:, src]  # (c, s): cost to reach supernodes
        # reach[c, i]: source i to supernode c, chaining through others.
        reach = (entry[:, None, :] + self._closure[:, :, None]).min(axis=0)
        # Fold the supernode routes in one component at a time: the naive
        # broadcast materializes a (c, s, n) temporary that grows with every
        # placed shortcut, while this loop keeps the peak at two (s, n)
        # arrays no matter how large F gets.
        via = np.empty_like(out)
        for a in range(len(self._components)):
            np.add(reach[a, :, None], comp_min[a, None, :], out=via)
            np.minimum(out, via, out=out)
        return out

    def distances_from_indices_to(
        self, sources: Sequence[int], columns: Sequence[int]
    ) -> np.ndarray:
        """Augmented distances from each of *sources* to each of *columns*,
        as a ``(len(sources), len(columns))`` array.

        Equals ``distances_from_indices(sources)[:, columns]`` but never
        materializes the full-width block — peak memory and work scale
        with the requested column set (the restricted-candidate hot path).
        """
        src = np.asarray(sources, dtype=np.intp)
        cols = np.asarray(columns, dtype=np.intp)
        # Every tier gathers the base block directly (label-sliced on the
        # hub tier: work scales with the requested labels, never with n).
        out = self._oracle.rows_to(src, cols)
        if not self._components:
            return out
        entry = self._comp_block(src)  # (c, s): cost to reach supernodes
        reach = (entry[:, None, :] + self._closure[:, :, None]).min(axis=0)
        comp_cols = self._comp_block(cols)  # (c, len(cols))
        via = np.empty_like(out)
        for a in range(len(self._components)):
            np.add(reach[a, :, None], comp_cols[a, None, :], out=via)
            np.minimum(out, via, out=out)
        return out

    def distance_by_index(self, iu: int, iv: int) -> float:
        """Augmented distance between dense indices *iu* and *iv*."""
        best = float(self._oracle.distance_by_index(iu, iv))
        if self._components:
            block = self._comp_block(np.array([iu, iv], dtype=np.intp))
            reach = (block[:, :1] + self._closure).min(axis=0)
            best = min(best, float((reach + block[:, 1]).min()))
        return best

    def distance(self, u: Node, v: Node) -> float:
        """Augmented distance between nodes *u* and *v*."""
        graph = self._oracle.graph
        return self.distance_by_index(
            graph.node_index(u), graph.node_index(v)
        )

    def satisfied_pairs(
        self,
        pairs: Sequence[Tuple[Node, Node]],
        threshold: float,
    ) -> List[bool]:
        """For each (u, w) pair, whether its augmented distance is within
        *threshold* (the paper's distance requirement ``d_t``).

        A small tolerance absorbs floating-point noise so pairs sitting
        exactly on the threshold count as satisfied.
        """
        graph = self._oracle.graph
        limit = satisfaction_limit(threshold)
        # Group by source node so pairs sharing an endpoint reuse one query.
        by_source: Dict[int, np.ndarray] = {}
        out: List[bool] = []
        for u, w in pairs:
            iu, iw = graph.node_index(u), graph.node_index(w)
            if iu not in by_source:
                by_source[iu] = self.distances_from_index(iu)
            out.append(bool(by_source[iu][iw] <= limit))
        return out
