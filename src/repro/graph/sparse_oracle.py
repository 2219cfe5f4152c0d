"""Pair-centric sparse distance oracle: an ``r × n`` row block, ``r ≪ n``.

The MSC objective only ever queries base-graph distances *from* a small set
of relevant sources — the social-pair endpoints and the nodes within the
distance requirement ``d_t`` of one (the paper's §IV pruning observation:
a shortcut endpoint farther than ``d_t`` from every pair endpoint can never
help a pair, and every reachable-through-shortcuts endpoint is within
``d_t`` of an already-placed endpoint, which is itself inside the ball).
:class:`SparseRowOracle` therefore runs Dijkstra only from those sources
and stores the resulting row block, turning the oracle's footprint from
O(n²) into O(r·n) and its build time from n single-source runs into r.

Rows outside the block are still served: a straggler query (rare — e.g. a
later greedy round placing a shortcut endpoint discovered through an
earlier shortcut's ball) fills that row lazily with one more Dijkstra run
and caches it. The oracle only chooses which rows to precompute.

Cutoff
------

By the same observation no search needs to go past ``d_t`` either, so
every row search (block and stragglers) stops at ``cutoff`` — the policies
pass ``threshold_cutoff(d_t)`` — and a build costs ``r`` cutoff balls
instead of ``r`` whole-graph searches. A distance at most the cutoff is
exact — bit for bit the full row's entry — and a larger one reads ``inf``,
an upper bound. This is the hub tier's threshold-cutoff argument (see
:mod:`repro.graph.hub_labels`): every solver decision compares a distance,
or a sum of non-negative legs, against ``satisfaction_limit(d_t)``, which
is below the cutoff, so each comparison resolves exactly as on a full
oracle and placements stay identical. An instance refuses a request whose
threshold lies beyond the cutoff. ``cutoff=math.inf`` gives exact full
rows through the same searches.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.exceptions import GraphError
from repro.graph.graph import Node, WirelessGraph
from repro.graph.paths import ball_indices, source_rows_matrix


def relevant_source_indices(
    graph: WirelessGraph,
    seeds: Sequence[int],
    radius: float,
) -> np.ndarray:
    """Sorted dense indices the sparse oracle should precompute rows for:
    the *seeds* (pair endpoints) plus every node within *radius* (``d_t``)
    of one."""
    return ball_indices(graph, sorted({int(s) for s in seeds}), radius)


class SparseRowOracle:
    """Source-restricted distance oracle over a fixed base graph.

    Serves the same row/distance protocol as
    :class:`~repro.graph.distances.DistanceOracle` from an ``(r, n)`` row
    block holding single-source distances for the *relevant* sources
    (*seeds* plus their ``radius``-ball). Any other row is computed lazily
    on first access (one Dijkstra run, cached).

    Args:
        graph: the base graph (must not be mutated afterwards).
        seeds: dense indices distances are needed from (pair endpoints).
        radius: ball radius (the instance's ``d_t``); relevant sources are
            the seeds plus all nodes within *radius* of one.
        use_scipy: force the scipy/pure-Python backend (``None`` = auto).
            The same backend serves lazy fills, so every row matches what a
            dense oracle with the same setting would hold.
        cutoff: distance bound on every row search. Entries are exact up
            to the cutoff and read ``inf`` beyond it — sufficient for every
            threshold comparison the solvers make (see module docs);
            ``math.inf`` keeps exact full rows.
    """

    #: Process-local count of row-block builds — see
    #: :class:`~repro.graph.distances.DistanceOracle`.
    build_count: int = 0

    def __init__(
        self,
        graph: WirelessGraph,
        seeds: Sequence[int] = (),
        *,
        radius: float,
        use_scipy: Optional[bool] = None,
        cutoff: float,
    ) -> None:
        if cutoff < 0:
            raise GraphError(f"negative cutoff {cutoff}")
        n = graph.number_of_nodes()
        if any(not 0 <= int(s) < n for s in seeds):
            raise GraphError(f"seed indices out of range for n={n}")
        self._graph = graph
        self._use_scipy = use_scipy
        self._cutoff = float(cutoff)
        self._sources = relevant_source_indices(graph, seeds, radius)
        self._slot_of: Dict[int, int] = {
            int(s): i for i, s in enumerate(self._sources)
        }
        self._block: Optional[np.ndarray] = None
        self._extra: Dict[int, np.ndarray] = {}
        self._lazy_fills = 0

    # ------------------------------------------------------------ the block

    @property
    def graph(self) -> WirelessGraph:
        return self._graph

    @property
    def cutoff(self) -> float:
        """The row-search cutoff."""
        return self._cutoff

    @property
    def source_indices(self) -> np.ndarray:
        """The precomputed sources, sorted (read-only view)."""
        view = self._sources.view()
        view.setflags(write=False)
        return view

    @property
    def block(self) -> np.ndarray:
        """The ``(r, n)`` row block (computed on first access, read-only)."""
        if self._block is None:
            self._block = self._search_rows(self._sources)
            self._block.setflags(write=False)
            SparseRowOracle.build_count += 1
        return self._block

    def _search_rows(self, sources: Sequence[int]) -> np.ndarray:
        """Rows for *sources* from fresh searches bounded by the cutoff."""
        return source_rows_matrix(
            self._graph,
            [int(s) for s in sources],
            use_scipy=self._use_scipy,
            limit=self._cutoff,
        )

    @property
    def lazy_fills(self) -> int:
        """Rows served from outside the precomputed block so far."""
        return self._lazy_fills

    def number_of_nodes(self) -> int:
        return self._graph.number_of_nodes()

    def block_nbytes(self) -> int:
        """Memory footprint of the row block in bytes (without lazy rows)."""
        return self._sources.size * self._graph.number_of_nodes() * 8

    # -------------------------------------------------------------- queries

    def row_by_index(self, index: int) -> np.ndarray:
        """Distances from dense *index* to every node (read-only).

        Block rows are served as views; stragglers are computed once and
        cached.
        """
        slot = self._slot_of.get(int(index))
        if slot is not None:
            return self.block[slot, :]
        cached = self._extra.get(int(index))
        if cached is None:
            cached = self._search_rows([int(index)])[0]
            cached.setflags(write=False)
            self._extra[int(index)] = cached
            self._lazy_fills += 1
        return cached

    def row(self, node: Node) -> np.ndarray:
        return self.row_by_index(self._graph.node_index(node))

    def rows(self, indices: Sequence[int]) -> np.ndarray:
        """Distances from each of *indices* to every node, as a
        ``(len(indices), n)`` block (a fresh array; safe to keep)."""
        idx = np.asarray(indices, dtype=np.intp)
        slots = [self._slot_of.get(int(i)) for i in idx]
        if all(s is not None for s in slots):
            return self.block[np.asarray(slots, dtype=np.intp), :]
        return np.vstack([self.row_by_index(int(i)) for i in idx])

    def rows_to(
        self, sources: Sequence[int], columns: Sequence[int]
    ) -> np.ndarray:
        """Distances from each of *sources* to each of *columns*, as a
        ``(len(sources), len(columns))`` array (a fresh array).

        Block rows are gathered directly; straggler rows are computed
        (and cached) only for sources outside the block.
        """
        src = np.asarray(sources, dtype=np.intp)
        cols = np.asarray(columns, dtype=np.intp)
        slots = np.array(
            [self._slot_of.get(int(i), -1) for i in src], dtype=np.intp
        )
        inside = slots >= 0
        out = np.empty((src.size, cols.size))
        if inside.any():
            out[inside] = self.block[np.ix_(slots[inside], cols)]
        for i in np.flatnonzero(~inside):
            out[i] = self.row_by_index(int(src[i]))[cols]
        return out

    def distance_by_index(self, iu: int, iv: int) -> float:
        """Base-graph distance between dense indices *iu* and *iv* (either
        endpoint's row may serve the query — distances are symmetric)."""
        slot = self._slot_of.get(int(iu))
        if slot is not None:
            return float(self.block[slot, iv])
        slot = self._slot_of.get(int(iv))
        if slot is not None:
            return float(self.block[slot, iu])
        return float(self.row_by_index(iu)[iv])

    def distance(self, u: Node, v: Node) -> float:
        return self.distance_by_index(
            self._graph.node_index(u), self._graph.node_index(v)
        )

    def __repr__(self) -> str:
        return (
            f"SparseRowOracle(n={self._graph.number_of_nodes()}, "
            f"r={self._sources.size}, lazy={self._lazy_fills}, "
            f"cutoff={self._cutoff:.4g})"
        )
