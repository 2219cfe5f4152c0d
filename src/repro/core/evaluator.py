"""The σ objective: number of important social pairs maintained by F.

:class:`SigmaEvaluator` is the exact objective of the MSC problem.

A point evaluation reads only distances between the pair endpoints and the
``t <= 2k`` endpoints ``T`` of F (its *terminals*), never an n-wide row.
Gather the base distances from T to the endpoints of the pairs the base
graph leaves unsatisfied and within T, set F's cells of the ``T × T`` block
to 0 and close it under min-plus (Floyd–Warshall) into ``C``; then

``d_F(u, w) = min(d(u, w), min over a, b in T of d(u, a) + C(a, b) + d(b, w))``

— a path that uses a shortcut first enters one at ``a`` and last leaves one
at ``b``, and between terminals it runs on base segments. Every segment of
a path no longer than ``d_t`` is itself within ``d_t``, so a hub-label
index cut off at the threshold is exact on every term that can satisfy a
pair. :meth:`SigmaEvaluator.value_many` evaluates many placements in one
numpy pass, in blocks of at most :data:`POINT_BLOCK_ELEMENTS`;
:meth:`~SigmaEvaluator.satisfied` and :meth:`~SigmaEvaluator.value` are
its one-placement case.

The one-step lookahead scores every candidate edge at once: for an
unsatisfied pair ``(u, w)``, the candidate ``(a, b)`` satisfies it iff
``min(d_F(u,a) + d_F(b,w), d_F(u,b) + d_F(a,w)) <= d_t`` — the distances
are already *augmented* by F, so the lookahead is exact, not a bound.
Distances are nonnegative, so both endpoints of a satisfying candidate lie
within ``d_t`` of the pair. σ's one scan therefore works over the
base-distance ``d_t``-ball of the pair endpoints and placed shortcut
endpoints (:meth:`SigmaEvaluator.candidate_universe`) and scatter-adds each
pair's reduced mask into an ``(r, r)`` block (:class:`PairScanAccumulator`,
chunked to bound peak memory). The scan reads augmented rows from a
:class:`~repro.graph.shortcuts.ShortcutDistanceEngine` for F; engines are
memoized in the substrate's LRU, and a miss whose parent set ``F \\ {e}``
is cached derives the engine incrementally (greedy rounds grow F one edge
at a time).
:meth:`~SigmaEvaluator.add_candidates_restricted` returns the block with
its universe; :meth:`~SigmaEvaluator.add_candidates` expands it to
``(n, n)``, filling the zero-gain cells with ``σ(F)``.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.problem import MSCInstance
from repro.core.substrate import (  # noqa: F401  (re-exported: historical home)
    DEFAULT_ENGINE_CACHE_SIZE,
    ENGINE_CACHE_MIN_N,
    EngineCache,
    default_engine_cache_size,
)
from repro.failure.models import satisfaction_limit
from repro.graph.paths import ball_indices
from repro.graph.shortcuts import (
    ShortcutDistanceEngine,
    _floyd_warshall_closure,
    check_shortcut_indices,
)
from repro.types import IndexPair

#: Peak per-pair temporary size (elements) for the chunked candidate scan.
DEFAULT_CHUNK_ELEMENTS = 1 << 22

#: Peak temporary size (elements) of one batched point-evaluation block
#: (:meth:`SigmaEvaluator.satisfied_many`): P placements with t terminals
#: each hold ``P·t·(t + |U| + |S| + m)`` elements for the open pairs'
#: m pairs, |S| endpoints and |U| first endpoints, and the block's terminal
#: gather holds up to ``min(n, P·t)²``.
POINT_BLOCK_ELEMENTS = 1 << 16


class PairScanAccumulator:
    """Index-based scatter-add accumulator for the σ candidate scan.

    Per-pair candidate masks arrive as flat cell indices
    (:meth:`add_pair`); they are buffered and folded into the dense
    ``(n, n)`` accumulator with one :func:`numpy.bincount` per flush —
    orders of magnitude cheaper than fancy-indexed ``+=`` per pair.
    Buffered indices are flushed once they exceed *chunk_elements*, so peak
    memory stays bounded regardless of how many pairs contribute.
    """

    def __init__(
        self,
        n: int,
        *,
        weighted: bool = False,
        chunk_elements: int = DEFAULT_CHUNK_ELEMENTS,
    ) -> None:
        self._n = n
        self._chunk_elements = max(int(chunk_elements), 1)
        self.acc = np.zeros(
            (n, n), dtype=np.float64 if weighted else np.int32
        )
        self._flat: List[np.ndarray] = []
        self._weights: Optional[List[np.ndarray]] = [] if weighted else None
        self._pending = 0

    def add_pair(
        self,
        du: np.ndarray,
        dw: np.ndarray,
        limit: float,
        weight: Optional[float] = None,
    ) -> None:
        """Accumulate one pair's candidate-satisfaction mask.

        Candidate ``(a, b)`` satisfies the pair iff
        ``du[a] + dw[b] <= limit`` or ``du[b] + dw[a] <= limit``. Distances
        are nonnegative, so every satisfying index has ``du <= limit`` or
        ``dw <= limit`` — the mask is computed only over that reduced index
        set, in row chunks whose temporaries stay under the chunk budget.
        The accumulated counts match the dense ``mask | mask.T`` form (the
        historical ``mask + mask.T - (mask & mask.T)``) cell for cell.
        """
        near = ((du <= limit) | (dw <= limit)).nonzero()[0]
        if near.size == 0:
            return
        du_r = du[near]
        dw_r = dw[near]
        row_offsets = near * self._n
        rows_per_chunk = max(1, self._chunk_elements // near.size)
        for start in range(0, near.size, rows_per_chunk):
            stop = min(start + rows_per_chunk, near.size)
            block = (du_r[start:stop, None] + dw_r[None, :]) <= limit
            if stop - start == near.size:
                # One chunk holds the whole square block, and the reverse
                # orientation is its transpose (float + commutes).
                block |= block.T
            else:
                block |= (dw_r[start:stop, None] + du_r[None, :]) <= limit
            flat = (row_offsets[start:stop, None] + near[None, :])[block]
            if flat.size == 0:
                continue
            self._flat.append(flat)
            if self._weights is not None:
                self._weights.append(
                    np.full(flat.size, 0.0 if weight is None else weight)
                )
            self._pending += flat.size
            if self._pending >= self._chunk_elements:
                self.flush()

    def flush(self) -> None:
        """Fold the buffered indices into the dense accumulator."""
        if not self._flat:
            return
        flat = np.concatenate(self._flat)
        cells = self._n * self._n
        weights = (
            None if self._weights is None
            else np.concatenate(self._weights)
        )
        if flat.size * 4 < cells:
            # Sparse flush: scatter straight into the accumulator.
            # bincount would allocate a dense int64/float64 array over all
            # n² cells — a temporary that would rival the accumulator
            # itself.
            acc_flat = self.acc.reshape(-1)
            np.add.at(acc_flat, flat, 1 if weights is None else weights)
        elif weights is None:
            counts = np.bincount(flat, minlength=cells)
            # In-place add with an explicit cast: bincount always yields
            # int64, and a cast into the accumulator avoids materializing
            # an extra (n, n) converted copy per flush.
            np.add(
                self.acc,
                counts.reshape(self._n, self._n),
                out=self.acc,
                casting="unsafe",
            )
        else:
            counts = np.bincount(flat, weights=weights, minlength=cells)
            self.acc += counts.reshape(self._n, self._n)
        if self._weights is not None:
            self._weights.clear()
        self._flat.clear()
        self._pending = 0

    def result(self) -> np.ndarray:
        self.flush()
        return self.acc


class SigmaEvaluator:
    """Exact evaluation of σ(F) for one MSC instance.

    The evaluator never mutates the instance; shortcut sets are passed per
    call as sequences of canonical index pairs.

    Args:
        instance: the MSC instance.
        engine_cache_size: LRU capacity of the shortcut-engine memo behind
            the candidate scan (point evaluations use no engine); ``0``
            disables engine reuse (every scan rebuilds from the APSP
            matrix). ``None`` (default) adopts the **shared** cache of the
            instance's :class:`~repro.core.substrate.Substrate` — every
            evaluator, planner session and served request over one
            substrate then reuses each other's incremental engine
            extensions (the substrate auto-sizes it:
            :data:`DEFAULT_ENGINE_CACHE_SIZE` from
            :data:`ENGINE_CACHE_MIN_N` nodes up, disabled below — tiny
            instances never pay the cache bookkeeping). An explicit size
            always builds a private cache.
    """

    def __init__(
        self,
        instance: MSCInstance,
        *,
        engine_cache_size: Optional[int] = None,
    ) -> None:
        self.instance = instance
        self.threshold = instance.d_threshold
        self.limit = satisfaction_limit(self.threshold)
        if engine_cache_size is None:
            # Adopt the substrate's shared engine LRU so concurrent
            # evaluators over one substrate (batch solves, planner
            # sessions, served requests) reuse each other's engines.
            self.engine_cache = instance.substrate.engine_cache
        else:
            self.engine_cache = EngineCache(
                instance.oracle, engine_cache_size
            )
        self._pairs = instance.pair_indices
        oracle = instance.oracle
        self.base_satisfied: List[bool] = [
            bool(oracle.distance_by_index(iu, iw) <= self.limit)
            for iu, iw in self._pairs
        ]
        self.base_sigma = sum(self.base_satisfied)
        # Point-evaluation plumbing: only the pairs the base graph leaves
        # unsatisfied ("open") can change. The kernel gathers distances
        # from the terminals to their distinct endpoints (_open_sources);
        # per open pair, the columns of its endpoints there, with the
        # first endpoints deduplicated (_open_u, _open_u_slot).
        self._base = np.array(self.base_satisfied, dtype=bool)
        self._open = np.flatnonzero(~self._base)
        ends = np.array(self._pairs, dtype=np.intp).reshape(-1, 2)
        self._open_sources, columns = np.unique(
            ends[self._open].ravel(), return_inverse=True
        )
        columns = columns.reshape(-1, 2)
        self._open_u, self._open_u_slot = np.unique(
            columns[:, 0], return_inverse=True
        )
        self._open_w = columns[:, 1]
        # Fixed index plumbing for the candidate scan: the distinct pair
        # endpoints (query sources) and, per pair, the rows of its two
        # endpoints in the batched query result.
        self._sources = sorted({i for pair in self._pairs for i in pair})
        self._row_of: Dict[int, int] = {
            s: i for i, s in enumerate(self._sources)
        }
        self._pair_u_rows = np.array(
            [self._row_of[iu] for iu, _ in self._pairs], dtype=np.intp
        )
        self._pair_w_rows = np.array(
            [self._row_of[iw] for _, iw in self._pairs], dtype=np.intp
        )
        self._pair_w_cols = np.array(
            [iw for _, iw in self._pairs], dtype=np.intp
        )
        # The d_t-ball of the pair endpoints, built on the first scan: it
        # depends only on the instance, so later scans add just the balls
        # of placed shortcut endpoints.
        self._pair_ball: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.instance.n

    @property
    def num_pairs(self) -> int:
        return len(self._pairs)

    def max_value(self) -> float:
        """Largest achievable σ: every pair maintained."""
        return float(self.num_pairs)

    # ------------------------------------------------------------ evaluation

    def _engine(self, edges: Sequence[IndexPair]) -> ShortcutDistanceEngine:
        return self.engine_cache.get(edges)

    def satisfied(self, edges: Sequence[IndexPair]) -> List[bool]:
        """Per-pair satisfaction flags under shortcut set *edges*."""
        return self.satisfied_many([edges])[0].tolist()

    def value(self, edges: Sequence[IndexPair]) -> int:
        """σ(F): the number of maintained social pairs."""
        return self.value_many([edges])[0]

    def value_many(
        self, placements: Sequence[Sequence[IndexPair]]
    ) -> List[int]:
        """σ(F) for every F in *placements*, in one batched pass."""
        counts = self.satisfied_many(placements).sum(axis=1)
        return [int(count) for count in counts]

    def satisfied_many(
        self, placements: Sequence[Sequence[IndexPair]]
    ) -> np.ndarray:
        """``(len(placements), m)`` boolean satisfaction flags: the
        terminal-closure kernel (module docs).

        Placements may differ in size; blocks of them are evaluated
        together, padded to the largest terminal count t.
        """
        placements = [list(edges) for edges in placements]
        check_shortcut_indices(chain.from_iterable(placements), self.n)
        flags = np.repeat(self._base[None, :], len(placements), axis=0)
        terminals = [
            sorted({i for edge in edges for i in edge}) for edges in placements
        ]
        t = max(map(len, terminals), default=0)
        if t == 0 or self._open.size == 0:
            return flags
        active = [p for p, nodes in enumerate(terminals) if nodes]
        step = POINT_BLOCK_ELEMENTS // (
            t
            * (
                t
                + self._open_u.size
                + self._open_sources.size
                + self._open.size
            )
        )
        side = math.isqrt(POINT_BLOCK_ELEMENTS)
        if self.n > side:
            step = min(step, side // t)
        step = max(step, 1)
        oracle = self.instance.oracle
        for lo in range(0, len(active), step):
            block = active[lo : lo + step]
            nodes = sorted(set().union(*(terminals[p] for p in block)))
            r = len(nodes)
            local = {node: i for i, node in enumerate(nodes)}
            # A placement with fewer than t terminals repeats its first
            # one: a copy sits at distance 0 from the original, so the
            # closure and every sum through it are unchanged.
            slots = []
            zeros = []
            for row, p in enumerate(block):
                own = [local[node] for node in terminals[p]]
                slots.append(own + own[:1] * (t - len(own)))
                slot = {node: j for j, node in enumerate(terminals[p])}
                zeros.extend((row, slot[a], slot[b]) for a, b in placements[p])
            slots = np.array(slots, dtype=np.intp)
            zeros = np.array(zeros, dtype=np.intp)
            gathered = oracle.rows_to(
                nodes, np.concatenate((nodes, self._open_sources))
            )
            # hops[p, a, b]: base distance of the hop a -> b, read from
            # b's row like the engine's supernode table; 0 along F.
            hops = gathered[:, :r].T[slots[:, :, None], slots[:, None, :]]
            hops[zeros[:, 0], zeros[:, 1], zeros[:, 2]] = 0.0
            hops[zeros[:, 0], zeros[:, 2], zeros[:, 1]] = 0.0
            closure = _floyd_warshall_closure(hops)
            terminal_rows = gathered[:, r:][slots]  # (P, t, |S|)
            # reach[p, b, u] = min over a of d(a, u) + C(a, b), folded in
            # one terminal a at a time to keep the block at P·t·|U|.
            entry = terminal_rows[:, :, self._open_u]
            reach = entry[:, 0, None, :] + closure[:, 0, :, None]
            step_a = np.empty_like(reach)
            for a in range(1, t):
                np.add(
                    entry[:, a, None, :], closure[:, a, :, None], out=step_a
                )
                np.minimum(reach, step_a, out=reach)
            via = (
                reach[:, :, self._open_u_slot]
                + terminal_rows[:, :, self._open_w]
            ).min(axis=1)
            flags[np.array(block)[:, None], self._open] = via <= self.limit
        return flags

    # ------------------------------------------------------ candidate scan

    def candidate_universe(self, edges: Sequence[IndexPair]) -> np.ndarray:
        """Sorted endpoint indices that can carry positive marginal gain.

        A candidate ``(a, b)`` satisfies an unsatisfied pair ``(u, w)``
        only if ``d_F(u, a) <= d_t`` and ``d_F(b, w) <= d_t`` (distances
        are nonnegative, so each term of the satisfying sum is itself
        within the requirement). Any augmented distance within ``d_t``
        decomposes into base-graph hops of at most ``d_t`` whose inner
        stops are placed shortcut endpoints, so every useful endpoint lies
        within **base** distance ``d_t`` of a pair endpoint or of an
        endpoint of *edges* — the ball this method returns. Candidates
        with an endpoint outside the ball have exactly zero gain. The
        returned array is read-only.
        """
        if self._pair_ball is None:
            self._pair_ball = base_ball(self.instance, self._sources)
        extra = sorted(
            {int(i) for edge in edges for i in edge}.difference(
                self._row_of
            )
        )
        if not extra:
            return self._pair_ball
        universe = np.union1d(
            self._pair_ball, base_ball(self.instance, extra)
        )
        universe.setflags(write=False)
        return universe

    def _scan(
        self,
        edges: Sequence[IndexPair],
        weights: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(scores, universe)``: ``scores[i, j]`` is the objective of
        ``F ∪ {(universe[i], universe[j])}``, with per-pair *weights*
        (``None`` counts pairs) — the one candidate scan behind σ and
        weighted σ. Symmetric; the diagonal holds the value of F."""
        universe = self.candidate_universe(edges)
        r = int(universe.size)
        engine = self._engine(edges)
        limit = self.limit
        # Every pair endpoint lies in the universe (distance 0 to itself),
        # so one query over universe columns serves both the scan rows and
        # the pair distances. When the ball is the whole graph the
        # full-row query is the cheaper form of the same block.
        if r == self.n:
            rows = engine.distances_from_indices(self._sources)
            w_slots = self._pair_w_cols
        else:
            rows = engine.distances_from_indices_to(self._sources, universe)
            w_slots = np.searchsorted(universe, self._pair_w_cols)
        satisfied = rows[self._pair_u_rows, w_slots] <= limit
        if weights is None:
            current = int(satisfied.sum())
        else:
            current = float(weights[satisfied].sum())
        scan = PairScanAccumulator(
            r,
            weighted=weights is not None,
            chunk_elements=min(DEFAULT_CHUNK_ELEMENTS, r * r),
        )
        for p in np.flatnonzero(~satisfied):
            weight = None if weights is None else float(weights[p])
            if weight == 0.0:
                continue
            scan.add_pair(
                rows[self._pair_u_rows[p]],
                rows[self._pair_w_rows[p]],
                limit,
                weight=weight,
            )
        scores = scan.result()
        scores += current
        np.fill_diagonal(scores, current)
        return scores, universe

    def add_candidates_restricted(
        self, edges: Sequence[IndexPair]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Candidate scores over the candidate universe.

        Returns ``(scores, universe)`` where *universe* is
        :meth:`candidate_universe` and *scores* is the ``(r, r)`` block of
        :meth:`add_candidates` at ``np.ix_(universe, universe)`` —
        computed directly at that size, never materializing ``(n, n)``.
        """
        return self._scan(edges)

    def add_candidates(self, edges: Sequence[IndexPair]) -> np.ndarray:
        """``(n, n)`` int array of ``σ(F ∪ {(a, b)})`` for every candidate.

        Symmetric; the diagonal equals ``σ(F)``.
        """
        return expand_scores(*self._scan(edges), self.n)


def base_ball(
    instance: MSCInstance, sources: Sequence[int]
) -> np.ndarray:
    """Sorted, read-only indices within base distance ``d_t`` of any of
    *sources*: the ball every candidate scan works over (σ, μ and ν)."""
    limit = satisfaction_limit(instance.d_threshold)
    oracle = instance.oracle
    if getattr(oracle, "prefers_ball_universe", False):
        # Hub-label tier: a full row query costs the whole label index,
        # while a cutoff Dijkstra costs only the ball — and both
        # enumerate exactly the base-distance d_t-ball.
        ball = ball_indices(instance.graph, sources, limit)
    else:
        member = np.zeros(instance.n, dtype=bool)
        for src in sources:
            member |= oracle.row_by_index(src) <= limit
        ball = np.flatnonzero(member).astype(np.intp)
    ball.setflags(write=False)
    return ball


def expand_scores(
    scores: np.ndarray, universe: np.ndarray, n: int
) -> np.ndarray:
    """The ``(n, n)`` form of a candidate-universe score block.

    Every cell with an endpoint outside *universe* has zero gain, so it
    holds the block's diagonal value (the value of F; zero when the
    universe is empty, which happens only without pairs or shortcuts).
    """
    if universe.size == n:
        return scores
    current = scores[0, 0] if scores.size else 0
    full = np.full((n, n), current, dtype=scores.dtype)
    full[np.ix_(universe, universe)] = scores
    return full
