"""Generic greedy shortcut-edge placement over any set function.

One greedy round asks the set function to score every candidate edge at once
(``add_candidates``), masks out invalid candidates (self-loops, edges already
placed), and takes the best. For a monotone submodular function this is the
classic ``(1 - 1/e)``-approximation greedy (paper Theorem 5); for σ itself it
is the heuristic greedy the sandwich algorithm also evaluates.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Set

import numpy as np

from repro.core.setfunction import SetFunctionProtocol
from repro.exceptions import SolverError
from repro.types import IndexPair, normalize_index_pair
from repro.util.validation import check_nonnegative_int

#: Gains smaller than this are treated as zero (floating-point guard for the
#: real-valued ν function; σ and μ are integer-valued).
GAIN_EPSILON = 1e-9


def greedy_placement(
    fn: SetFunctionProtocol,
    k: int,
    *,
    existing: Sequence[IndexPair] = (),
    candidate_mask: Optional[np.ndarray] = None,
    stop_when_no_gain: bool = True,
) -> List[IndexPair]:
    """Greedily add up to *k* shortcut edges maximizing marginal gain of *fn*.

    Args:
        fn: set function to maximize.
        k: total edge budget (including *existing* edges).
        existing: edges already placed; they count against the budget.
        candidate_mask: optional ``(n, n)`` boolean array restricting the
            candidate universe (True = allowed). Self-loops and already
            placed edges are always excluded.
        stop_when_no_gain: stop early once no candidate improves *fn*
            (the paper's greedy stops when all pairs are satisfied, which is
            the special case of zero gains everywhere).

    Returns:
        The full placement, existing edges first, in selection order.

    Ties are broken toward the lexicographically smallest ``(a, b)`` pair,
    keeping runs deterministic.
    """
    check_nonnegative_int(k, "k")  # k = 0 is a valid (empty) placement
    n = fn.n
    placed: List[IndexPair] = [normalize_index_pair(a, b) for a, b in existing]
    if len(placed) > k:
        raise SolverError(
            f"{len(placed)} existing edges exceed the budget k={k}"
        )
    placed_set: Set[IndexPair] = set(placed)
    if candidate_mask is not None and candidate_mask.shape != (n, n):
        raise SolverError(
            f"candidate_mask shape {candidate_mask.shape} != ({n}, {n})"
        )

    # A restricted scan returns the (n, n) scan's cells over a sorted
    # universe that holds the (n, n) scan's first selectable maximum
    # whenever that maximum gains (σ's and μ's universes hold every
    # gaining cell; ν's adds the smallest outside nodes). The argmax over
    # the block then picks the same edge, but only while a round that
    # gains nothing stops — the early-stop semantics — and no caller mask
    # can exclude that maximum. Otherwise the full (n, n) scan is the
    # block over every node.
    restricted_fn = (
        getattr(fn, "add_candidates_restricted", None)
        if candidate_mask is None and stop_when_no_gain
        else None
    )
    every_node = np.arange(n)

    while len(placed) < k and n > 0:
        if restricted_fn is not None:
            block, universe = restricted_fn(placed)
        else:
            block, universe = fn.add_candidates(placed), every_node
        r = int(universe.size)
        if r == 0:
            break  # no candidate can gain
        # Private copy in the scan's own (usually integer) dtype so
        # invalid cells can be masked in place with a dtype-matched
        # sentinel — no float64 conversion copy. The diagonal holds
        # value(placed) by contract.
        scores = np.array(block)
        current = float(scores[0, 0])
        sentinel = (
            -math.inf
            if np.issubdtype(scores.dtype, np.floating)
            else np.iinfo(scores.dtype).min
        )
        np.fill_diagonal(scores, sentinel)
        for a, b in placed_set:
            slots = np.searchsorted(universe, [a, b])
            if (
                slots[0] < r
                and slots[1] < r
                and universe[slots[0]] == a
                and universe[slots[1]] == b
            ):
                scores[slots[0], slots[1]] = sentinel
                scores[slots[1], slots[0]] = sentinel
        if candidate_mask is not None:
            scores[~candidate_mask] = sentinel  # universe is every node
        flat_best = int(np.argmax(scores))
        a_r, b_r = divmod(flat_best, r)
        if scores[a_r, b_r] == sentinel:
            break  # nothing selectable
        best_score = float(scores[a_r, b_r])
        if stop_when_no_gain and best_score <= current + GAIN_EPSILON:
            break
        # universe is sorted, so the flat argmax breaks ties toward the
        # lexicographically smallest mapped (a, b).
        placed.append(
            normalize_index_pair(int(universe[a_r]), int(universe[b_r]))
        )
        placed_set.add(placed[-1])
        # Drop this round's score blocks before the next scan allocates its
        # own, so two rounds' arrays never coexist at peak.
        scores = block = None
    return placed


class GreedyPrefix:
    """Greedy placements of one set function at any budget, each round run
    once.

    A greedy round depends only on the edges already placed and on the set
    function; the budget only bounds the loop. So
    ``greedy_placement(fn, K)[:k] == greedy_placement(fn, k)`` for every
    ``k <= K``, and extending a budget-k placement through ``existing=``
    gives the budget-K one, early stops included. :meth:`placement` keeps
    the longest placement computed so far and slices or extends it, so a
    budget sweep asked for in any order costs one greedy run at its largest
    budget.
    """

    def __init__(self, fn: SetFunctionProtocol) -> None:
        self.fn = fn
        self._placed: List[IndexPair] = []
        self._budget = 0  # largest budget computed so far

    def placement(self, k: int) -> List[IndexPair]:
        """``greedy_placement(fn, k)``, reusing the rounds already run."""
        check_nonnegative_int(k, "k")
        if k > self._budget:
            # A placement shorter than its budget stopped early, and a
            # larger budget stops at the same edges.
            if len(self._placed) == self._budget:
                self._placed = greedy_placement(
                    self.fn, k, existing=self._placed
                )
            self._budget = k
        return self._placed[:k]
