"""CELF lazy greedy for submodular shortcut placement.

For a *submodular* function (μ, ν, or any MSC-CN objective), marginal gains
only shrink as the placement grows, so a stale upper bound on a candidate's
gain is still an upper bound. CELF (Leskovec et al.'s "cost-effective lazy
forward") keeps candidates in a max-heap by stale gain and re-evaluates only
the top until it is provably the best — typically re-evaluating a tiny
fraction of the ``O(n²)`` candidates per round.

Context: this library's plain greedy already scores all candidates in one
vectorized pass (``add_candidates``), which on numpy-friendly sizes is hard
to beat. CELF wins when point evaluations are cheap relative to a full scan,
i.e. at very large ``n``. For submodular inputs both return placements of
equal value (ties may resolve differently); the test suite verifies
value-equality against plain greedy, and applying CELF to the
non-submodular σ is a heuristic (stale bounds can be violated) and is
rejected unless explicitly allowed.
"""

from __future__ import annotations

import heapq
import itertools
from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.greedy import GAIN_EPSILON
from repro.exceptions import SolverError
from repro.types import IndexPair, normalize_index_pair
from repro.util.validation import check_nonnegative_int


def lazy_greedy_placement(
    fn,
    k: int,
    *,
    candidates: Optional[Sequence[IndexPair]] = None,
    assume_submodular: bool = False,
    stop_when_no_gain: bool = True,
) -> Tuple[List[IndexPair], int]:
    """CELF greedy placement over *fn* (must be submodular for the result
    to coincide with plain greedy).

    Args:
        fn: a :class:`~repro.core.setfunction.SetFunctionProtocol`.
            Functions also exposing ``is_submodular = True`` (as μ and ν
            do) are accepted directly; anything else requires
            ``assume_submodular=True`` as an explicit acknowledgment.
        k: edge budget.
        candidates: candidate universe; defaults to all index pairs.
        stop_when_no_gain: stop once the best marginal gain is ≤ 0.

    Returns:
        ``(placement, evaluations)`` — the chosen edges in selection order
        and the number of point evaluations spent (the quantity CELF
        minimizes).
    """
    check_nonnegative_int(k, "k")
    if not assume_submodular and not getattr(fn, "is_submodular", False):
        raise SolverError(
            "lazy greedy requires a submodular function; pass "
            "assume_submodular=True to override (heuristic!)"
        )
    if k == 0:  # empty placement; skip the O(n^2) heap seeding
        return [], 0
    placed: List[IndexPair] = []
    placed_set: Set[IndexPair] = set()
    current = float(fn.value(placed))
    # Seed every candidate's round-0 bound from one vectorized scan.
    # Without an explicit candidate list the restricted scan suffices when
    # every candidate outside its universe has exactly zero gain (σ, μ;
    # not ν, see NuFunction): the early stop can never select such a
    # candidate, so a heap over universe pairs alone selects the same
    # edges while seeding O(r²) instead of O(n²) entries. Round-0 entries
    # are always re-evaluated before selection, so a seeding bound that
    # differs from the point value by float noise cannot change
    # correctness.
    restricted_scan = getattr(fn, "add_candidates_restricted", None)
    if (
        candidates is None
        and stop_when_no_gain
        and restricted_scan is not None
        and getattr(fn, "zero_gain_outside_universe", True)
    ):
        block, universe = restricted_scan(placed)
    else:
        block, universe = fn.add_candidates(placed), np.arange(fn.n)
    evaluations = 2  # value(∅) and the seeding scan
    if candidates is None:
        rows, cols = np.triu_indices(universe.size, 1)
        ends = zip(universe[rows].tolist(), universe[cols].tolist())
    else:
        # The block spans every node here, so slots are node indices.
        ends = [normalize_index_pair(a, b) for a, b in candidates]
        rows = np.array([a for a, _ in ends], dtype=np.intp)
        cols = np.array([b for _, b in ends], dtype=np.intp)
    gains = (block[rows, cols] - current).tolist()
    counter = itertools.count()
    # Heap of (-stale_gain, tiebreak, edge, round_evaluated).
    heap: List[Tuple[float, int, IndexPair, int]] = [
        (-gain, next(counter), edge, 0) for gain, edge in zip(gains, ends)
    ]
    heapq.heapify(heap)

    for round_number in range(1, k + 1):
        best: Optional[Tuple[float, IndexPair]] = None
        while heap:
            neg_gain, tie, edge, evaluated_round = heapq.heappop(heap)
            if edge in placed_set:
                continue
            if evaluated_round == round_number:
                best = (-neg_gain, edge)
                break
            fresh = (
                float(fn.value(placed + [edge])) - current
            )
            evaluations += 1
            heapq.heappush(
                heap, (-fresh, next(counter), edge, round_number)
            )
        if best is None:
            break
        gain, edge = best
        if stop_when_no_gain and gain <= GAIN_EPSILON:
            break
        placed.append(edge)
        placed_set.add(edge)
        current += gain
    return placed, evaluations
