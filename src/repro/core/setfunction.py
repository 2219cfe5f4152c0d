"""Set-function protocol shared by σ and its submodular bounds μ, ν.

All MSC algorithms (greedy, sandwich, EA, AEA) are written against this
protocol rather than a concrete objective, which is what lets Section VI of
the paper reuse every static algorithm on dynamic networks: a sum of
per-topology set functions implements the same interface
(:class:`SumSetFunction`).

A set function here maps a set of *shortcut edges* — canonical dense-index
pairs ``(a, b)`` with ``a < b`` — to a real value. Besides point evaluation,
implementations expose a vectorized one-step lookahead
(:meth:`SetFunctionProtocol.add_candidates`) that scores every candidate edge
at once; this is the kernel that makes greedy rounds cheap (see DESIGN.md §4).
"""

from __future__ import annotations

from typing import Iterable, List, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from repro.types import IndexPair, normalize_index_pair


def canonical_edges(edges: Iterable[Tuple[int, int]]) -> List[IndexPair]:
    """Normalize an iterable of index pairs to sorted tuples (input order
    preserved, duplicates kept)."""
    return [normalize_index_pair(a, b) for a, b in edges]


@runtime_checkable
class SetFunctionProtocol(Protocol):
    """A monotone set function over shortcut edges on ``n`` nodes."""

    @property
    def n(self) -> int:
        """Number of graph nodes; the candidate universe is all index pairs
        ``(a, b)`` with ``0 <= a < b < n``."""
        ...

    def value(self, edges: Sequence[IndexPair]) -> float:
        """Function value for the given shortcut edge set."""
        ...

    def value_many(
        self, placements: Sequence[Sequence[IndexPair]]
    ) -> List[float]:
        """``[value(edges) for edges in placements]``, possibly batched
        (σ evaluates a whole population in one pass)."""
        ...

    def add_candidates(self, edges: Sequence[IndexPair]) -> np.ndarray:
        """``(n, n)`` array whose ``[a, b]`` entry is
        ``value(edges + [(a, b)])``; the diagonal holds ``value(edges)``
        (adding a self-loop is a no-op). The array is symmetric."""
        ...


class PointwiseValueMany:
    """``value_many`` as a loop over ``value``, for set functions whose
    point evaluation has no batched form (μ and ν)."""

    def value_many(
        self, placements: Sequence[Sequence[IndexPair]]
    ) -> List[float]:
        return [self.value(edges) for edges in placements]


class SumSetFunction:
    """Sum of set functions over a shared node universe (paper §VI).

    ``σ(F) = Σ_t σ_t(F)`` for dynamic networks, and likewise for the bounds
    μ and ν. A sum of submodular functions is submodular, so every guarantee
    derived for the static terms carries over.
    """

    def __init__(self, terms: Sequence[SetFunctionProtocol]) -> None:
        if not terms:
            raise ValueError("SumSetFunction needs at least one term")
        sizes = {term.n for term in terms}
        if len(sizes) != 1:
            raise ValueError(
                f"terms disagree on node-universe size: {sorted(sizes)}"
            )
        self._terms = list(terms)

    @property
    def n(self) -> int:
        return self._terms[0].n

    @property
    def terms(self) -> List[SetFunctionProtocol]:
        return list(self._terms)

    def value(self, edges: Sequence[IndexPair]) -> float:
        return sum(term.value(edges) for term in self._terms)

    def value_many(
        self, placements: Sequence[Sequence[IndexPair]]
    ) -> List[float]:
        placements = [list(edges) for edges in placements]
        batches = [term.value_many(placements) for term in self._terms]
        return [sum(values) for values in zip(*batches)]

    def add_candidates(self, edges: Sequence[IndexPair]) -> np.ndarray:
        total = self._terms[0].add_candidates(edges).astype(float)
        for term in self._terms[1:]:
            total += term.add_candidates(edges)
        return total
