"""MSC-CN: the common-node special case (paper §IV).

When every important pair shares a node ``u``, there is an optimal solution
whose shortcut edges are all incident to ``u`` and where each pair's shortest
path uses at most one shortcut (paper Theorem 1, via Lemma 1 of Meyerson &
Tagiku). Placing shortcut ``(u, v)`` then rescues exactly the partners within
``d_t`` of ``v``, so MSC-CN *is* the maximum coverage problem: pick ``k``
cover sets ``C_v = {w_i : D(v, w_i) <= d_t}`` maximizing coverage of the
partner multiset. Greedy achieves ``(1 - 1/e)`` of optimal (Theorem 5).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.core.coverage import greedy_max_coverage
from repro.core.problem import MSCInstance
from repro.exceptions import SolverError
from repro.failure.models import satisfaction_limit
from repro.types import Node, PlacementResult


def solve_msc_cn_exact(
    instance: MSCInstance,
    seed=None,
    common: Optional[Node] = None,
    work_limit: int = 2_000_000,
    **_ignored,
) -> PlacementResult:
    """Exact MSC-CN optimum by enumerating endpoint subsets.

    Theorem 1 guarantees an optimal solution whose shortcut edges are all
    incident to the common node, so the search space is ``C(n-1, k)`` —
    exponentially smaller than general exhaustive search. Used as ground
    truth when validating Theorem 5's greedy bound.
    """
    import itertools
    import math as _math

    if instance.m == 0:
        # No pairs: any placement has sigma 0, so the empty one is optimal.
        return PlacementResult(
            algorithm="msc_cn_exact",
            edges=[],
            sigma=0,
            satisfied=[],
            extras={"common_node": common, "search_space": 1},
        )
    if common is None:
        common = instance.common_node()
        if common is None:
            raise SolverError(
                "instance has no common node; use solve_exact instead"
            )
    graph = instance.graph
    common_idx = graph.node_index(common)
    partners = [w if u == common else u for u, w in instance.pairs]
    partner_indices = np.array(
        [graph.node_index(p) for p in partners], dtype=np.intp
    )
    covers = _partner_covers(instance, partner_indices)
    base = covers[common_idx]
    candidates = [
        v for v in range(instance.n) if v != common_idx
    ]
    k = min(instance.k, len(candidates))
    space = _math.comb(len(candidates), k)
    if space > work_limit:
        raise SolverError(
            f"MSC-CN exact space C({len(candidates)}, {k}) = {space} "
            f"exceeds work_limit={work_limit}"
        )

    best_sigma = int(base.sum())
    best_subset: tuple = ()
    for subset in itertools.combinations(candidates, k):
        covered = base.copy()
        for v in subset:
            covered |= covers[v]
        sigma = int(covered.sum())
        if sigma > best_sigma:
            best_sigma = sigma
            best_subset = subset
            if best_sigma == instance.m:
                break
    covered = base.copy()
    for v in best_subset:
        covered |= covers[v]
    return PlacementResult(
        algorithm="msc_cn_exact",
        edges=[(common, graph.index_node(v)) for v in best_subset],
        sigma=best_sigma,
        satisfied=[bool(c) for c in covered],
        evaluations=space,
        extras={"common_node": common, "search_space": space},
    )


def _partner_covers(
    instance: MSCInstance, partner_indices: np.ndarray
) -> np.ndarray:
    """``covers[v, j]``: node *v* is within the requirement of partner
    *j* — the cover set ``C_v`` as an ``(n, m)`` mask.

    Read from the partners' rows (each row serves its column by
    symmetry), never the square matrix, so every oracle tier answers,
    a cutoff tier included: a distance beyond its cutoff reads ``inf``
    and fails the test exactly as the true one does.
    """
    limit = satisfaction_limit(instance.d_threshold)
    return instance.oracle.rows(partner_indices).T <= limit


def is_common_node_instance(instance: MSCInstance) -> bool:
    """True when all important pairs share at least one common node."""
    return instance.common_node() is not None


def solve_msc_cn(
    instance: MSCInstance,
    seed=None,
    common: Optional[Node] = None,
    **_ignored,
) -> PlacementResult:
    """Greedy max-coverage solution for a common-node instance.

    Args:
        instance: an MSC instance whose pairs all share one node.
        common: the shared node; auto-detected when omitted.

    Raises:
        SolverError: if the instance has no common node (use the general
            algorithms instead).
    """
    if instance.m == 0:
        # No pairs: the coverage universe is empty and greedy picks nothing.
        return PlacementResult(
            algorithm="msc_cn",
            edges=[],
            sigma=0,
            satisfied=[],
            extras={
                "common_node": common,
                "covered_weight": 0.0,
                "base_satisfied": 0,
            },
        )
    if common is None:
        common = instance.common_node()
        if common is None:
            raise SolverError(
                "instance has no common node; use the general MSC solvers"
            )
    elif not all(common in pair for pair in instance.pairs):
        raise SolverError(f"{common!r} is not shared by every pair")

    graph = instance.graph
    common_idx = graph.node_index(common)

    # Partner of each pair (the endpoint that is not the common node).
    partners = []
    for u, w in instance.pairs:
        partners.append(w if u == common else u)
    partner_indices = np.array(
        [graph.node_index(p) for p in partners], dtype=np.intp
    )

    # Base-satisfied pairs are covered by every choice; exclude them from the
    # coverage universe and add them back at the end.
    covers = _partner_covers(instance, partner_indices)
    base = covers[common_idx]
    open_pairs = np.flatnonzero(~base)

    # sets[v, j]: shortcut (common, v) rescues open pair j.
    sets = covers[:, open_pairs]
    sets[common_idx, :] = False  # (u, u) self-loop is not a valid shortcut
    result = greedy_max_coverage(sets, instance.k)

    edges = [(common, graph.index_node(v)) for v in result.selected]
    satisfied = list(base)
    for pos, j in enumerate(open_pairs):
        satisfied[j] = bool(result.covered[pos])
    sigma = int(sum(satisfied))
    return PlacementResult(
        algorithm="msc_cn",
        edges=edges,
        sigma=sigma,
        satisfied=[bool(s) for s in satisfied],
        evaluations=len(result.selected),
        extras={
            "common_node": common,
            "covered_weight": result.weight,
            "base_satisfied": int(base.sum()),
        },
    )
