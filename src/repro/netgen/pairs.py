"""Important social pair selection (paper §VII-A3).

"The important social pairs are randomly selected from the node pairs with
path failure probability larger than the threshold p_t" — i.e. pairs that
currently violate the requirement and therefore actually need shortcut help.
Every selector counts a pair as violating exactly when σ does: its base
distance exceeds :func:`~repro.failure.models.satisfaction_limit` of
``d_t``, so no selected pair is satisfied before a shortcut is placed.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.exceptions import InstanceError
from repro.failure.models import failure_to_length, satisfaction_limit
from repro.graph.distances import DistanceOracle
from repro.graph.graph import Node, WirelessGraph
from repro.types import NodePair
from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_fraction, check_positive_int


def eligible_pairs(
    graph: WirelessGraph,
    p_threshold: float,
    *,
    oracle: Optional[DistanceOracle] = None,
    max_failure: Optional[float] = None,
) -> List[NodePair]:
    """All node pairs whose best path fails with probability > *p_threshold*.

    Args:
        graph: the communication graph.
        p_threshold: the requirement threshold ``p_t``.
        oracle: optional pre-built distance oracle to reuse.
        max_failure: optionally also require the pair's path failure to be
            at most this value, excluding pairs so remote (or disconnected)
            that no reasonable placement could help; ``None`` places no cap.

    Pairs are returned in deterministic (index) order.
    """
    check_fraction(p_threshold, "p_threshold")
    limit = satisfaction_limit(failure_to_length(p_threshold))
    d_cap = (
        None if max_failure is None else failure_to_length(
            check_fraction(max_failure, "max_failure")
        )
    )
    if oracle is None:
        oracle = DistanceOracle(graph)
    matrix = oracle.matrix
    nodes = graph.nodes
    out: List[NodePair] = []
    for iu in range(len(nodes) - 1):
        # Row iu of the upper triangle. Negated comparisons keep a NaN
        # distance, as a per-pair `if d <= limit: skip` would.
        row = matrix[iu, iu + 1 :]
        keep = ~(row <= limit)
        if d_cap is not None:
            keep &= ~(row > d_cap)
        partners = np.flatnonzero(keep) + (iu + 1)
        u = nodes[iu]
        out.extend((u, nodes[iw]) for iw in partners.tolist())
    return out


def select_important_pairs(
    graph: WirelessGraph,
    m: int,
    p_threshold: float,
    *,
    seed: SeedLike = None,
    oracle: Optional[DistanceOracle] = None,
    max_failure: Optional[float] = None,
) -> List[NodePair]:
    """Randomly select *m* important pairs violating the requirement.

    Raises :class:`InstanceError` when fewer than *m* pairs qualify (the
    caller should lower ``p_t``, raise *max_failure*, or shrink *m*).
    """
    check_positive_int(m, "m")
    candidates = eligible_pairs(
        graph, p_threshold, oracle=oracle, max_failure=max_failure
    )
    if len(candidates) < m:
        raise InstanceError(
            f"only {len(candidates)} node pairs violate p_t={p_threshold}"
            f" (need m={m}); lower p_t or m"
        )
    rng = ensure_rng(seed)
    return rng.sample(candidates, m)


def sample_important_pairs(
    graph: WirelessGraph,
    m: int,
    p_threshold: float,
    *,
    seed: SeedLike = None,
    max_failure: Optional[float] = None,
    oversample: int = 8,
) -> List[NodePair]:
    """Oracle-free violating-pair sampler for large graphs.

    :func:`select_important_pairs` enumerates all ``O(n²)`` pairs against
    a full APSP matrix — exactly the footprint the sparse oracle tier
    exists to avoid. This sampler instead draws random source nodes, runs
    one Dijkstra each (:func:`~repro.graph.paths.source_row_search`), and
    keeps violating partners until *m* pairs are collected. The distribution is
    not identical to the uniform-over-all-violating-pairs selector (it is
    uniform per sampled source), which matches the paper's intent —
    "randomly selected from the node pairs with path failure probability
    larger than the threshold" — without ever materializing the pair
    universe.

    Each search stops at the satisfaction limit of ``d_t`` (at the cap,
    when one is set and larger): a distance within the bound is exact and
    a farther one reads ``inf``, which violates ``p_t`` and breaks the cap
    exactly as the true distance does, so the partner set is the one full
    searches would give.

    Args:
        oversample: give up after ``oversample * m`` source draws without
            filling the quota (graphs where almost nothing violates
            ``p_t``).

    Raises :class:`InstanceError` when the quota cannot be filled.
    """
    from repro.graph.paths import source_row_search

    check_positive_int(m, "m")
    check_fraction(p_threshold, "p_threshold")
    limit = satisfaction_limit(failure_to_length(p_threshold))
    d_cap = (
        None if max_failure is None else failure_to_length(
            check_fraction(max_failure, "max_failure")
        )
    )
    rng = ensure_rng(seed)
    nodes = graph.nodes
    n = len(nodes)
    if n < 2:
        raise InstanceError("need at least two nodes to sample pairs")
    search = source_row_search(
        graph,
        limit=limit if d_cap is None else max(limit, d_cap),
    )
    out: List[NodePair] = []
    # Partners already paired with each source, in either orientation.
    taken: Dict[int, List[int]] = {}
    draws = 0
    while len(out) < m and draws < oversample * m:
        draws += 1
        iu = rng.randrange(n)
        distances = search([iu])[0]
        # The source itself sits at distance 0 <= limit and is never kept.
        keep = distances > limit
        if d_cap is not None:
            keep &= distances <= d_cap
        keep[taken.get(iu, [])] = False
        partners = np.flatnonzero(keep)
        if not partners.size:
            continue
        iw = int(partners[rng.randrange(partners.size)])
        taken.setdefault(iu, []).append(iw)
        taken.setdefault(iw, []).append(iu)
        out.append((nodes[iu], nodes[iw]))
    if len(out) < m:
        raise InstanceError(
            f"sampled only {len(out)} violating pairs after {draws} "
            f"source draws (need m={m}); lower p_t or m"
        )
    return out


def select_friend_pairs(
    graph: WirelessGraph,
    friendships: Sequence[NodePair],
    m: int,
    p_threshold: float,
    *,
    seed: SeedLike = None,
    oracle: Optional[DistanceOracle] = None,
) -> List[NodePair]:
    """Select *m* violating pairs among declared friendships.

    The paper samples important pairs uniformly among all violating node
    pairs; in a location-based social network the natural demand set is the
    *friendship* graph (who actually wants to talk). This selector
    restricts the violating-pair universe to *friendships* — pairs where
    both endpoints are in the communication graph and the requirement is
    currently violated.

    Raises :class:`InstanceError` when fewer than *m* friendships qualify.
    """
    check_positive_int(m, "m")
    check_fraction(p_threshold, "p_threshold")
    limit = satisfaction_limit(failure_to_length(p_threshold))
    if oracle is None:
        oracle = DistanceOracle(graph)
    matrix = oracle.matrix
    candidates: List[NodePair] = []
    seen = set()
    for u, w in friendships:
        if u == w or not (graph.has_node(u) and graph.has_node(w)):
            continue
        iu, iw = graph.node_index(u), graph.node_index(w)
        key = (min(iu, iw), max(iu, iw))
        if key in seen:
            continue
        seen.add(key)
        if matrix[iu, iw] > limit:
            candidates.append((u, w))
    if len(candidates) < m:
        raise InstanceError(
            f"only {len(candidates)} friendships violate "
            f"p_t={p_threshold} (need m={m})"
        )
    rng = ensure_rng(seed)
    return rng.sample(candidates, m)


def select_common_node_pairs(
    graph: WirelessGraph,
    common: Node,
    m: int,
    p_threshold: float,
    *,
    seed: SeedLike = None,
    oracle: Optional[DistanceOracle] = None,
) -> List[NodePair]:
    """Select *m* violating pairs that all share the node *common*
    (the MSC-CN workload of paper §IV)."""
    check_positive_int(m, "m")
    check_fraction(p_threshold, "p_threshold")
    limit = satisfaction_limit(failure_to_length(p_threshold))
    if oracle is None:
        oracle = DistanceOracle(graph)
    row = oracle.row(common)
    candidates = [
        graph.index_node(i)
        for i in range(graph.number_of_nodes())
        if row[i] > limit
    ]
    if len(candidates) < m:
        raise InstanceError(
            f"only {len(candidates)} partners of {common!r} violate "
            f"p_t={p_threshold} (need m={m})"
        )
    rng = ensure_rng(seed)
    partners = rng.sample(candidates, m)
    return [(common, partner) for partner in partners]
