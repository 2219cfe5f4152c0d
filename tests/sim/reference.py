"""Per-trial reference implementation of the delivery simulator.

These are the straightforward loops the batched simulator in
:mod:`repro.sim` replaced: one ``rng.random()`` call per edge per trial,
set lookups per hop, and a search per component or per flooded pair. They
stay here as the executable specification the block sampler and the
vectorized route and flood checks are tested against: on the same seed
both must report the same successes, deliveries and transmissions, and
leave the generator in the same state.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

from repro.exceptions import GraphError
from repro.graph.graph import Node, WirelessGraph
from repro.graph.kpaths import k_shortest_paths
from repro.sim.delivery import DeliverySimulator
from repro.types import NodePair
from repro.util.rng import ensure_rng

Edge = Tuple[Node, Node]


def sample_failed_edges(graph: WirelessGraph, rng) -> Set[Edge]:
    """One trial: each edge, in :attr:`WirelessGraph.edges` order, fails
    when a fresh ``rng.random()`` falls below its probability."""
    rng = ensure_rng(rng)
    failed: Set[Edge] = set()
    for u, v, _length in graph.edges:
        if rng.random() < graph.failure_probability(u, v):
            failed.add((u, v))
    return failed


def path_survives(path: Sequence[Node], failed) -> bool:
    if not failed:
        return True
    for a, b in zip(path, path[1:]):
        if (a, b) in failed or (b, a) in failed:
            return False
    return True


def component_labels(graph: WirelessGraph, failed) -> List[int]:
    """Connected-component label per dense index in the surviving graph."""
    n = graph.number_of_nodes()
    labels = [-1] * n
    current = 0
    failed_idx = {
        (graph.node_index(a), graph.node_index(b)) for a, b in failed
    }
    for start in range(n):
        if labels[start] != -1:
            continue
        stack = [start]
        labels[start] = current
        while stack:
            u = stack.pop()
            for v in graph.neighbors_by_index(u):
                if labels[v] != -1:
                    continue
                if (u, v) in failed_idx or (v, u) in failed_idx:
                    continue
                labels[v] = current
                stack.append(v)
        current += 1
    return labels


def path_transmissions(path: Sequence[Node], failed) -> Tuple[int, bool]:
    """Transmissions consumed sending along *path*: hops up to and
    including the first failed link. Returns (count, delivered)."""
    sent = 0
    for a, b in zip(path, path[1:]):
        sent += 1
        if (a, b) in failed or (b, a) in failed:
            return sent, False
    return sent, True


def flood_transmissions(
    graph: WirelessGraph, failed, source: Node, target: Node
) -> Tuple[int, bool]:
    """Flooding: search the surviving links from *source*; every reached
    node broadcasts once, so each surviving link inside the reached
    component is traversed once. Returns (transmissions, target reached)."""
    failed_idx = {
        (graph.node_index(a), graph.node_index(b)) for a, b in failed
    }
    src = graph.node_index(source)
    dst = graph.node_index(target)
    seen: Set[int] = {src}
    stack = [src]
    transmissions = 0
    while stack:
        u = stack.pop()
        for v in graph.neighbors_by_index(u):
            if (u, v) in failed_idx or (v, u) in failed_idx:
                continue
            transmissions += 1  # u's broadcast crosses this surviving link
            if v not in seen:
                seen.add(v)
                stack.append(v)
    # Each link inside the component was counted from both endpoints.
    return transmissions // 2, dst in seen


def routes(
    simulator: DeliverySimulator,
    pairs: Sequence[NodePair],
    strategy: str,
    multipath_k: int,
) -> List[Optional[List[List[Node]]]]:
    """Node-list routes per pair (``None`` when the pair has none)."""
    out: List[Optional[List[List[Node]]]] = []
    for u, w in pairs:
        try:
            if strategy == "best_path":
                _probability, path = simulator.best_path(u, w)
                out.append([path])
            else:
                found = k_shortest_paths(simulator.graph, u, w, multipath_k)
                out.append([path for _length, path in found])
        except GraphError:
            out.append(None)
    return out


def simulate(
    simulator: DeliverySimulator,
    pairs: Sequence[NodePair],
    *,
    strategy: str,
    trials: int,
    rng,
    multipath_k: int = 3,
) -> Tuple[List[int], List[Optional[float]]]:
    """Per-pair ``(successes, analytic)`` of
    :meth:`DeliverySimulator.simulate`, one trial at a time."""
    graph = simulator.graph
    pair_routes = routes(simulator, pairs, strategy, multipath_k)
    successes = [0] * len(pairs)
    for _ in range(trials):
        failed = sample_failed_edges(graph, rng)
        if strategy == "flooding":
            labels = component_labels(graph, failed)
            for i, (u, w) in enumerate(pairs):
                if u in graph and w in graph and (
                    labels[graph.node_index(u)]
                    == labels[graph.node_index(w)]
                ):
                    successes[i] += 1
        else:
            for i, found in enumerate(pair_routes):
                if found is not None and any(
                    path_survives(path, failed) for path in found
                ):
                    successes[i] += 1
    analytic: List[Optional[float]] = []
    for u, w in pairs:
        if strategy != "best_path":
            analytic.append(None)
            continue
        try:
            analytic.append(simulator.best_path(u, w)[0])
        except GraphError:
            analytic.append(0.0)
    return successes, analytic


def measure_overhead(
    simulator: DeliverySimulator,
    pairs: Sequence[NodePair],
    *,
    strategy: str,
    trials: int,
    rng,
    multipath_k: int = 3,
) -> Tuple[int, int]:
    """``(deliveries, transmissions)`` of
    :func:`repro.sim.overhead.measure_overhead`, one trial at a time."""
    graph = simulator.graph
    pair_routes = routes(simulator, pairs, strategy, multipath_k)
    deliveries = 0
    transmissions = 0
    for _ in range(trials):
        failed = sample_failed_edges(graph, rng)
        for i, (u, w) in enumerate(pairs):
            if strategy == "flooding":
                spent, ok = flood_transmissions(graph, failed, u, w)
                transmissions += spent
                deliveries += int(ok)
                continue
            if pair_routes[i] is None:
                continue
            for path in pair_routes[i]:
                spent, ok = path_transmissions(path, failed)
                transmissions += spent
                if ok:
                    deliveries += 1
                    break  # stop at the first surviving path
    return deliveries, transmissions
