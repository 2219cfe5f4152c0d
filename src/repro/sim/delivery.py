"""Monte Carlo delivery simulation: does "maintained" mean "delivered"?

The MSC formulation promises that a maintained pair has a path failing with
probability at most ``p_t``. This simulator closes the loop end-to-end: it
samples concrete link-failure trials and measures actual delivery rates
under three forwarding strategies the paper's introduction discusses:

* ``best_path`` — source routes along the single most reliable path of the
  augmented graph; delivery succeeds iff every link on it survives. The
  analytic success probability is ``exp(-path_length)``, so the Monte Carlo
  estimate doubles as a validation of the whole probability/length model.
* ``multipath`` — the k most reliable loopless paths are tried; delivery
  succeeds iff at least one survives ("multipath routing [5]", §I).
* ``flooding`` — delivery succeeds iff the pair is connected at all in the
  surviving topology — the upper envelope of any routing scheme.

Shortcut edges are perfectly reliable and never fail (their failure
probability is 0 by construction).

Trials are sampled and evaluated a block at a time
(:func:`repro.sim.sampling.failure_blocks`): every route is laid out as a
run of edge ids, so one gather over a block's failure matrix tells which
routes survived in every trial of the block, and flooding labels the
connected components of all of the block's surviving graphs at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.exceptions import GraphError, SolverError
from repro.graph.graph import Node, WirelessGraph
from repro.graph.kpaths import k_shortest_paths
from repro.graph.paths import shortest_path
from repro.sim.sampling import EdgeTable, edge_table, failure_blocks
from repro.types import NodePair
from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_positive_int

STRATEGIES = ("best_path", "multipath", "flooding")


def check_strategy(strategy: str) -> None:
    """Raise :class:`SolverError` unless *strategy* is in
    :data:`STRATEGIES`."""
    if strategy not in STRATEGIES:
        raise SolverError(
            f"unknown strategy {strategy!r}; "
            f"available: {', '.join(STRATEGIES)}"
        )


@dataclass(frozen=True)
class PairDelivery:
    """Per-pair simulation outcome.

    Attributes:
        pair: the social pair.
        successes: delivered trials.
        trials: total trials.
        analytic: analytic success probability of the best path (``None``
            when the pair is disconnected, or for strategies where the
            analytic value is only a lower bound).
    """

    pair: NodePair
    successes: int
    trials: int
    analytic: Optional[float] = None

    @property
    def rate(self) -> float:
        return self.successes / self.trials if self.trials else 0.0

    def wilson_interval(self, z: float = 1.96) -> Tuple[float, float]:
        """Wilson score interval for the delivery rate."""
        if self.trials == 0:
            return (0.0, 1.0)
        n = self.trials
        p = self.rate
        denom = 1 + z * z / n
        center = (p + z * z / (2 * n)) / denom
        half = (
            z
            * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n))
            / denom
        )
        return (max(0.0, center - half), min(1.0, center + half))


@dataclass
class DeliveryReport:
    """Aggregate of a simulation run."""

    strategy: str
    trials: int
    pairs: List[PairDelivery] = field(default_factory=list)

    @property
    def mean_rate(self) -> float:
        if not self.pairs:
            return 0.0
        return sum(p.rate for p in self.pairs) / len(self.pairs)

    def meeting_requirement(self, p_threshold: float) -> int:
        """Pairs whose *simulated* delivery rate meets ``1 - p_t``."""
        return sum(
            1 for p in self.pairs if p.rate >= 1.0 - p_threshold
        )


class DeliverySimulator:
    """Simulate packet delivery on a graph augmented with shortcut edges.

    Args:
        graph: the base communication graph.
        shortcuts: shortcut edges (node pairs); added with failure
            probability 0 (parallel shortcut over an existing link simply
            makes that link reliable, consistent with the MSC model).

    Attributes:
        graph: the augmented graph (a copy; the caller's graph is left
            untouched). Treat it as read-only: the edge table below is
            built from it once.
        edge_table: the augmented graph's edges and failure
            probabilities, shared by every simulation.
    """

    def __init__(
        self,
        graph: WirelessGraph,
        shortcuts: Sequence[NodePair] = (),
    ) -> None:
        augmented = graph.copy()
        for u, v in shortcuts:
            augmented.add_edge(u, v, failure_probability=0.0)
        self.graph = augmented
        self.edge_table = edge_table(augmented)

    # ------------------------------------------------------------- analytic

    def best_path(self, u: Node, w: Node) -> Tuple[float, List[Node]]:
        """Most reliable path and its analytic success probability."""
        length, path = shortest_path(self.graph, u, w)
        return math.exp(-length), path

    # ------------------------------------------------------------- simulate

    def simulate(
        self,
        pairs: Sequence[NodePair],
        *,
        strategy: str = "best_path",
        trials: int = 1000,
        seed: SeedLike = None,
        multipath_k: int = 3,
    ) -> DeliveryReport:
        """Run *trials* failure rounds and measure per-pair delivery.

        All pairs share each trial's failure sample (one network round),
        which mirrors reality and keeps trials comparable across pairs.
        """
        check_positive_int(trials, "trials")
        check_strategy(strategy)
        rng = ensure_rng(seed)
        successes = np.zeros(len(pairs), dtype=np.int64)
        if strategy == "flooding":
            analytic: List[Optional[float]] = [None] * len(pairs)
            indices = self._pair_indices(pairs)
            known = [i for i, ends in enumerate(indices) if ends is not None]
            ends = np.array(
                [indices[i] for i in known], dtype=np.intp
            ).reshape(-1, 2)
            for failed in failure_blocks(
                self.edge_table, rng, trials, len(known)
            ):
                delivered, _spent = flood_block(self.edge_table, failed, ends)
                successes[known] += delivered.sum(axis=0)
        else:
            routes, analytic = self._routes(pairs, strategy, multipath_k)
            for failed in failure_blocks(
                self.edge_table, rng, trials, routes.width
            ):
                successes[routes.pairs] += routes.delivered(failed).sum(
                    axis=0
                )

        report = DeliveryReport(strategy=strategy, trials=trials)
        for (u, w), count, value in zip(
            pairs, successes.tolist(), analytic
        ):
            report.pairs.append(
                PairDelivery(
                    pair=(u, w),
                    successes=count,
                    trials=trials,
                    analytic=value,
                )
            )
        return report

    def _pair_indices(
        self, pairs: Sequence[NodePair]
    ) -> List[Optional[Tuple[int, int]]]:
        """Dense index per pair; ``None`` when an endpoint is not in the
        graph (a pair that lost a node under fault injection never
        delivers, but must not abort everyone else's simulation)."""
        indices: List[Optional[Tuple[int, int]]] = []
        for u, w in pairs:
            try:
                indices.append(
                    (self.graph.node_index(u), self.graph.node_index(w))
                )
            except GraphError:
                indices.append(None)
        return indices

    def _routes(
        self,
        pairs: Sequence[NodePair],
        strategy: str,
        multipath_k: int,
    ) -> Tuple["RouteSet", List[Optional[float]]]:
        """Each pair's routes for *strategy* (``best_path`` or
        ``multipath``), plus the analytic best-path success probability
        per pair (``best_path`` only: 0.0 when the pair has no path,
        ``None`` for ``multipath``). A pair without a route — an
        endpoint unknown or unreachable — never delivers."""
        check_positive_int(multipath_k, "multipath_k")
        edge_of = {
            (iu, iv): e
            for e, (iu, iv) in enumerate(self.edge_table.ends.tolist())
        }
        routes: List[Optional[List[List[int]]]] = []
        analytic: List[Optional[float]] = []
        for u, w in pairs:
            probability: Optional[float] = None
            try:
                if strategy == "best_path":
                    probability, path = self.best_path(u, w)
                    paths = [path]
                else:
                    paths = [
                        path
                        for _length, path in k_shortest_paths(
                            self.graph, u, w, multipath_k
                        )
                    ]
            except GraphError:
                routes.append(None)
                analytic.append(0.0 if strategy == "best_path" else None)
                continue
            hops = []
            for path in paths:
                ids = [self.graph.node_index(node) for node in path]
                hops.append(
                    [
                        edge_of[(a, b) if a < b else (b, a)]
                        for a, b in zip(ids, ids[1:])
                    ]
                )
            routes.append(hops)
            analytic.append(probability)
        placeholder = len(self.edge_table.probabilities)
        return RouteSet(routes, placeholder), analytic


class RouteSet:
    """Every routed pair's routes as runs of edge slots, evaluated over a
    block of trials at once.

    Args:
        routes: per pair, its routes as lists of edge ids in hop order,
            or ``None`` for a pair without a route.
        placeholder: the never-failing placeholder column of the failure
            masks; a route with no hop (source = target) gets one slot on
            it, so every route owns at least one slot.

    Attributes:
        pairs: positions (in *routes*) of the pairs that have routes.
        width: number of slots, the columns a block evaluation gathers.
    """

    def __init__(
        self, routes: Sequence[Optional[List[List[int]]]], placeholder: int
    ) -> None:
        pairs: List[int] = []
        pair_starts: List[int] = []
        first_route: List[int] = []
        lengths: List[int] = []
        slot_edge: List[int] = []
        slot_hop: List[int] = []
        for i, pair_routes in enumerate(routes):
            if pair_routes is None:
                continue
            pairs.append(i)
            pair_starts.append(len(lengths))
            for hops in pair_routes:
                first_route.append(pair_starts[-1])
                lengths.append(len(hops))
                slot_edge.extend(hops or [placeholder])
                slot_hop.extend(range(len(hops) or 1))
        self.pairs = np.array(pairs, dtype=np.intp)
        self._pair_starts = np.array(pair_starts, dtype=np.intp)
        self._first_route = np.array(first_route, dtype=np.intp)
        self._lengths = np.array(lengths, dtype=np.intp)
        slots = np.maximum(self._lengths, 1)
        self._starts = np.cumsum(slots) - slots
        self._slot_edge = np.array(slot_edge, dtype=np.intp)
        self._slot_hop = np.array(slot_hop, dtype=np.intp)
        self._slot_length = np.repeat(self._lengths, slots)
        self.width = len(slot_edge)

    def _first_failures(self, failed: np.ndarray) -> np.ndarray:
        """``(t, R)``: each route's first failed hop (0-based) per trial,
        or the route's length when every hop survived."""
        hop_or_length = np.where(
            failed[:, self._slot_edge], self._slot_hop, self._slot_length
        )
        return np.minimum.reduceat(hop_or_length, self._starts, axis=1)

    def delivered(self, failed: np.ndarray) -> np.ndarray:
        """``(t, P)``: per trial, whether any route of each routed pair
        survived."""
        survived = self._first_failures(failed) == self._lengths
        return np.logical_or.reduceat(survived, self._pair_starts, axis=1)

    def account(self, failed: np.ndarray) -> Tuple[int, int]:
        """``(deliveries, transmissions)`` summed over a block.

        Each pair tries its routes in order and stops at the first that
        survives; a tried route costs its hops up to and including the
        first failed one.
        """
        first = self._first_failures(failed)
        survived = first == self._lengths
        sent = np.minimum(first + 1, self._lengths)
        earlier = np.cumsum(survived, axis=1) - survived
        tried = earlier == earlier[:, self._first_route]
        delivered = np.logical_or.reduceat(
            survived, self._pair_starts, axis=1
        )
        return int(delivered.sum()), int(sent[tried].sum())


def _component_roots(
    table: EdgeTable, failed: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Connected components of every surviving graph in a block.

    Node ``i`` of trial ``j`` has global id ``j·n + i``. Returns the root
    of every global id — the smallest global id in its component of that
    trial's surviving graph — and the root of every surviving edge.
    Roots hook onto the smaller root across each edge whose endpoints
    still disagree, then pointer jumping flattens every chain to its root;
    rounds repeat until no edge joins two roots.
    """
    trial, edge = np.nonzero(~failed[:, :-1])
    offset = trial * table.num_nodes
    heads = offset + table.ends[edge, 0]
    u, v = heads, offset + table.ends[edge, 1]
    roots = np.arange(failed.shape[0] * table.num_nodes)
    while True:
        root_u, root_v = roots[u], roots[v]
        apart = root_u != root_v
        if not apart.any():
            break
        u, v = u[apart], v[apart]
        root_u, root_v = root_u[apart], root_v[apart]
        np.minimum.at(roots, root_u, root_v)
        np.minimum.at(roots, root_v, root_u)
        while True:
            jumped = roots[roots]
            if np.array_equal(jumped, roots):
                break
            roots = jumped
    return roots, roots[heads]


def flood_block(
    table: EdgeTable, failed: np.ndarray, ends: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Flood every pair (rows of *ends*: source, target indices) in every
    trial of a block.

    Returns ``(delivered, spent)``, both ``(t, P)``: whether the target
    lies in the source's component of the surviving graph, and how many
    surviving links that component has. Every reached node rebroadcasts
    once, so each of those links carries the message exactly once.
    """
    roots, edge_roots = _component_roots(table, failed)
    base = np.arange(failed.shape[0])[:, None] * table.num_nodes
    source = roots[base + ends[:, 0]]
    target = roots[base + ends[:, 1]]
    links = np.bincount(edge_roots, minlength=roots.size)
    return source == target, links[source]
