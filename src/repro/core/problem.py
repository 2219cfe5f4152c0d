"""The MSC problem instance: graph + important social pairs + requirements.

An instance bundles everything Section III of the paper fixes before the
optimization starts: the undirected graph with edge lengths, the set ``S`` of
``m`` important social pairs, the failure-probability threshold ``p_t``
(equivalently the distance requirement ``d_t = -ln(1 - p_t)``), and the
shortcut-edge budget ``k``.

Since the substrate/request split, :class:`MSCInstance` is a thin façade
over a :class:`~repro.core.substrate.Substrate` (graph + oracle + shared
engine cache; expensive, immutable, shareable) and a
:class:`~repro.core.substrate.PlacementRequest` (pairs + budget +
threshold; cheap, per-query) — exposed as :attr:`MSCInstance.substrate` and
:attr:`MSCInstance.request`. The historical constructor keeps working
unchanged (no deprecation warning: it *is* the convenient one-shot form);
long-lived callers build the parts once and combine them with
:meth:`MSCInstance.from_parts` per request.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.core.substrate import OracleLike, PlacementRequest, Substrate
from repro.exceptions import InstanceError
from repro.failure.models import length_to_failure, satisfaction_limit
from repro.graph.distances import DistanceOracle
from repro.graph.graph import Node, WirelessGraph
from repro.graph.hub_labels import HubLabelOracle, threshold_cutoff
from repro.graph.sparse_oracle import SparseRowOracle
from repro.types import IndexPair, NodePair, normalize_index_pair

#: Oracle policy names accepted by ``MSCInstance(oracle=...)``.
ORACLE_POLICIES = ("dense", "sparse", "hub", "auto")

#: Below this node count ``auto`` always picks the dense tier: the full
#: APSP is cheap and every consumer gets O(1) row views with no ball
#: bookkeeping.
SPARSE_ORACLE_MIN_N = 512

#: From this node count up ``auto`` picks the hub-label tier: the sparse
#: row block is still ``r × n`` (its width grows with the graph), while
#: the threshold-cutoff label index is a few entries per node and builds
#: in ``O(n · ball)`` — the n=10⁴–10⁶ operating range.
HUB_ORACLE_MIN_N = 10_000


def resolve_oracle(
    graph: WirelessGraph,
    pair_indices: Sequence[IndexPair],
    d_threshold: Optional[float],
    policy: str,
) -> OracleLike:
    """Build the distance oracle *policy* asks for.

    ``dense`` builds the classic APSP :class:`DistanceOracle`; ``sparse``
    builds a threshold-cutoff :class:`SparseRowOracle` restricted to the
    pair endpoints and their ``d_t``-ball; ``hub`` builds a
    threshold-cutoff :class:`HubLabelOracle` (label footprint independent
    of pair count). Both cutoff tiers search only out to
    :func:`threshold_cutoff` of ``d_t`` and are exact for every comparison
    against ``d_t``. ``auto`` picks dense below
    :data:`SPARSE_ORACLE_MIN_N` (or without pairs), hub from
    :data:`HUB_ORACLE_MIN_N` up, and sparse in between — exactly what the
    ``sparse`` policy builds, however much of the graph the ball covers.

    A cutoff tier needs *d_threshold*: without one it raises
    :class:`~repro.exceptions.InstanceError` instead of building an index
    that would refuse every request. Only ``dense`` (and ``auto`` when it
    resolves to dense) accepts ``None``.
    """
    if policy not in ORACLE_POLICIES:
        raise InstanceError(
            f"unknown oracle policy {policy!r}; "
            f"available: {', '.join(ORACLE_POLICIES)}"
        )
    seeds = sorted({i for pair in pair_indices for i in pair})
    if policy == "auto":
        n = graph.number_of_nodes()
        if n < SPARSE_ORACLE_MIN_N or not seeds:
            policy = "dense"
        elif n >= HUB_ORACLE_MIN_N:
            policy = "hub"
        else:
            policy = "sparse"
    if policy == "dense":
        return DistanceOracle(graph)
    if d_threshold is None:
        raise InstanceError(
            f"the {policy!r} oracle tier needs a distance threshold "
            "(d_threshold or p_threshold) to set its cutoff"
        )
    cutoff = threshold_cutoff(d_threshold)
    if policy == "hub":
        return HubLabelOracle(graph, cutoff=cutoff)
    return SparseRowOracle(graph, seeds, radius=d_threshold, cutoff=cutoff)


class MSCInstance:
    """A Maintaining-Social-Connections problem instance.

    A façade over ``(substrate, request)``; see
    :meth:`from_parts` for the two-object form and the class attributes
    :attr:`substrate` / :attr:`request` for the parts. ``graph``,
    ``oracle``, ``pairs``, ``k`` and the thresholds read through to the
    parts, so existing code is unaffected by the split.

    Args:
        graph: the base communication graph (edge lengths already encode
            link failure probabilities).
        pairs: the important social pairs ``S`` as node pairs; each pair must
            consist of two distinct graph nodes. Duplicate pairs are allowed
            and each copy counts separately toward σ (they are distinct
            "connections" to maintain).
        k: shortcut-edge budget (``|F| <= k``).
        p_threshold: failure-probability threshold ``p_t``; exactly one of
            *p_threshold* / *d_threshold* must be given.
        d_threshold: distance requirement ``d_t`` (length space).
        require_initially_unsatisfied: when True (default), reject pairs whose
            base-graph distance already meets the requirement. The paper
            selects pairs this way (§VII-A3), and the upper bound ν's proof
            relies on it; set to False to accept arbitrary pair sets (the
            evaluator and bounds still handle base-satisfied pairs
            correctly).
        allow_degenerate: when True, accept a ``k = 0`` budget and an empty
            pair set. Such instances arise naturally in robustness studies
            (fault injection can wipe out every pair) and every registered
            solver returns a well-formed empty-ish
            :class:`~repro.types.PlacementResult` for them; the default
            keeps the paper's preconditions strict.
        oracle: the distance-oracle tier. Accepts a prebuilt oracle
            (a :class:`~repro.graph.distances.DistanceOracle`,
            :class:`~repro.graph.sparse_oracle.SparseRowOracle`, or
            :class:`~repro.graph.hub_labels.HubLabelOracle` for this
            graph), a prebuilt :class:`~repro.core.substrate.Substrate`
            (its graph must be this graph — the instance then shares the
            substrate's engine cache), one of the policy names
            ``"dense"`` / ``"sparse"`` / ``"hub"`` / ``"auto"``, or
            ``None`` for ``"auto"``, which keeps small instances dense and
            gives larger ones the pair-centric cutoff row block, or from
            n = 10⁴ up the cutoff hub-label index (see
            :func:`resolve_oracle`).
    """

    def __init__(
        self,
        graph: WirelessGraph,
        pairs: Sequence[NodePair],
        k: int,
        *,
        p_threshold: Optional[float] = None,
        d_threshold: Optional[float] = None,
        require_initially_unsatisfied: bool = True,
        allow_degenerate: bool = False,
        oracle: Union[OracleLike, Substrate, str, None] = None,
    ) -> None:
        request = PlacementRequest(
            pairs,
            k,
            p_threshold=p_threshold,
            d_threshold=d_threshold,
            require_initially_unsatisfied=require_initially_unsatisfied,
            allow_degenerate=allow_degenerate,
        )
        pair_indices = _checked_pair_indices(graph, request.pairs)
        if isinstance(oracle, Substrate):
            if oracle.graph is not graph:
                raise InstanceError(
                    "substrate was built for a different graph"
                )
            substrate = oracle
        else:
            if oracle is None:
                oracle = "auto"
            if isinstance(oracle, str):
                oracle = resolve_oracle(
                    graph, pair_indices, request.d_threshold, oracle
                )
            substrate = Substrate(graph, oracle)
        self._bind(substrate, request, pair_indices)

    @classmethod
    def from_parts(
        cls, substrate: Substrate, request: PlacementRequest
    ) -> "MSCInstance":
        """Combine a shared :class:`Substrate` with one
        :class:`PlacementRequest`.

        This is the long-lived-service entry point: the substrate (and its
        engine cache) is reused across requests, and only the cheap
        request-side validation runs per call. Equivalent in every
        observable way to the one-shot constructor with a prebuilt oracle.
        """
        self = object.__new__(cls)
        self._bind(
            substrate,
            request,
            _checked_pair_indices(substrate.graph, request.pairs),
        )
        return self

    def _bind(
        self,
        substrate: Substrate,
        request: PlacementRequest,
        pair_indices: List[IndexPair],
    ) -> None:
        oracle = substrate.oracle
        cutoff = getattr(oracle, "cutoff", None)
        if (
            cutoff is not None
            and satisfaction_limit(request.d_threshold) > cutoff
        ):
            # Beyond its cutoff a hub index or sparse block over-reports
            # distances, so σ would silently undercount the pairs the
            # request counts.
            raise InstanceError(
                f"the request's d_t={request.d_threshold:.6g} is beyond the "
                f"{substrate.oracle_kind} substrate's cutoff={cutoff:.6g}; "
                "build the substrate for this threshold (or a larger one)"
            )
        self.substrate = substrate
        self.request = request
        self.pairs: List[NodePair] = list(request.pairs)
        self.pair_indices: List[IndexPair] = pair_indices
        if request.require_initially_unsatisfied:
            # σ counts a pair satisfied up to this limit, so a pair
            # accepted here also starts unsatisfied in σ.
            limit = satisfaction_limit(request.d_threshold)
            for (u, w), (iu, iw) in zip(self.pairs, pair_indices):
                if oracle.distance_by_index(iu, iw) <= limit:
                    raise InstanceError(
                        f"pair ({u!r}, {w!r}) already meets the distance "
                        "requirement in the base graph; pass "
                        "require_initially_unsatisfied=False to allow this"
                    )

    # ------------------------------------------------------------ properties

    @property
    def graph(self) -> WirelessGraph:
        """The base communication graph (lives on the substrate)."""
        return self.substrate.graph

    @property
    def oracle(self) -> OracleLike:
        """The resolved distance oracle (lives on the substrate)."""
        return self.substrate.oracle

    @property
    def k(self) -> int:
        """Shortcut-edge budget (lives on the request)."""
        return self.request.k

    @property
    def d_threshold(self) -> float:
        """Distance requirement ``d_t`` (lives on the request)."""
        return self.request.d_threshold

    @property
    def m(self) -> int:
        """Number of important social pairs."""
        return len(self.pairs)

    @property
    def n(self) -> int:
        """Number of graph nodes."""
        return self.substrate.n

    @property
    def p_threshold(self) -> float:
        """Failure-probability threshold ``p_t`` (derived from ``d_t``)."""
        return length_to_failure(self.d_threshold)

    @property
    def oracle_kind(self) -> str:
        """Which oracle tier the instance ended up with
        (``"dense"``, ``"sparse"``, or ``"hub"``)."""
        return self.substrate.oracle_kind

    def pair_nodes(self) -> List[Node]:
        """Distinct nodes appearing in the social pairs, in first-seen
        order."""
        seen = []
        seen_set = set()
        for u, w in self.pairs:
            for node in (u, w):
                if node not in seen_set:
                    seen_set.add(node)
                    seen.append(node)
        return seen

    def common_node(self) -> Optional[Node]:
        """The node shared by *all* pairs, if one exists (MSC-CN case).

        Returns ``None`` when no single node appears in every pair (or when
        the instance has no pairs at all). If both endpoints of the first
        pair are common to all pairs (only possible with duplicated pairs),
        the first is returned.
        """
        if not self.pairs:
            return None
        candidates = set(self.pairs[0])
        for u, w in self.pairs[1:]:
            candidates &= {u, w}
            if not candidates:
                return None
        first = self.pairs[0]
        for node in first:  # preserve pair order for determinism
            if node in candidates:
                return node
        return None

    # ------------------------------------------------------------ conversion

    def index_pair_to_nodes(self, pair: IndexPair) -> NodePair:
        """Convert a dense index pair back to a node pair."""
        return (
            self.graph.index_node(pair[0]),
            self.graph.index_node(pair[1]),
        )

    def edges_to_nodes(
        self, edges: Sequence[IndexPair]
    ) -> List[NodePair]:
        """Convert a shortcut set in index space to node pairs."""
        return [self.index_pair_to_nodes(e) for e in edges]

    def describe(self) -> str:
        """Short human-readable description for experiment logs."""
        return (
            f"MSCInstance(n={self.n}, e={self.graph.number_of_edges()}, "
            f"m={self.m}, k={self.k}, p_t={self.p_threshold:.4f}, "
            f"d_t={self.d_threshold:.4f})"
        )

    def __repr__(self) -> str:
        return self.describe()


def _checked_pair_indices(
    graph: WirelessGraph, pairs: Sequence[NodePair]
) -> List[IndexPair]:
    """Validate *pairs* against *graph* and return their index form."""
    indices: List[IndexPair] = []
    for u, w in pairs:
        if u == w:
            raise InstanceError(f"social pair ({u!r}, {w!r}) is a self-pair")
        if not graph.has_node(u) or not graph.has_node(w):
            raise InstanceError(
                f"social pair ({u!r}, {w!r}) references unknown node(s)"
            )
        indices.append(
            normalize_index_pair(graph.node_index(u), graph.node_index(w))
        )
    return indices
