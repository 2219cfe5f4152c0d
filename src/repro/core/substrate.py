"""The substrate/request split: shared immutable state vs per-request state.

Historically :class:`~repro.core.problem.MSCInstance` entangled two very
different lifetimes: the *substrate* — the wireless graph and its resolved
distance-oracle tier, expensive to build and identical across every request
over the same topology — and the *request* — the social pairs, budget and
threshold of one placement query, cheap and different every time. Batch
experiments paid the substrate cost once per instance; a long-lived planner
service cannot afford to pay it once per request.

This module makes the two halves first-class:

* :class:`Substrate` — graph + distance oracle + the shared
  :class:`EngineCache`. Build it once, share it across thousands of
  requests (and across threads, one at a time: the service holds a lock
  per resident substrate). Substrates are hashable *by content*
  (:attr:`fingerprint`), so caches can key on them.
* :class:`PlacementRequest` — an immutable value object carrying the pairs,
  budget ``k``, distance requirement and validation flags of one query.
* :class:`EngineCache` — the LRU of
  :class:`~repro.graph.shortcuts.ShortcutDistanceEngine` previously private
  to each :class:`~repro.core.evaluator.SigmaEvaluator`; owning it here is
  what lets every evaluator, planner session and served request over one
  substrate reuse each other's incremental engine extensions.

``Substrate + PlacementRequest`` combine into an ``MSCInstance`` via
:meth:`Substrate.instance` /
:meth:`~repro.core.problem.MSCInstance.from_parts`; the façade keeps every
existing consumer working unchanged.
"""

from __future__ import annotations

import hashlib
from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence, Tuple, Union

from repro.exceptions import InstanceError
from repro.failure.models import failure_to_length, length_to_failure
from repro.graph.distances import DistanceOracle
from repro.graph.graph import WirelessGraph, graph_signature
from repro.graph.hub_labels import HubLabelOracle
from repro.graph.shortcuts import ShortcutDistanceEngine
from repro.graph.sparse_oracle import SparseRowOracle
from repro.types import IndexPair, NodePair, normalize_index_pair
from repro.util.validation import (
    check_fraction,
    check_nonnegative,
    check_nonnegative_int,
    check_positive_int,
)

#: Any distance-oracle tier (all serve the row protocol).
OracleLike = Union[DistanceOracle, SparseRowOracle, HubLabelOracle]

#: Below this node count the engine LRU is disabled by default: building a
#: supernode table from scratch on a graph this small is cheaper than the
#: cache's frozenset keys and parent-lookup bookkeeping (the n=40
#: regression in BENCH_perf.json). Explicit ``engine_cache_size`` values
#: always win; the calibrated cutover is recorded in the benchmark output.
ENGINE_CACHE_MIN_N = 96

#: Default engine-LRU capacity once the cutover is passed.
DEFAULT_ENGINE_CACHE_SIZE = 128


class EngineCache:
    """Small LRU of :class:`ShortcutDistanceEngine` keyed by shortcut set.

    A lookup that misses but finds an engine for a one-edge-smaller subset
    derives the requested engine incrementally via
    :meth:`ShortcutDistanceEngine.extended_by_index` instead of rebuilding
    the supernode tables from the APSP matrix. ``maxsize=0`` disables
    caching entirely (every lookup rebuilds from scratch — the legacy
    behavior, kept for benchmarking).

    Engines depend only on the oracle and the shortcut set — never on the
    pairs or threshold of any particular request — so one cache is safely
    shared by every evaluator over the same :class:`Substrate`.
    """

    def __init__(self, oracle: OracleLike, maxsize: int = 128) -> None:
        self._oracle = oracle
        self._maxsize = int(maxsize)
        self._store: "OrderedDict[frozenset, ShortcutDistanceEngine]" = (
            OrderedDict()
        )
        self.hits = 0
        self.extensions = 0
        self.builds = 0

    def get(self, edges: Iterable[IndexPair]) -> ShortcutDistanceEngine:
        key = frozenset(normalize_index_pair(a, b) for a, b in edges)
        if self._maxsize <= 0:
            self.builds += 1
            return ShortcutDistanceEngine.from_index_pairs(
                self._oracle, sorted(key)
            )
        engine = self._store.get(key)
        if engine is not None:
            self._store.move_to_end(key)
            self.hits += 1
            return engine
        for edge in key:
            parent = self._store.get(key - {edge})
            if parent is not None:
                engine = parent.extended_by_index(*edge)
                self.extensions += 1
                break
        if engine is None:
            engine = ShortcutDistanceEngine.from_index_pairs(
                self._oracle, sorted(key)
            )
            self.builds += 1
        self._store[key] = engine
        return self._trim(engine)

    def _trim(self, engine: ShortcutDistanceEngine) -> ShortcutDistanceEngine:
        while len(self._store) > self._maxsize:
            self._store.popitem(last=False)
        return engine

    def stats(self) -> dict:
        """Counter snapshot (hits / incremental extensions / full builds)."""
        return {
            "hits": self.hits,
            "extensions": self.extensions,
            "builds": self.builds,
            "entries": len(self._store),
            "maxsize": self._maxsize,
        }


def default_engine_cache_size(n: int) -> int:
    """The auto-selected engine-LRU capacity for an *n*-node substrate."""
    return DEFAULT_ENGINE_CACHE_SIZE if n >= ENGINE_CACHE_MIN_N else 0


@dataclass(frozen=True)
class PlacementRequest:
    """One placement query: the per-request half of an ``MSCInstance``.

    Immutable and hashable; everything here is cheap to construct and
    validate, by design — the expensive state lives on the
    :class:`Substrate`. Exactly one of *p_threshold* / *d_threshold* must
    be given (mirroring ``MSCInstance``); the resolved distance requirement
    is :attr:`d_threshold` either way.

    Attributes:
        pairs: the important social pairs ``S`` as node pairs.
        k: shortcut-edge budget.
        d_threshold: distance requirement ``d_t`` (length space).
        require_initially_unsatisfied: reject pairs already satisfied in
            the base graph (the paper's selection rule, §VII-A3).
        allow_degenerate: accept ``k = 0`` and empty pair sets.
    """

    pairs: Tuple[NodePair, ...]
    k: int
    d_threshold: float
    require_initially_unsatisfied: bool = True
    allow_degenerate: bool = False

    def __init__(
        self,
        pairs: Sequence[NodePair],
        k: int,
        *,
        p_threshold: Optional[float] = None,
        d_threshold: Optional[float] = None,
        require_initially_unsatisfied: bool = True,
        allow_degenerate: bool = False,
    ) -> None:
        if (p_threshold is None) == (d_threshold is None):
            raise InstanceError(
                "exactly one of p_threshold / d_threshold must be given"
            )
        if d_threshold is None:
            p = check_fraction(p_threshold, "p_threshold")
            d_threshold = failure_to_length(p)
        else:
            d_threshold = check_nonnegative(d_threshold, "d_threshold")
        if allow_degenerate:
            k = check_nonnegative_int(k, "k")
        else:
            k = check_positive_int(k, "k")
        normalized = tuple((u, w) for u, w in pairs)
        if not normalized and not allow_degenerate:
            raise InstanceError(
                "at least one important social pair required "
                "(pass allow_degenerate=True to accept an empty set)"
            )
        object.__setattr__(self, "pairs", normalized)
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "d_threshold", float(d_threshold))
        object.__setattr__(
            self,
            "require_initially_unsatisfied",
            bool(require_initially_unsatisfied),
        )
        object.__setattr__(
            self, "allow_degenerate", bool(allow_degenerate)
        )

    @property
    def m(self) -> int:
        """Number of important social pairs."""
        return len(self.pairs)

    @property
    def p_threshold(self) -> float:
        """Failure-probability threshold ``p_t`` (derived from ``d_t``)."""
        return length_to_failure(self.d_threshold)

    def describe(self) -> str:
        return (
            f"PlacementRequest(m={self.m}, k={self.k}, "
            f"p_t={self.p_threshold:.4f}, d_t={self.d_threshold:.4f})"
        )


def _oracle_descriptor(oracle: OracleLike) -> str:
    """Content descriptor of an oracle tier for substrate fingerprints.

    Two oracles over content-equal graphs answer identically when their
    tier and tier parameters match: the dense APSP has no parameters, the
    sparse tier is determined by its source-row set and row cutoff, and
    the hub tier by its threshold cutoff.
    """
    if isinstance(oracle, SparseRowOracle):
        sources = ",".join(str(int(s)) for s in oracle.source_indices)
        return f"sparse:{sources}:{oracle.cutoff!r}"
    if isinstance(oracle, HubLabelOracle):
        return f"hub:{oracle.cutoff!r}"
    return "dense"


class Substrate:
    """Immutable shared solve state: graph + oracle tier + engine cache.

    Build once, share across many :class:`PlacementRequest` solves — the
    planner service keeps Substrates resident so a warm request skips
    graph generation, APSP/label construction *and* base-engine builds.

    Substrates compare and hash **by content** (:attr:`fingerprint`): two
    independently built substrates over identical graphs with the same
    oracle tier/parameters are equal, which is what lets caches keyed by
    workload spec rebuild after eviction without invalidating anything.

    Args:
        graph: the base communication graph.
        oracle: a prebuilt distance oracle for *graph* (any tier). Use
            :meth:`Substrate.build` to resolve a policy name instead.
        engine_cache_size: LRU capacity of the shared engine cache;
            ``None`` auto-selects via :func:`default_engine_cache_size`.
    """

    def __init__(
        self,
        graph: WirelessGraph,
        oracle: OracleLike,
        *,
        engine_cache_size: Optional[int] = None,
    ) -> None:
        if oracle.graph is not graph:
            raise InstanceError("oracle was built for a different graph")
        self._graph = graph
        self._oracle = oracle
        self._engine_cache_size = engine_cache_size
        self._engine_cache: Optional[EngineCache] = None
        self._fingerprint: Optional[str] = None

    @classmethod
    def build(
        cls,
        graph: WirelessGraph,
        *,
        oracle: Union[OracleLike, str, None] = None,
        d_threshold: Optional[float] = None,
        p_threshold: Optional[float] = None,
        pair_indices: Sequence[IndexPair] = (),
        engine_cache_size: Optional[int] = None,
    ) -> "Substrate":
        """Build a substrate, resolving an oracle *policy* if needed.

        *oracle* accepts a prebuilt oracle, a policy name (``"dense"`` /
        ``"sparse"`` / ``"hub"`` / ``"auto"``), or ``None`` for ``"auto"``.
        Policy resolution may consult *d_threshold* (or *p_threshold*) and
        *pair_indices* — the sparse tier is pair-centric, and both it and
        the hub tier stop their searches at the threshold, so they need
        one (:class:`~repro.exceptions.InstanceError` without it) and
        refuse a request with a larger threshold. A service substrate meant
        to outlive any single request should pass ``oracle="dense"`` (or a
        prebuilt oracle) so the tier is request-independent.
        """
        from repro.core.problem import resolve_oracle

        if d_threshold is None and p_threshold is not None:
            d_threshold = failure_to_length(
                check_fraction(p_threshold, "p_threshold")
            )
        if oracle is None:
            oracle = "auto"
        if isinstance(oracle, str):
            oracle = resolve_oracle(
                graph,
                list(pair_indices),
                None if d_threshold is None else float(d_threshold),
                oracle,
            )
        return cls(graph, oracle, engine_cache_size=engine_cache_size)

    # ------------------------------------------------------------ properties

    @property
    def graph(self) -> WirelessGraph:
        return self._graph

    @property
    def oracle(self) -> OracleLike:
        return self._oracle

    @property
    def n(self) -> int:
        """Number of graph nodes."""
        return self._graph.number_of_nodes()

    @property
    def oracle_kind(self) -> str:
        """Which oracle tier the substrate carries
        (``"dense"``, ``"sparse"``, or ``"hub"``)."""
        if isinstance(self._oracle, SparseRowOracle):
            return "sparse"
        if isinstance(self._oracle, HubLabelOracle):
            return "hub"
        return "dense"

    @property
    def engine_cache(self) -> EngineCache:
        """The shared shortcut-engine LRU (created lazily)."""
        if self._engine_cache is None:
            size = self._engine_cache_size
            if size is None:
                size = default_engine_cache_size(self.n)
            self._engine_cache = EngineCache(self._oracle, size)
        return self._engine_cache

    @property
    def fingerprint(self) -> str:
        """Content digest: graph structure + oracle tier/parameters."""
        if self._fingerprint is None:
            hasher = hashlib.sha256()
            hasher.update(graph_signature(self._graph).encode())
            hasher.update(_oracle_descriptor(self._oracle).encode())
            self._fingerprint = hasher.hexdigest()[:32]
        return self._fingerprint

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Substrate):
            return NotImplemented
        return self.fingerprint == other.fingerprint

    def __hash__(self) -> int:
        return hash(self.fingerprint)

    def __repr__(self) -> str:
        return (
            f"Substrate(n={self.n}, e={self._graph.number_of_edges()}, "
            f"oracle={self.oracle_kind}, fp={self.fingerprint[:8]})"
        )

    # ------------------------------------------------------------- requests

    def instance(self, request: PlacementRequest):
        """Combine with *request* into an ``MSCInstance`` (the façade all
        solvers consume)."""
        from repro.core.problem import MSCInstance

        return MSCInstance.from_parts(self, request)

    def stats(self) -> dict:
        """Cache-observability snapshot for the service ``stats`` op."""
        return {
            "n": self.n,
            "edges": self._graph.number_of_edges(),
            "oracle": self.oracle_kind,
            "fingerprint": self.fingerprint,
            "engine_cache": (
                self._engine_cache.stats()
                if self._engine_cache is not None
                else None
            ),
        }
