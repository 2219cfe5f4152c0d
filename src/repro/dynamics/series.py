"""Dynamic MSC: one shortcut placement serving a series of topologies.

Section VI of the paper models a dynamic network as topologies
``G_1, ..., G_T`` (predicted from mobility/social evolution), each with its
own set of important pairs. The objective becomes
``σ(F) = Σ_t σ_t(F)``, and since sums of submodular functions are
submodular, the summed bounds ``μ = Σ μ_t`` and ``ν = Σ ν_t`` sandwich the
dynamic objective exactly as in the static case — so *every* static
algorithm (AA, EA, AEA, greedy, random) reapplies unchanged. This module
provides that wiring.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

from repro.core.aea import AdaptiveEvolutionaryAlgorithm
from repro.core.bounds import MuFunction, NuFunction
from repro.core.ea import EvolutionaryAlgorithm
from repro.core.evaluator import SigmaEvaluator
from repro.core.problem import MSCInstance
from repro.core.random_baseline import solve_random_baseline
from repro.core.sandwich import SandwichApproximation
from repro.core.setfunction import SumSetFunction
from repro.exceptions import InstanceError
from repro.graph.graph import WirelessGraph
from repro.types import IndexPair, NodePair, PlacementResult
from repro.util.rng import SeedLike


class DynamicMSCInstance:
    """A sequence of per-time-instance MSC instances over one node universe.

    All topologies must list exactly the same nodes in the same order (so a
    shortcut edge, an index pair, means the same physical link at every time
    instance) and share the budget ``k``.
    """

    def __init__(self, instances: Sequence[MSCInstance]) -> None:
        if not instances:
            raise InstanceError("need at least one time instance")
        reference = instances[0]
        nodes = reference.graph.nodes
        for t, instance in enumerate(instances):
            if instance.graph.nodes != nodes:
                raise InstanceError(
                    f"topology {t} has a different node universe than "
                    "topology 0 (same nodes in the same order are required)"
                )
            if instance.k != reference.k:
                raise InstanceError(
                    f"topology {t} has budget k={instance.k}, expected "
                    f"{reference.k}"
                )
        self.instances: List[MSCInstance] = list(instances)
        self._sigma: Optional[SumSetFunction] = None
        self._mu: Optional[SumSetFunction] = None
        self._nu: Optional[SumSetFunction] = None

    # ------------------------------------------------------------ properties

    @property
    def T(self) -> int:
        """Number of time instances."""
        return len(self.instances)

    @property
    def k(self) -> int:
        return self.instances[0].k

    @property
    def n(self) -> int:
        return self.instances[0].n

    @property
    def total_pairs(self) -> int:
        """Total important pairs across all time instances (the maximum of
        the dynamic objective)."""
        return sum(instance.m for instance in self.instances)

    @property
    def carrier(self) -> MSCInstance:
        """The instance used for node/index conversions (topology 0)."""
        return self.instances[0]

    # ------------------------------------------------------------ objectives

    def sigma_function(self) -> SumSetFunction:
        """The dynamic objective ``Σ_t σ_t`` (cached)."""
        if self._sigma is None:
            self._sigma = SumSetFunction(
                [SigmaEvaluator(instance) for instance in self.instances]
            )
        return self._sigma

    def mu_function(self) -> SumSetFunction:
        """The summed lower bound ``Σ_t μ_t`` (cached)."""
        if self._mu is None:
            self._mu = SumSetFunction(
                [MuFunction(instance) for instance in self.instances]
            )
        return self._mu

    def nu_function(self) -> SumSetFunction:
        """The summed upper bound ``Σ_t ν_t`` (cached)."""
        if self._nu is None:
            self._nu = SumSetFunction(
                [NuFunction(instance) for instance in self.instances]
            )
        return self._nu

    def sigma_per_topology(self, edges: Sequence[IndexPair]) -> List[int]:
        """σ_t(F) for each time instance, for per-instance reporting
        (Fig. 5b averages)."""
        return [
            int(term.value(edges)) for term in self.sigma_function().terms
        ]

    def edges_to_index_pairs(
        self, edges: Sequence[NodePair]
    ) -> List[IndexPair]:
        """Convert node-pair shortcut edges into the shared index space."""
        graph = self.carrier.graph
        out = []
        for u, v in edges:
            a, b = graph.node_index(u), graph.node_index(v)
            out.append((a, b) if a <= b else (b, a))
        return out

    # --------------------------------------------------------------- solvers

    def sandwich(self) -> SandwichApproximation:
        """Sandwich AA over the summed objective and bounds; its
        ``solve(k=...)`` serves any budget up to :attr:`k` from one greedy
        run per function."""
        return SandwichApproximation(
            self.carrier,
            sigma=self.sigma_function(),
            mu=self.mu_function(),
            nu=self.nu_function(),
        )

    def solve_sandwich(self) -> PlacementResult:
        """Sandwich AA on the dynamic objective (paper §VI-2)."""
        return self.sandwich().solve(k=self.k)

    def solve_ea(
        self, iterations: int = 500, seed: SeedLike = None
    ) -> PlacementResult:
        """EA on the dynamic objective (paper §VI-3)."""
        return EvolutionaryAlgorithm(
            self.carrier,
            iterations=iterations,
            sigma=self.sigma_function(),
            seed=seed,
        ).solve(k=self.k)

    def solve_aea(
        self,
        iterations: int = 500,
        *,
        pool_size: int = 10,
        delta: float = 0.05,
        seed: SeedLike = None,
    ) -> PlacementResult:
        """AEA on the dynamic objective (paper §VI-3)."""
        return AdaptiveEvolutionaryAlgorithm(
            self.carrier,
            iterations=iterations,
            pool_size=pool_size,
            delta=delta,
            sigma=self.sigma_function(),
            seed=seed,
        ).solve(k=self.k)

    def solve_random(
        self, trials: int = 500, seed: SeedLike = None
    ) -> PlacementResult:
        """Best-of-*trials* random placement on the dynamic objective."""
        return solve_random_baseline(
            self.carrier,
            seed=seed,
            trials=trials,
            sigma=self.sigma_function(),
        )


def build_dynamic_instance(
    graphs: Sequence[WirelessGraph],
    pairs_per_topology: Sequence[Sequence[NodePair]],
    k: int,
    *,
    p_threshold: Optional[float] = None,
    d_threshold: Optional[float] = None,
    require_initially_unsatisfied: bool = True,
) -> DynamicMSCInstance:
    """Assemble a :class:`DynamicMSCInstance` from per-topology graphs and
    pair sets sharing one threshold and budget."""
    if len(graphs) != len(pairs_per_topology):
        raise InstanceError(
            f"{len(graphs)} graphs but {len(pairs_per_topology)} pair sets"
        )
    instances = [
        MSCInstance(
            graph,
            pairs,
            k,
            p_threshold=p_threshold,
            d_threshold=d_threshold,
            require_initially_unsatisfied=require_initially_unsatisfied,
        )
        for graph, pairs in zip(graphs, pairs_per_topology)
    ]
    return DynamicMSCInstance(instances)
