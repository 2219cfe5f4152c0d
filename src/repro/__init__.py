"""repro — reproduction of "Maintaining Social Connections through Direct
Link Placement in Wireless Networks" (Qiu, Ma, Cao; ICDCS 2019).

The library implements the MSC problem end to end: the wireless-graph
substrate with failure-probability link model, the workload generators the
paper evaluates on (random geometric graphs, a Gowalla-like location-based
social network, tactical group-mobility traces), the sandwich Approximation
Algorithm with its submodular bounds, both evolutionary algorithms, the
dynamic-network extension, and an experiment harness regenerating every
table and figure of the paper's evaluation section.

Quickstart::

    from repro import (
        MSCInstance, SandwichApproximation,
        random_geometric_network, select_important_pairs,
    )

    net = random_geometric_network(100, radius=0.2, seed=1)
    pairs = select_important_pairs(net.graph, m=20, p_threshold=0.1, seed=2)
    instance = MSCInstance(net.graph, pairs, k=5, p_threshold=0.1)
    result = SandwichApproximation(instance).solve()
    print(result.summary())
"""

from repro.core.aea import (
    AdaptiveEvolutionaryAlgorithm,
    solve_aea,
    solve_aea_warmstart,
)
from repro.core.bounds import MuFunction, NuFunction
from repro.core.ea import EvolutionaryAlgorithm, solve_ea
from repro.core.evaluator import SigmaEvaluator
from repro.core.exact import solve_exact
from repro.core.budgeted import (
    budgeted_greedy_placement,
    distance_cost_matrix,
    placement_cost,
)
from repro.core.greedy import greedy_placement
from repro.core.lazy_greedy import lazy_greedy_placement
from repro.core.msc_cn import (
    is_common_node_instance,
    solve_msc_cn,
    solve_msc_cn_exact,
)
from repro.core.problem import MSCInstance
from repro.core.random_baseline import solve_random_baseline
from repro.core.ratio import sandwich_ratio
from repro.core.registry import (
    get_solver,
    register_solver,
    solve,
    solve_request,
    solver_names,
)
from repro.core.substrate import EngineCache, PlacementRequest, Substrate
from repro.core.sandwich import SandwichApproximation, solve_sandwich
from repro.core.weighted import (
    WeightedMuFunction,
    WeightedNuFunction,
    WeightedSigmaEvaluator,
    weighted_sandwich,
)
from repro.analysis.placement import edge_contributions, pair_attribution
from repro.analysis.planner import PlacementPlanner
from repro.dynamics.prediction import LinearMotionPredictor, prediction_error, split_trace
from repro.dynamics.series import DynamicMSCInstance, build_dynamic_instance
from repro.exceptions import (
    GraphError,
    InstanceError,
    ReproError,
    SolverError,
    TraceFormatError,
    ValidationError,
)
from repro.graph.distances import DistanceOracle
from repro.graph.graph import WirelessGraph
from repro.graph.shortcuts import ShortcutDistanceEngine
from repro.netgen.geometric import GeometricNetwork, random_geometric_network
from repro.netgen.gowalla import gowalla_network, synthesize_gowalla_austin
from repro.netgen.pairs import (
    select_common_node_pairs,
    select_friend_pairs,
    select_important_pairs,
)
from repro.netgen.tactical import (
    TacticalConfig,
    generate_tactical_trace,
    tactical_topology_series,
)
from repro.io import load_instance, load_placement, save_instance, save_placement
from repro.sim.delivery import DeliveryReport, DeliverySimulator
from repro.types import PlacementResult
from repro.viz.svg import render_placement_svg, save_placement_svg

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # substrate
    "WirelessGraph",
    "DistanceOracle",
    "ShortcutDistanceEngine",
    # problem + objective
    "MSCInstance",
    "Substrate",
    "PlacementRequest",
    "EngineCache",
    "SigmaEvaluator",
    "MuFunction",
    "NuFunction",
    "PlacementResult",
    # algorithms
    "greedy_placement",
    "lazy_greedy_placement",
    "budgeted_greedy_placement",
    "distance_cost_matrix",
    "placement_cost",
    "SandwichApproximation",
    "solve_sandwich",
    "EvolutionaryAlgorithm",
    "solve_ea",
    "AdaptiveEvolutionaryAlgorithm",
    "solve_aea",
    "solve_aea_warmstart",
    "solve_random_baseline",
    "solve_exact",
    "solve_msc_cn",
    "solve_msc_cn_exact",
    "is_common_node_instance",
    "sandwich_ratio",
    "WeightedSigmaEvaluator",
    "WeightedMuFunction",
    "WeightedNuFunction",
    "weighted_sandwich",
    "get_solver",
    "register_solver",
    "solve",
    "solve_request",
    "solver_names",
    # analysis
    "edge_contributions",
    "pair_attribution",
    "PlacementPlanner",
    # dynamics
    "DynamicMSCInstance",
    "build_dynamic_instance",
    "LinearMotionPredictor",
    "prediction_error",
    "split_trace",
    # simulation
    "DeliverySimulator",
    "DeliveryReport",
    # visualization
    "render_placement_svg",
    "save_placement_svg",
    # persistence
    "save_instance",
    "load_instance",
    "save_placement",
    "load_placement",
    # workloads
    "GeometricNetwork",
    "random_geometric_network",
    "gowalla_network",
    "synthesize_gowalla_austin",
    "select_important_pairs",
    "select_common_node_pairs",
    "select_friend_pairs",
    "TacticalConfig",
    "generate_tactical_trace",
    "tactical_topology_series",
    # errors
    "ReproError",
    "GraphError",
    "InstanceError",
    "SolverError",
    "TraceFormatError",
    "ValidationError",
]
