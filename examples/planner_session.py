"""Interactive placement planning: steer, inspect, undo.

Solvers return finished placements; a network operator usually works
iteratively — place a link, see what it buys, ask for suggestions, undo a
bad idea. This example drives :class:`repro.analysis.planner
.PlacementPlanner` through such a session, then compares the hand-steered
result with the Approximation Algorithm and stress-tests it with the
fault-injection harness.

Run:  python examples/planner_session.py
"""

from repro import (
    MSCInstance,
    PlacementPlanner,
    SandwichApproximation,
    random_geometric_network,
    select_important_pairs,
)
from repro.failure import FaultInjectionHarness


def main() -> None:
    p_t = 0.1
    net = random_geometric_network(
        70, radius=0.21, max_link_failure=0.08, seed=29
    )
    pairs = select_important_pairs(
        net.graph, m=18, p_threshold=p_t, seed=30
    )
    instance = MSCInstance(net.graph, pairs, k=4, p_threshold=p_t)
    planner = PlacementPlanner(instance)
    print(planner.summary())

    # Ask for the top suggestions before placing anything.
    print("\ntop suggestions (edge -> resulting σ):")
    for edge, value in planner.suggest(3):
        print(f"  {edge[0]}-{edge[1]} -> σ={value}")

    # Take the best one, then deliberately try a bad idea and undo it.
    best = planner.apply_best()
    print(f"\nplaced {best[0]}-{best[1]}: {planner.summary()}")
    u, w = planner.unsatisfied_pairs[0]
    sigma_before = planner.sigma
    planner.add(u, w)  # directly wire one unhappy pair
    print(f"direct link {u}-{w}: σ {sigma_before} -> {planner.sigma}")
    planner.undo()
    print(f"undo: back to σ={planner.sigma}")

    # Let the greedy suggestions finish the budget.
    while planner.remaining_budget > 0 and planner.apply_best():
        pass
    print(f"\nafter filling the budget: {planner.summary()}")

    # Compare with the sandwich algorithm on the same instance.
    aa = SandwichApproximation(instance).solve()
    print(f"AA reference: σ={aa.sigma}")

    # Stress the hand-built placement: inflate every link's failure
    # probability (severity 1 would multiply it by 4) and re-measure σ.
    harness = FaultInjectionHarness(instance, planner.edges, seed=31)
    print("\nσ under failure-probability drift:")
    for outcome in harness.sweep("probability_drift", [0.0, 0.25, 0.5]):
        print(
            f"  severity {outcome.severity:.2f}: "
            f"σ={outcome.sigma}/{outcome.num_pairs}"
        )


if __name__ == "__main__":
    main()
