"""Transmission-overhead accounting: why flooding is not a free lunch.

The delivery simulator shows flooding delivers well even without shortcut
edges; the paper's §I argument against it is *cost*: "such redundant
transmission may further degrade the communication of other social pairs".
This module quantifies that cost per delivery attempt:

* ``best_path`` / ``multipath`` — transmissions = links of the attempted
  path(s) up to (and including) the first failed link; retrying stops at
  the first surviving path for multipath.
* ``flooding`` — every node that receives the message rebroadcasts once,
  so transmissions = surviving links incident to the source's reachable
  component (each such link carries the message once).

The headline metric is transmissions **per successful delivery** — the
overhead a network engineer would weigh against placing a reliable link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.graph.graph import WirelessGraph
from repro.sim.delivery import (
    STRATEGIES,
    DeliverySimulator,
    check_strategy,
    flood_block,
)
from repro.sim.sampling import failure_blocks
from repro.types import NodePair
from repro.util.rng import SeedLike, ensure_rng
from repro.util.validation import check_positive_int


@dataclass(frozen=True)
class OverheadReport:
    """Transmission accounting for one strategy over all pairs/trials.

    Attributes:
        strategy: forwarding strategy measured.
        trials: failure rounds simulated.
        deliveries: successful deliveries across pairs and trials.
        transmissions: total link transmissions spent.
    """

    strategy: str
    trials: int
    deliveries: int
    transmissions: int

    @property
    def per_delivery(self) -> float:
        """Transmissions per successful delivery (inf when none)."""
        if self.deliveries == 0:
            return float("inf")
        return self.transmissions / self.deliveries


def measure_overhead(
    simulator: DeliverySimulator,
    pairs: Sequence[NodePair],
    *,
    strategy: str = "flooding",
    trials: int = 200,
    seed: SeedLike = None,
    multipath_k: int = 3,
) -> OverheadReport:
    """Simulate *trials* rounds and account transmissions for *strategy*.

    Uses the simulator's augmented graph (shortcut edges included, never
    failing). Flooding needs both endpoints of every pair in the graph
    (:class:`~repro.exceptions.GraphError` otherwise); under the routed
    strategies a pair without a route costs nothing and never
    delivers."""
    check_positive_int(trials, "trials")
    check_strategy(strategy)
    rng = ensure_rng(seed)
    table = simulator.edge_table
    deliveries = 0
    transmissions = 0
    if strategy == "flooding":
        index = simulator.graph.node_index
        ends = np.array(
            [(index(u), index(w)) for u, w in pairs], dtype=np.intp
        ).reshape(-1, 2)
        for failed in failure_blocks(table, rng, trials, len(ends)):
            delivered, spent = flood_block(table, failed, ends)
            deliveries += int(delivered.sum())
            transmissions += int(spent.sum())
    else:
        routes, _analytic = simulator._routes(pairs, strategy, multipath_k)
        for failed in failure_blocks(table, rng, trials, routes.width):
            delivered, spent = routes.account(failed)
            deliveries += delivered
            transmissions += spent
    return OverheadReport(
        strategy=strategy,
        trials=trials,
        deliveries=deliveries,
        transmissions=transmissions,
    )


def compare_overheads(
    graph: WirelessGraph,
    pairs: Sequence[NodePair],
    shortcuts: Sequence[NodePair] = (),
    *,
    trials: int = 200,
    seed: SeedLike = None,
) -> List[OverheadReport]:
    """Overhead reports for all three strategies on the same trials
    (independent streams per strategy, same seed base)."""
    simulator = DeliverySimulator(graph, shortcuts)
    return [
        measure_overhead(
            simulator,
            pairs,
            strategy=strategy,
            trials=trials,
            seed=(seed, strategy),
        )
        for strategy in STRATEGIES
    ]
