"""Placement analysis: per-edge attribution and interactive planning."""

from repro.analysis.planner import PlacementPlanner
from repro.analysis.placement import (
    EdgeContribution,
    edge_contributions,
    pair_attribution,
)

__all__ = [
    "EdgeContribution",
    "edge_contributions",
    "pair_attribution",
    "PlacementPlanner",
]
