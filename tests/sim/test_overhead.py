"""Tests for repro.sim.overhead (transmission accounting)."""

import math

import pytest

from repro.exceptions import SolverError
from repro.graph.graph import WirelessGraph
from repro.sim.delivery import DeliverySimulator
from repro.sim.overhead import (
    OverheadReport,
    compare_overheads,
    measure_overhead,
)
from tests.conftest import path_graph


def reliable_path(n_edges=3):
    g = WirelessGraph()
    for i in range(n_edges):
        g.add_edge(i, i + 1, failure_probability=0.0)
    return g


class TestMeasureOverhead:
    def test_reliable_best_path_overhead_is_path_length(self):
        g = reliable_path(3)
        sim = DeliverySimulator(g)
        report = measure_overhead(
            sim, [(0, 3)], strategy="best_path", trials=10, seed=1
        )
        assert report.deliveries == 10
        assert report.per_delivery == pytest.approx(3.0)

    def test_flooding_overhead_exceeds_best_path(self):
        """On a network with redundancy, flooding pays for every surviving
        link; best-path pays only its own hops."""
        g = WirelessGraph()
        # 2 parallel routes + a dangling subtree that flooding also wets.
        g.add_edge(0, 1, failure_probability=0.05)
        g.add_edge(1, 3, failure_probability=0.05)
        g.add_edge(0, 2, failure_probability=0.05)
        g.add_edge(2, 3, failure_probability=0.05)
        g.add_edge(1, 4, failure_probability=0.05)
        g.add_edge(4, 5, failure_probability=0.05)
        sim = DeliverySimulator(g)
        best = measure_overhead(
            sim, [(0, 3)], strategy="best_path", trials=300, seed=2
        )
        flood = measure_overhead(
            sim, [(0, 3)], strategy="flooding", trials=300, seed=2
        )
        assert flood.per_delivery > best.per_delivery

    def test_multipath_between(self):
        g = WirelessGraph()
        g.add_edge(0, 1, failure_probability=0.3)
        g.add_edge(1, 3, failure_probability=0.3)
        g.add_edge(0, 2, failure_probability=0.3)
        g.add_edge(2, 3, failure_probability=0.3)
        sim = DeliverySimulator(g)
        best = measure_overhead(
            sim, [(0, 3)], strategy="best_path", trials=400, seed=3
        )
        multi = measure_overhead(
            sim, [(0, 3)], strategy="multipath", trials=400, seed=3,
            multipath_k=2,
        )
        # multipath delivers more...
        assert multi.deliveries >= best.deliveries
        # ...and spends at least as many transmissions in total.
        assert multi.transmissions >= best.transmissions

    def test_zero_deliveries_inf_overhead(self):
        g = WirelessGraph()
        g.add_edge(0, 1, failure_probability=0.0)
        g.add_node(2)
        sim = DeliverySimulator(g)
        report = measure_overhead(
            sim, [(0, 2)], strategy="flooding", trials=5, seed=4
        )
        assert report.deliveries == 0
        assert math.isinf(report.per_delivery)

    def test_unknown_strategy_rejected(self):
        sim = DeliverySimulator(reliable_path(1))
        with pytest.raises(SolverError, match="unknown strategy"):
            measure_overhead(sim, [(0, 1)], strategy="warp")

    def test_deterministic_for_seed(self):
        g = path_graph([0.3, 0.3])
        sim = DeliverySimulator(g)
        a = measure_overhead(sim, [(0, 2)], trials=50, seed=5)
        b = measure_overhead(sim, [(0, 2)], trials=50, seed=5)
        assert (a.deliveries, a.transmissions) == (
            b.deliveries, b.transmissions,
        )


class TestCompareOverheads:
    def test_all_strategies_reported(self):
        g = path_graph([0.2, 0.2])
        reports = compare_overheads(g, [(0, 2)], trials=30, seed=6)
        assert [r.strategy for r in reports] == [
            "best_path", "multipath", "flooding",
        ]

    def test_shortcuts_reduce_best_path_overhead(self):
        """A direct shortcut turns a multi-hop route into a single reliable
        hop: 1 transmission per delivery."""
        g = path_graph([0.2] * 4)
        with_shortcut = compare_overheads(
            g, [(0, 4)], shortcuts=[(0, 4)], trials=50, seed=7
        )[0]
        assert with_shortcut.per_delivery == pytest.approx(1.0)
