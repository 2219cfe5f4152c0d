"""The batched simulator against its per-trial reference (reference.py).

Same seed in, same numbers out: every strategy must report the same
successes, analytic values, deliveries and transmissions as the per-trial
loops, and leave the caller's generator in the same state — across block
sizes, including blocks of a single trial and trial counts that are not a
multiple of the block.
"""

import os
import random
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphError, ValidationError
from repro.graph.graph import WirelessGraph
from repro.sim import sampling
from repro.sim.delivery import STRATEGIES, DeliverySimulator
from repro.sim.overhead import measure_overhead
from tests.conftest import path_graph
from tests.sim import reference
from tests.sim.reference import flood_transmissions, path_transmissions

GHOST = "ghost"  # a pair endpoint that is not in the graph
SRC = Path(__file__).resolve().parents[2] / "src"


def reliable_path(n_edges=3):
    g = WirelessGraph()
    for i in range(n_edges):
        g.add_edge(i, i + 1, failure_probability=0.0)
    return g


class TestPathTransmissions:
    def test_full_path_delivered(self):
        sent, ok = path_transmissions([0, 1, 2, 3], set())
        assert (sent, ok) == (3, True)

    def test_stops_at_first_failure(self):
        sent, ok = path_transmissions([0, 1, 2, 3], {(1, 2)})
        assert (sent, ok) == (2, False)

    def test_failure_orientation_irrelevant(self):
        sent, ok = path_transmissions([0, 1, 2], {(1, 0)})
        assert (sent, ok) == (1, False)


class TestFloodTransmissions:
    def test_counts_component_links_once(self):
        g = reliable_path(3)
        sent, ok = flood_transmissions(g, set(), 0, 3)
        assert sent == 3
        assert ok

    def test_failed_link_blocks_and_reduces(self):
        g = reliable_path(3)
        sent, ok = flood_transmissions(g, {(1, 2)}, 0, 3)
        assert sent == 1  # only 0-1 survives in source component
        assert not ok


@st.composite
def scenarios(draw):
    """A small random graph, or a path of up to 120 hops, with certain
    (p = 0) and near-certain (p = 0.999) failures, an isolated node,
    shortcuts (one possibly laid over an existing link), and pairs
    including a disconnected one, one with an unknown endpoint and
    possibly one from a node to itself."""
    probability = st.one_of(
        st.sampled_from([0.0, 0.999]), st.floats(0.0, 0.9)
    )
    if draw(st.booleans()):
        n = draw(st.integers(2, 8))
        edges = draw(
            st.lists(
                st.tuples(
                    st.integers(0, n - 1), st.integers(0, n - 1),
                    probability,
                ),
                max_size=3 * n,
            )
        )
    else:
        n = draw(st.integers(20, 121))
        low = st.one_of(st.just(0.0), st.floats(0.0, 0.02))
        edges = [
            (i, i + 1, p)
            for i, p in enumerate(
                draw(st.lists(low, min_size=n - 1, max_size=n - 1))
            )
        ]
    graph = WirelessGraph()
    graph.add_nodes(range(n + 1))  # node n stays isolated
    for u, v, p in edges:
        if u != v:
            graph.add_edge(u, v, failure_probability=p)
    node = st.integers(0, n - 1)
    shortcuts = [
        (u, v)
        for u, v in draw(st.lists(st.tuples(node, node), max_size=2))
        if u != v
    ]
    if graph.edges and draw(st.booleans()):
        u, v, _length = draw(st.sampled_from(graph.edges))
        shortcuts.append((u, v))
    pairs = draw(st.lists(st.tuples(node, node), max_size=5))
    pairs += [(0, n), (0, GHOST)]
    return DeliverySimulator(graph, shortcuts), pairs


run_args = dict(
    strategy=st.sampled_from(STRATEGIES),
    trials=st.sampled_from([1, 2, 3, 17, 40]),
    multipath_k=st.integers(1, 6),
    block=st.sampled_from([1, 5, 64, sampling.BLOCK_ELEMENTS]),
    seed=st.integers(0, 2**32 - 1),
)


def _batched(block, fn, *args, **kwargs):
    with mock.patch.object(sampling, "BLOCK_ELEMENTS", block):
        return fn(*args, **kwargs)


class TestBatchedMatchesReference:
    @given(scenario=scenarios(), **run_args)
    @settings(max_examples=120, deadline=None)
    def test_simulate(
        self, scenario, strategy, trials, multipath_k, block, seed
    ):
        simulator, pairs = scenario
        batched_rng, reference_rng = random.Random(seed), random.Random(seed)
        report = _batched(
            block, simulator.simulate, pairs, strategy=strategy,
            trials=trials, seed=batched_rng, multipath_k=multipath_k,
        )
        successes, analytic = reference.simulate(
            simulator, pairs, strategy=strategy, trials=trials,
            rng=reference_rng, multipath_k=multipath_k,
        )
        assert [p.successes for p in report.pairs] == successes
        assert [p.analytic for p in report.pairs] == analytic
        assert [p.pair for p in report.pairs] == [tuple(p) for p in pairs]
        assert batched_rng.getstate() == reference_rng.getstate()

    @given(scenario=scenarios(), **run_args)
    @settings(max_examples=120, deadline=None)
    def test_measure_overhead(
        self, scenario, strategy, trials, multipath_k, block, seed
    ):
        simulator, pairs = scenario
        if strategy == "flooding":  # flooding needs known endpoints
            pairs = [pair for pair in pairs if GHOST not in pair]
        batched_rng, reference_rng = random.Random(seed), random.Random(seed)
        report = _batched(
            block, measure_overhead, simulator, pairs, strategy=strategy,
            trials=trials, seed=batched_rng, multipath_k=multipath_k,
        )
        expected = reference.measure_overhead(
            simulator, pairs, strategy=strategy, trials=trials,
            rng=reference_rng, multipath_k=multipath_k,
        )
        assert (report.deliveries, report.transmissions) == expected
        assert type(report.transmissions) is int
        assert batched_rng.getstate() == reference_rng.getstate()

    @given(scenario=scenarios(), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_sample_failed_edges(self, scenario, seed):
        simulator, _pairs = scenario
        batched_rng, reference_rng = random.Random(seed), random.Random(seed)
        for _ in range(3):
            assert sampling.sample_failed_edges(
                simulator.graph, batched_rng
            ) == reference.sample_failed_edges(simulator.graph, reference_rng)
        assert batched_rng.getstate() == reference_rng.getstate()

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_long_path_over_several_blocks(self, strategy):
        """300 hops: many hooking rounds for flooding, few loopless paths
        (multipath_k above their number), and a trial count that is not
        a multiple of the block."""
        graph = path_graph([0.002 * (i % 11) for i in range(300)])
        simulator = DeliverySimulator(graph, [(40, 41), (100, 250)])
        per_block = sampling.BLOCK_ELEMENTS // graph.number_of_nodes()
        trials = 130
        assert trials % per_block
        pairs = [(0, 300), (5, 200), (120, 130), (299, 3)]
        batched_rng, reference_rng = random.Random(9), random.Random(9)
        report = simulator.simulate(
            pairs, strategy=strategy, trials=trials, seed=batched_rng,
            multipath_k=4,
        )
        successes, _analytic = reference.simulate(
            simulator, pairs, strategy=strategy, trials=trials,
            rng=reference_rng, multipath_k=4,
        )
        assert [p.successes for p in report.pairs] == successes
        overhead = measure_overhead(
            simulator, pairs, strategy=strategy, trials=trials,
            seed=batched_rng, multipath_k=4,
        )
        assert (overhead.deliveries, overhead.transmissions) == (
            reference.measure_overhead(
                simulator, pairs, strategy=strategy, trials=trials,
                rng=reference_rng, multipath_k=4,
            )
        )
        assert batched_rng.getstate() == reference_rng.getstate()


class TestErrorPaths:
    def test_flooding_overhead_rejects_unknown_endpoint(self):
        simulator = DeliverySimulator(reliable_path(2))
        with pytest.raises(GraphError, match="unknown node"):
            measure_overhead(
                simulator, [(0, 2), (0, GHOST)], strategy="flooding",
                trials=3, seed=1,
            )

    @pytest.mark.parametrize("strategy", ["best_path", "multipath"])
    def test_multipath_k_validated_for_routed_strategies(self, strategy):
        simulator = DeliverySimulator(reliable_path(2))
        with pytest.raises(ValidationError, match="multipath_k"):
            simulator.simulate([(0, 2)], strategy=strategy, multipath_k=0)
        report = simulator.simulate(
            [(0, 2)], strategy="flooding", trials=2, multipath_k=0
        )
        assert report.pairs[0].successes == 2


def test_simulation_loads_neither_scipy_nor_numpy_random():
    code = (
        "import sys\n"
        "from repro.graph.graph import WirelessGraph\n"
        "from repro.sim import DeliverySimulator, compare_overheads\n"
        "g = WirelessGraph.from_edges([(0, 1, 0.1), (1, 2, 0.2)])\n"
        "DeliverySimulator(g).simulate([(0, 2)], trials=50, seed=1)\n"
        "compare_overheads(g, [(0, 2)], trials=20, seed=1)\n"
        "print(sorted(m for m in ('scipy', 'numpy.random')"
        " if m in sys.modules))\n"
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        check=True, env=env,
    )
    assert out.stdout.strip() == "[]"
