"""Tests for repro.sim.sampling."""

import random

import numpy as np
import pytest

from repro.sim.sampling import (
    BLOCK_ELEMENTS,
    block_uniforms,
    edge_table,
    failure_blocks,
    sample_failed_edges,
    surviving_graph,
)
from repro.graph.graph import WirelessGraph
from tests.conftest import path_graph


def reliable_and_fragile():
    g = WirelessGraph()
    g.add_edge(0, 1, failure_probability=0.0)   # never fails
    g.add_edge(1, 2, failure_probability=0.999)  # almost always fails
    return g


class TestSampleFailedEdges:
    def test_zero_probability_never_fails(self):
        g = reliable_and_fragile()
        rng = random.Random(1)
        for _ in range(50):
            assert (0, 1) not in sample_failed_edges(g, rng)

    def test_high_probability_fails_often(self):
        g = reliable_and_fragile()
        rng = random.Random(1)
        failures = sum(
            (1, 2) in sample_failed_edges(g, rng) for _ in range(200)
        )
        assert failures > 150

    def test_frequency_matches_probability(self):
        g = WirelessGraph()
        g.add_edge(0, 1, failure_probability=0.3)
        rng = random.Random(7)
        trials = 3000
        failures = sum(
            (0, 1) in sample_failed_edges(g, rng) for _ in range(trials)
        )
        assert failures / trials == pytest.approx(0.3, abs=0.03)

    def test_deterministic_for_seed(self):
        g = path_graph([0.5, 0.5, 0.5])
        a = [sample_failed_edges(g, random.Random(3)) for _ in range(1)]
        b = [sample_failed_edges(g, random.Random(3)) for _ in range(1)]
        assert a == b


class TestSurvivingGraph:
    def test_failed_edges_removed(self):
        g = path_graph([1.0, 1.0])
        survivor = surviving_graph(g, {(0, 1)})
        assert not survivor.has_edge(0, 1)
        assert survivor.has_edge(1, 2)
        assert survivor.number_of_nodes() == 3

    def test_reverse_orientation_also_removed(self):
        g = path_graph([1.0])
        survivor = surviving_graph(g, {(1, 0)})
        assert not survivor.has_edge(0, 1)

    def test_lengths_preserved(self):
        g = path_graph([1.0, 2.0])
        survivor = surviving_graph(g, set())
        assert survivor.length(1, 2) == 2.0


class TestBlockUniforms:
    @pytest.mark.parametrize("count", [0, 1, 2, 7, BLOCK_ELEMENTS + 3])
    def test_equal_to_random_calls_and_same_final_state(self, count):
        batched, looped = random.Random(11), random.Random(11)
        uniforms = block_uniforms(batched, count)
        assert uniforms.dtype == np.float64
        assert uniforms.tolist() == [looped.random() for _ in range(count)]
        assert batched.getstate() == looped.getstate()
        assert batched.random() == looped.random()


class TestFailureBlocks:
    def test_blocks_bound_their_size_and_cover_every_trial(self):
        g = path_graph([0.5] * 40)  # 41 nodes, 40 edges
        blocks = list(failure_blocks(edge_table(g), random.Random(2), 1000))
        per_block = BLOCK_ELEMENTS // 41
        assert [len(b) for b in blocks[:-1]] == [per_block] * (len(blocks) - 1)
        assert sum(len(b) for b in blocks) == 1000
        for block in blocks:
            assert block.shape[1] == 41  # 40 edges + the placeholder
            assert not block[:, -1].any()
        # A wider evaluation shrinks the blocks but not the samples.
        wide = list(
            failure_blocks(edge_table(g), random.Random(2), 1000, width=400)
        )
        assert len(wide[0]) == BLOCK_ELEMENTS // 400
        assert np.array_equal(np.concatenate(blocks), np.concatenate(wide))

    def test_draw_equal_to_the_probability_does_not_fail(self):
        """An edge fails when ``random() < p``, strictly."""
        seed = 0
        draw = random.Random(seed).random()
        g = WirelessGraph()
        g.add_edge(0, 1, failure_probability=draw)
        assert g.failure_probability(0, 1) == draw  # the tie is exact
        (block,) = failure_blocks(edge_table(g), random.Random(seed), 1)
        assert not block[0, 0]

    def test_edgeless_graph_draws_nothing(self):
        g = WirelessGraph()
        g.add_nodes([0, 1])
        rng = random.Random(4)
        state = rng.getstate()
        (block,) = failure_blocks(edge_table(g), rng, 5)
        assert block.shape == (5, 1) and not block.any()
        assert rng.getstate() == state
