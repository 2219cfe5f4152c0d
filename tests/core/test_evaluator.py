"""Tests for repro.core.evaluator (σ) — exactness against brute force and
internal consistency of the vectorized candidate scan."""

import math
import random
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.core.evaluator as evaluator_module
from repro.core.evaluator import SigmaEvaluator
from repro.core.problem import MSCInstance
from repro.core.weighted import WeightedSigmaEvaluator
from repro.exceptions import GraphError
from repro.failure.models import satisfaction_limit
from repro.graph.hub_labels import HubLabelOracle
from repro.graph.paths import dijkstra
from repro.netgen.general import barabasi_albert_network
from repro.netgen.geometric import random_geometric_network
from repro.netgen.pairs import sample_important_pairs
from tests.conftest import path_graph
from tests.core.helpers import (
    all_candidate_edges,
    brute_force_sigma,
    random_instance,
)


class TestValue:
    def test_empty_set_counts_base(self, tiny_instance):
        evaluator = SigmaEvaluator(tiny_instance)
        assert evaluator.value([]) == 0
        assert evaluator.base_sigma == 0

    def test_direct_shortcut_satisfies_pair(self, tiny_instance):
        evaluator = SigmaEvaluator(tiny_instance)
        # (0, 4) shortcut collapses the whole path for pair (0, 4); with
        # d_t = 1.5 pairs (0,3) and (1,4) are one unit hop away from it.
        assert evaluator.value([(0, 4)]) == 3

    def test_monotone_in_edges(self, tiny_instance):
        evaluator = SigmaEvaluator(tiny_instance)
        assert evaluator.value([(0, 3)]) <= evaluator.value(
            [(0, 3), (1, 4)]
        )

    def test_satisfied_flags_align_with_pairs(self, tiny_instance):
        evaluator = SigmaEvaluator(tiny_instance)
        flags = evaluator.satisfied([(0, 4)])
        assert flags == [True, True, True]
        assert evaluator.satisfied([]) == [False, False, False]

    def test_max_value(self, tiny_instance):
        assert SigmaEvaluator(tiny_instance).max_value() == 3.0

    def test_num_pairs_and_n(self, tiny_instance):
        evaluator = SigmaEvaluator(tiny_instance)
        assert evaluator.num_pairs == 3
        assert evaluator.n == 5

    def test_base_satisfied_pairs_counted(self):
        g = path_graph([1.0, 1.0])
        inst = MSCInstance(
            g,
            [(0, 1), (0, 2)],
            k=1,
            d_threshold=1.5,
            require_initially_unsatisfied=False,
        )
        evaluator = SigmaEvaluator(inst)
        assert evaluator.value([]) == 1  # (0,1) already satisfied
        assert evaluator.base_sigma == 1

    def test_triangle_counterexample_values(self, triangle_instance):
        """Paper §V-A: σ(∅)=0, σ({f12})=1, σ({f12,f23})=3."""
        evaluator = SigmaEvaluator(triangle_instance)
        assert evaluator.value([]) == 0
        assert evaluator.value([(0, 1)]) == 1
        assert evaluator.value([(0, 1), (1, 2)]) == 3


class TestAddCandidates:
    def test_matches_pointwise_value(self, tiny_instance):
        evaluator = SigmaEvaluator(tiny_instance)
        for existing in ([], [(0, 4)], [(1, 3)]):
            scores = evaluator.add_candidates(existing)
            for a, b in all_candidate_edges(tiny_instance.n):
                expected = evaluator.value(list(existing) + [(a, b)])
                assert scores[a, b] == expected, (existing, a, b)

    def test_symmetry(self, tiny_instance):
        scores = SigmaEvaluator(tiny_instance).add_candidates([])
        assert np.array_equal(scores, scores.T)

    def test_diagonal_is_current_value(self, tiny_instance):
        evaluator = SigmaEvaluator(tiny_instance)
        scores = evaluator.add_candidates([(0, 4)])
        assert np.all(np.diag(scores) == evaluator.value([(0, 4)]))

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_random_instances_match_pointwise(self, seed):
        instance = random_instance(seed)
        evaluator = SigmaEvaluator(instance)
        rng = random.Random(seed)
        existing = []
        for _ in range(rng.randrange(0, 3)):
            a, b = sorted(rng.sample(range(instance.n), 2))
            existing.append((a, b))
        scores = evaluator.add_candidates(existing)
        # Spot-check a handful of candidates against point evaluation.
        for _ in range(10):
            a, b = sorted(rng.sample(range(instance.n), 2))
            assert scores[a, b] == evaluator.value(existing + [(a, b)])


class TestAgainstBruteForce:
    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_value_matches_networkx(self, seed):
        instance = random_instance(seed)
        evaluator = SigmaEvaluator(instance)
        rng = random.Random(seed ^ 0xBEEF)
        edges = []
        for _ in range(rng.randrange(0, 4)):
            a, b = sorted(rng.sample(range(instance.n), 2))
            edges.append((a, b))
        assert evaluator.value(edges) == brute_force_sigma(instance, edges)

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_monotonicity_property(self, seed):
        """σ is monotone: adding an edge never loses satisfied pairs."""
        instance = random_instance(seed)
        evaluator = SigmaEvaluator(instance)
        rng = random.Random(seed ^ 0xF00D)
        edges = []
        prev = evaluator.value(edges)
        for _ in range(4):
            a, b = sorted(rng.sample(range(instance.n), 2))
            edges.append((a, b))
            cur = evaluator.value(edges)
            assert cur >= prev
            prev = cur


#: (nodes, RG radius, p_t) of the single-scan property test: below, between
#: and above the sizes where σ used to switch scan paths. At n=40 the
#: d_t-ball covers the whole graph (the full-row query); the larger graphs
#: keep it partial (the column query).
SCAN_CASES = [(40, 0.3, 0.2), (120, 0.18, 0.03), (250, 0.13, 0.03)]


@pytest.fixture(scope="module", params=SCAN_CASES, ids=lambda c: f"n{c[0]}")
def scan_case(request):
    """A RG instance on every oracle tier, a shortcut chain F_0 ⊂ … ⊂ F_3,
    and the brute-force per-pair flags of ``F_i ∪ {e}`` for every cell.

    F_1's shortcut joins a pair endpoint to a node outside the pair
    endpoints' d_t-ball whenever the ball is partial, so a scan with F_1
    must grow the universe its F_0 scan cached. The next two shortcuts
    are the brute-force best candidates, so σ(F) becomes positive.
    """
    n, radius, p_t = request.param
    network = random_geometric_network(
        n, radius=radius, max_link_failure=0.08, seed=n
    )
    pairs = sample_important_pairs(network.graph, 5, p_t, seed=(n, "scan"))
    instances = {
        tier: MSCInstance(
            network.graph, pairs, k=3, p_threshold=p_t, oracle=tier
        )
        for tier in ("dense", "sparse", "hub")
    }
    reference = SigmaEvaluator(instances["dense"])
    size = reference.n
    ball = reference.candidate_universe([])
    outside = np.setdiff1d(np.arange(size), ball)
    u = int(reference._sources[0])
    far = int(outside[0]) if outside.size else (u + 1) % size
    chain = [tuple(sorted((u, far)))]
    rows, cols = np.triu_indices(size, 1)
    flags = []
    for i in range(4):
        flags.append(
            np.array(
                [
                    reference.satisfied(chain[:i] + [(int(a), int(b))])
                    for a, b in zip(rows, cols)
                ]
            )
        )
        if 1 <= i < 3:
            best = int(np.argmax(flags[i].sum(axis=1)))
            chain.append((int(rows[best]), int(cols[best])))
    assert flags[3].sum(axis=1).min() > 0  # σ(F_3) > 0
    return instances, chain, flags, far, outside.size > 0


class TestSingleScan:
    """The d_t-ball scan is σ's only scan: it must agree with point
    evaluation on every cell, whatever the size, tier and placed set."""

    @pytest.mark.parametrize("tier", ["dense", "sparse", "hub"])
    def test_matches_point_evaluation(self, scan_case, tier):
        instances, chain, flags, far, partial = scan_case
        instance = instances[tier]
        evaluator = SigmaEvaluator(instance)
        weights = np.random.default_rng(7).uniform(0.5, 2.0, instance.m)
        weights[0] = 0.0  # zero-weight pairs are skipped by the scan
        weighted = WeightedSigmaEvaluator(instance, weights)
        rows, cols = np.triu_indices(instance.n, 1)
        for i in range(4):
            placed = chain[:i]
            expected = flags[i]

            scores = evaluator.add_candidates(placed)
            assert np.array_equal(scores, scores.T)
            assert np.all(np.diag(scores) == evaluator.value(placed))
            assert np.array_equal(scores[rows, cols], expected.sum(axis=1))

            block, universe = evaluator.add_candidates_restricted(placed)
            assert np.array_equal(block, scores[np.ix_(universe, universe)])
            if i == 0:
                assert (universe.size < instance.n) == partial
            elif partial:
                # The stale-cache case: F reaches outside the ball the
                # F_0 scan cached, and the universe must follow it.
                assert far in universe

            weighted_scores = weighted.add_candidates(placed)
            assert weighted_scores[rows, cols] == pytest.approx(
                expected @ weights, abs=1e-9
            )


@st.composite
def kernel_cases(draw):
    """A small RG, BA or path graph with zero-length edges and an isolated
    node; pairs that include one exactly at d_t and a disconnected one;
    and shortcut sets that chain, repeat an edge, cover an existing link,
    start at a pair endpoint or reach outside the pairs' d_t-ball."""
    kind = draw(st.sampled_from(["rg", "ba", "path"]))
    seed = draw(st.integers(0, 10_000))
    rng = random.Random(seed)
    if kind == "rg":
        graph = random_geometric_network(
            draw(st.integers(8, 28)), radius=0.35,
            max_link_failure=0.2, seed=seed,
        ).graph
    elif kind == "ba":
        graph = barabasi_albert_network(
            draw(st.integers(5, 24)), 2,
            failure_range=(0.01, 0.2), seed=seed,
        )
    else:
        graph = path_graph(
            [rng.choice([0.0, 0.05, 0.1, 0.25])
             for _ in range(draw(st.integers(3, 20)))]
        )
    links = graph.edges
    for u, v, _ in rng.sample(links, min(len(links), 2)):
        graph.add_edge(u, v, length=0.0)
    nodes = graph.nodes
    isolated = max(nodes) + 1
    graph.add_node(isolated)

    pairs = [tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(1, 6))]
    at_threshold = pairs[0]
    d_t = dijkstra(graph, at_threshold[0])[at_threshold[1]]
    pairs.append((rng.choice(nodes), isolated))

    size = graph.number_of_nodes()
    index = graph.node_index
    pair_ends = [index(x) for pair in pairs for x in pair]
    placements = []
    for _ in range(draw(st.integers(1, 6))):
        edges = []
        for _ in range(rng.randint(0, 4)):
            move = rng.choice(["random", "chain", "repeat", "link", "pair"])
            if move == "chain" and edges:
                a = rng.choice(edges)[rng.randrange(2)]
                b = rng.choice([i for i in range(size) if i != a])
            elif move == "repeat" and edges:
                a, b = rng.choice(edges)
            elif move == "link":
                u, v, _ = rng.choice(links)
                a, b = index(u), index(v)
            elif move == "pair":
                a = rng.choice(pair_ends)
                b = rng.choice([i for i in range(size) if i != a])
            else:
                a, b = rng.sample(range(size), 2)
            edges.append((min(a, b), max(a, b)))
        placements.append(edges)
    return graph, pairs, d_t, placements


def _dijkstra_flags(graph, pairs, d_t, edges):
    """Per-pair flags from plain Dijkstra on G' = (V, E ∪ F)."""
    augmented = graph.copy()
    for a, b in edges:
        augmented.add_edge(
            graph.index_node(a), graph.index_node(b), length=0.0
        )
    limit = satisfaction_limit(d_t)
    return [
        dijkstra(augmented, u).get(w, math.inf) <= limit for u, w in pairs
    ]


def _kernel_oracles(graph):
    """Oracle arguments for every tier, the hub tier both full and cut
    off at the instance's threshold."""
    return {
        "dense": "dense",
        "sparse": "sparse",
        "hub-full": HubLabelOracle(graph, cutoff=math.inf),
        "hub-cutoff": "hub",
    }


class TestPointKernel:
    """The terminal-closure kernel against Dijkstra on the augmented graph,
    on every oracle tier, and ``value_many`` against ``value``."""

    @given(case=kernel_cases())
    @settings(max_examples=60, deadline=None)
    def test_matches_dijkstra_on_every_tier(self, case):
        graph, pairs, d_t, placements = case
        expected = [
            _dijkstra_flags(graph, pairs, d_t, edges) for edges in placements
        ]
        for tier, oracle in _kernel_oracles(graph).items():
            instance = MSCInstance(
                graph, pairs, k=4, d_threshold=d_t, oracle=oracle,
                require_initially_unsatisfied=False,
            )
            evaluator = SigmaEvaluator(instance)
            for edges, flags in zip(placements, expected):
                assert evaluator.satisfied(edges) == flags, (tier, edges)
            values = [sum(flags) for flags in expected]
            assert evaluator.value_many(placements) == values, tier

    @given(case=kernel_cases(), extra=st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_value_many_equals_value(self, case, extra):
        """Mixed sizes, empty placements, and more placements than one
        block holds (both at the module bound and with one placement per
        block)."""
        graph, pairs, d_t, placements = case
        instance = MSCInstance(
            graph, pairs, k=4, d_threshold=d_t,
            require_initially_unsatisfied=False,
        )
        evaluator = SigmaEvaluator(instance)
        rng = random.Random(extra)
        batch = placements + [[]]
        while len(batch) < 300:
            size = rng.randint(0, 5)
            batch.append(
                [tuple(sorted(rng.sample(range(instance.n), 2)))
                 for _ in range(size)]
            )
        rng.shuffle(batch)
        one_by_one = [evaluator.value(edges) for edges in batch]
        assert evaluator.value_many(batch) == one_by_one
        with mock.patch.object(evaluator_module, "POINT_BLOCK_ELEMENTS", 1):
            assert evaluator.value_many(batch) == one_by_one
        assert evaluator.value_many([]) == []

    def test_invalid_shortcuts_raise(self, tiny_instance):
        evaluator = SigmaEvaluator(tiny_instance)
        n = evaluator.n
        with pytest.raises(GraphError, match="self-loop"):
            evaluator.value([(1, 1)])
        with pytest.raises(GraphError, match="self-loop"):
            evaluator.value_many([[(0, 1)], [(0, 2), (2, 2)]])
        with pytest.raises(GraphError, match="out of range"):
            evaluator.satisfied([(0, n)])
        with pytest.raises(GraphError, match="out of range"):
            evaluator.value_many([[], [(-1, 2)]])


class TestPairScanAccumulator:
    @given(
        n=st.integers(1, 30),
        n_pairs=st.integers(0, 6),
        limit=st.floats(0.1, 4.0),
        seed=st.integers(0, 10_000),
        chunk=st.integers(1, 64),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_dense_reference(
        self, n, n_pairs, limit, seed, chunk
    ):
        from repro.core.evaluator import PairScanAccumulator

        rng = np.random.default_rng(seed)
        scan = PairScanAccumulator(n, chunk_elements=chunk)
        dense = np.zeros((n, n), dtype=np.int32)
        for _ in range(n_pairs):
            du = rng.uniform(0.0, 5.0, size=n)
            dw = rng.uniform(0.0, 5.0, size=n)
            scan.add_pair(du, dw, limit)
            mask = (du[:, None] + dw[None, :]) <= limit
            dense += mask | mask.T
        assert np.array_equal(scan.result(), dense)

    @given(
        n=st.integers(1, 20),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=30, deadline=None)
    def test_weighted_matches_dense_reference(self, n, seed):
        from repro.core.evaluator import PairScanAccumulator

        rng = np.random.default_rng(seed)
        limit = 2.0
        scan = PairScanAccumulator(n, weighted=True, chunk_elements=17)
        dense = np.zeros((n, n), dtype=float)
        for weight in (0.5, 2.0, 0.25):
            du = rng.uniform(0.0, 5.0, size=n)
            dw = rng.uniform(0.0, 5.0, size=n)
            scan.add_pair(du, dw, limit, weight=weight)
            mask = (du[:, None] + dw[None, :]) <= limit
            dense += (mask | mask.T) * weight
        assert scan.result() == pytest.approx(dense, abs=1e-12)


class TestEngineCache:
    def test_repeat_lookup_hits(self, tiny_instance):
        from repro.core.evaluator import EngineCache

        cache = EngineCache(tiny_instance.oracle, maxsize=8)
        cache.get([(0, 2)])
        cache.get([(0, 2)])
        cache.get([(2, 0)])  # normalized to the same key
        assert cache.builds == 1
        assert cache.hits == 2

    def test_superset_extends_cached_parent(self, tiny_instance):
        from repro.core.evaluator import EngineCache

        cache = EngineCache(tiny_instance.oracle, maxsize=8)
        cache.get([(0, 2)])
        cache.get([(0, 2), (1, 3)])
        assert cache.builds == 1
        assert cache.extensions == 1

    def test_scratch_mode_never_stores(self, tiny_instance):
        from repro.core.evaluator import EngineCache

        cache = EngineCache(tiny_instance.oracle, maxsize=0)
        cache.get([(0, 2)])
        cache.get([(0, 2)])
        assert cache.builds == 2
        assert cache.hits == 0 and cache.extensions == 0

    def test_lru_eviction_bounds_size(self, tiny_instance):
        from repro.core.evaluator import EngineCache

        cache = EngineCache(tiny_instance.oracle, maxsize=2)
        cache.get([(0, 2)])
        cache.get([(1, 3)])
        cache.get([(2, 4)])
        assert len(cache._store) == 2

    def test_cached_values_are_correct(self, tiny_instance):
        """Engine reuse must not change the candidate scan (the one σ
        path that still reads engines): compare against a cache-free
        evaluator on a growing set (the greedy pattern)."""
        with_cache = SigmaEvaluator(tiny_instance, engine_cache_size=128)
        without = SigmaEvaluator(tiny_instance, engine_cache_size=0)
        edges = []
        for edge in [(0, 4), (1, 3), (0, 3)]:
            edges.append(edge)
            assert np.array_equal(
                with_cache.add_candidates(edges),
                without.add_candidates(edges),
            )
        assert with_cache.engine_cache.extensions >= 1
