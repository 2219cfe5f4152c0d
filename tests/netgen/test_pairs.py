"""Tests for repro.netgen.pairs (important-pair selection, §VII-A3)."""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import InstanceError
from repro.failure.models import (
    failure_to_length,
    length_to_failure,
    satisfaction_limit,
)
from repro.graph.distances import DistanceOracle
from repro.graph import paths
from repro.graph.graph import WirelessGraph
from repro.graph.paths import source_rows_matrix
from repro.netgen.general import barabasi_albert_network
from repro.netgen.geometric import random_geometric_network
from repro.netgen.pairs import (
    eligible_pairs,
    sample_important_pairs,
    select_common_node_pairs,
    select_friend_pairs,
    select_important_pairs,
)
from repro.util.rng import ensure_rng
from tests.conftest import path_graph, star_graph


def long_path():
    """Path with edges of failure probability 0.1 each (9 edges)."""
    g = WirelessGraph()
    for i in range(9):
        g.add_edge(i, i + 1, failure_probability=0.1)
    return g


class TestEligiblePairs:
    def test_only_violating_pairs(self):
        g = long_path()
        pairs = eligible_pairs(g, p_threshold=0.25)
        # failure of a j-hop path is 1 - 0.9^j: > 0.25 iff j >= 3
        for u, w in pairs:
            assert abs(u - w) >= 3
        assert all(abs(u - w) <= 2 for u, w in set(
            ((a, b) for a in range(10) for b in range(a + 1, 10))
        ) - set(pairs))

    def test_threshold_zero_includes_everything_with_failure(self):
        g = long_path()
        pairs = eligible_pairs(g, p_threshold=0.0)
        assert len(pairs) == 45  # all pairs have failure > 0

    def test_max_failure_cap(self):
        g = long_path()
        capped = eligible_pairs(g, p_threshold=0.25, max_failure=0.5)
        # 1 - 0.9^j <= 0.5 iff j <= 6
        for u, w in capped:
            assert 3 <= abs(u - w) <= 6

    def test_disconnected_pairs_eligible_without_cap(self):
        g = WirelessGraph()
        g.add_edge(0, 1, failure_probability=0.01)
        g.add_nodes([2])
        pairs = eligible_pairs(g, p_threshold=0.5)
        assert (0, 2) in pairs and (1, 2) in pairs

    def test_disconnected_pairs_excluded_by_cap(self):
        g = WirelessGraph()
        g.add_edge(0, 1, failure_probability=0.01)
        g.add_nodes([2])
        pairs = eligible_pairs(g, p_threshold=0.5, max_failure=0.99)
        assert (0, 2) not in pairs

    def test_oracle_reuse(self):
        g = long_path()
        oracle = DistanceOracle(g)
        assert eligible_pairs(g, 0.25, oracle=oracle) == eligible_pairs(
            g, 0.25
        )


def loop_eligible_pairs(graph, p_threshold, max_failure=None):
    """Reference: the per-pair double loop over the upper triangle."""
    limit = satisfaction_limit(failure_to_length(p_threshold))
    d_cap = None if max_failure is None else failure_to_length(max_failure)
    matrix = DistanceOracle(graph).matrix
    n = graph.number_of_nodes()
    out = []
    for iu in range(n):
        for iw in range(iu + 1, n):
            d = matrix[iu, iw]
            if d <= limit:
                continue
            if d_cap is not None and d > d_cap:
                continue
            out.append((graph.index_node(iu), graph.index_node(iw)))
    return out


def labelled_random_graph(seed):
    """Random graph with string node names inserted in shuffled order and
    some isolated nodes, so index order differs from name order and some
    pairs are disconnected (infinite distance)."""
    rng = random.Random(seed)
    n = rng.randrange(2, 16)
    names = [f"v{i}" for i in range(n)]
    rng.shuffle(names)
    g = WirelessGraph()
    g.add_nodes(names)
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.25:
                g.add_edge(
                    names[a], names[b],
                    failure_probability=rng.uniform(0.0, 0.6),
                )
    return g


class TestEligiblePairsAgainstLoop:
    @given(
        seed=st.integers(0, 10_000),
        p_threshold=st.sampled_from([0.0, 0.05, 0.2, 0.5, 0.9]),
        max_failure=st.sampled_from([None, 0.3, 0.7, 0.99]),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_double_loop(self, seed, p_threshold, max_failure):
        g = labelled_random_graph(seed)
        assert eligible_pairs(
            g, p_threshold, max_failure=max_failure
        ) == loop_eligible_pairs(g, p_threshold, max_failure)

    def test_boundaries_and_disconnected_pairs(self):
        """A pair exactly at the satisfaction limit of d_t is excluded and
        one just above it kept; a pair exactly at the cap is kept and one
        just above it dropped; disconnected pairs are kept only without a
        cap."""
        p_t, cap = 0.2, 0.6
        d_t, d_cap = failure_to_length(p_t), failure_to_length(cap)
        limit = satisfaction_limit(d_t)
        g = WirelessGraph()
        g.add_edge("at_limit", "a", length=limit)
        g.add_edge(
            "above_limit", "b", length=math.nextafter(limit, math.inf)
        )
        g.add_edge("at_cap", "c", length=d_cap)
        g.add_edge("above_cap", "d", length=math.nextafter(d_cap, math.inf))
        g.add_node("isolated")
        for max_failure in (None, cap):
            pairs = eligible_pairs(g, p_t, max_failure=max_failure)
            assert pairs == loop_eligible_pairs(g, p_t, max_failure)
            assert ("at_limit", "a") not in pairs
            assert ("above_limit", "b") in pairs
            assert ("at_cap", "c") in pairs
            assert (("above_cap", "d") in pairs) == (max_failure is None)
            assert (("a", "isolated") in pairs) == (max_failure is None)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_nodes(self, n):
        g = WirelessGraph()
        g.add_nodes(range(n))
        assert eligible_pairs(g, 0.1) == []


class TestSelectImportantPairs:
    def test_selection_size_and_validity(self):
        g = long_path()
        pairs = select_important_pairs(g, m=5, p_threshold=0.25, seed=1)
        assert len(pairs) == 5
        eligible = set(eligible_pairs(g, 0.25))
        assert all(tuple(sorted(p)) in eligible for p in pairs)

    def test_deterministic_for_seed(self):
        g = long_path()
        a = select_important_pairs(g, m=5, p_threshold=0.25, seed=2)
        b = select_important_pairs(g, m=5, p_threshold=0.25, seed=2)
        assert a == b

    def test_insufficient_pairs_raise(self):
        g = long_path()
        with pytest.raises(InstanceError, match="violate"):
            select_important_pairs(g, m=100, p_threshold=0.25, seed=1)

    def test_no_duplicates(self):
        g = long_path()
        pairs = select_important_pairs(g, m=10, p_threshold=0.25, seed=3)
        assert len(set(map(tuple, pairs))) == 10

    def test_invalid_m(self):
        g = long_path()
        with pytest.raises(Exception):
            select_important_pairs(g, m=0, p_threshold=0.25)


class TestSelectFriendPairs:
    def test_only_violating_friendships(self):
        g = long_path()
        friendships = [(0, 1), (0, 5), (2, 9), (3, 4)]
        pairs = select_friend_pairs(
            g, friendships, m=2, p_threshold=0.25, seed=1
        )
        # only (0,5) and (2,9) violate (>= 3 hops at p=0.1/hop)
        assert sorted(map(tuple, map(sorted, pairs))) == [(0, 5), (2, 9)]

    def test_insufficient_friendships_raise(self):
        g = long_path()
        with pytest.raises(InstanceError, match="friendships"):
            select_friend_pairs(
                g, [(0, 1)], m=1, p_threshold=0.25, seed=1
            )

    def test_unknown_and_self_friendships_ignored(self):
        g = long_path()
        friendships = [(0, 0), (0, 99), (1, 8)]
        pairs = select_friend_pairs(
            g, friendships, m=1, p_threshold=0.25, seed=1
        )
        assert pairs == [(1, 8)]

    def test_duplicate_friendships_deduplicated(self):
        g = long_path()
        friendships = [(0, 5), (5, 0), (0, 5)]
        pairs = select_friend_pairs(
            g, friendships, m=1, p_threshold=0.25, seed=1
        )
        assert len(pairs) == 1

    def test_deterministic(self):
        g = long_path()
        friendships = [(0, 5), (1, 7), (2, 9), (0, 9)]
        a = select_friend_pairs(g, friendships, 2, 0.25, seed=3)
        b = select_friend_pairs(g, friendships, 2, 0.25, seed=3)
        assert a == b

    def test_works_with_synthetic_gowalla(self):
        from repro.netgen.gowalla import (
            gowalla_network,
            synthesize_gowalla_austin,
        )

        data = synthesize_gowalla_austin(seed=42)
        graph, _ = gowalla_network(seed=42)
        pairs = select_friend_pairs(
            graph, data.friendships, m=20, p_threshold=0.27, seed=4
        )
        assert len(pairs) == 20


class TestSelectCommonNodePairs:
    def test_all_pairs_share_common(self):
        g = long_path()
        pairs = select_common_node_pairs(
            g, common=0, m=4, p_threshold=0.25, seed=1
        )
        assert len(pairs) == 4
        assert all(p[0] == 0 for p in pairs)

    def test_partners_violate_threshold(self):
        g = long_path()
        pairs = select_common_node_pairs(
            g, common=0, m=4, p_threshold=0.25, seed=1
        )
        oracle = DistanceOracle(g)
        for _, partner in pairs:
            p_fail = length_to_failure(oracle.distance(0, partner))
            assert p_fail > 0.25

    def test_insufficient_partners_raise(self):
        g = star_graph(3, length=0.01)
        with pytest.raises(InstanceError, match="partners"):
            select_common_node_pairs(
                g, common=0, m=2, p_threshold=0.5, seed=1
            )


def loop_sample_important_pairs(
    graph, m, p_threshold, *, seed=None, max_failure=None, oversample=8
):
    """The sampler as a per-node loop over full single-source rows: the
    reference the vectorized, cutoff-bounded sampler must match draw for
    draw (same pairs, same order, same error)."""
    limit = satisfaction_limit(failure_to_length(p_threshold))
    d_cap = None if max_failure is None else failure_to_length(max_failure)
    rng = ensure_rng(seed)
    nodes = graph.nodes
    n = len(nodes)
    out, seen, draws = [], set(), 0
    while len(out) < m and draws < oversample * m:
        draws += 1
        u = nodes[rng.randrange(n)]
        iu = graph.node_index(u)
        distances = source_rows_matrix(graph, [iu])[0]
        partners = []
        for iw in range(n):
            if iw == iu:
                continue
            d = distances[iw]
            if d <= limit:
                continue
            if d_cap is not None and d > d_cap:
                continue
            key = (min(iu, iw), max(iu, iw))
            if key not in seen:
                partners.append((iw, key))
        if not partners:
            continue
        iw, key = partners[rng.randrange(len(partners))]
        seen.add(key)
        out.append((u, graph.index_node(iw)))
    if len(out) < m:
        raise InstanceError(
            f"sampled only {len(out)} violating pairs after {draws} "
            f"source draws (need m={m}); lower p_t or m"
        )
    return out


def sampler_graph(kind, seed):
    """An RG or BA graph with two isolated nodes (disconnected pairs)."""
    if kind == "rg":
        graph = random_geometric_network(
            120, radius=0.16, max_link_failure=0.1, seed=seed
        ).graph
    else:
        graph = barabasi_albert_network(
            80, 2, failure_range=(0.01, 0.2), seed=seed
        )
    graph.add_nodes([10_000, 10_001])
    return graph


class TestSampleImportantPairsAgainstLoop:
    @pytest.fixture(params=["scipy", "python"])
    def backend(self, request, monkeypatch):
        if request.param == "python":
            monkeypatch.setattr(paths, "_scipy_available", lambda: False)
        return request.param

    @pytest.mark.parametrize("kind", ["rg", "ba"])
    @pytest.mark.parametrize("seed", [41, 42, 43])
    @pytest.mark.parametrize(
        "p_threshold,max_failure",
        # A narrow band (BA fills it only partly) and a cap below p_t
        # (nothing qualifies) end in the oversample error.
        [(0.03, None), (0.1, None), (0.1, 0.4), (0.05, 0.06), (0.3, 0.25)],
    )
    def test_matches_loop(self, backend, kind, seed, p_threshold,
                          max_failure):
        graph = sampler_graph(kind, seed)
        kwargs = dict(seed=(seed, "pairs"), max_failure=max_failure)
        try:
            expected = loop_sample_important_pairs(
                graph, 40, p_threshold, **kwargs
            )
        except InstanceError as error:
            with pytest.raises(InstanceError) as raised:
                sample_important_pairs(graph, 40, p_threshold, **kwargs)
            assert str(raised.value) == str(error)
            return
        assert sample_important_pairs(
            graph, 40, p_threshold, **kwargs
        ) == expected

    def test_disconnected_partners_without_cap(self, backend):
        g = WirelessGraph()
        g.add_edge(0, 1, failure_probability=0.01)
        g.add_nodes([2, 3])
        pairs = sample_important_pairs(g, 4, 0.1, seed=5)
        assert pairs == loop_sample_important_pairs(g, 4, 0.1, seed=5)
        assert {frozenset(p) for p in pairs} <= {
            frozenset(p) for p in [(0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]
        }

    def test_oversample_error(self, backend):
        g = star_graph(4, length=0.01)  # every pair meets p_t
        with pytest.raises(InstanceError) as raised:
            sample_important_pairs(g, 3, 0.2, seed=1, oversample=2)
        with pytest.raises(InstanceError) as expected:
            loop_sample_important_pairs(g, 3, 0.2, seed=1, oversample=2)
        assert str(raised.value) == str(expected.value)
        assert "after 6 source draws" in str(raised.value)
