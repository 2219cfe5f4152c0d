"""Edge-failure sampling for Monte Carlo delivery trials.

One trial of the wireless network: every link independently fails with its
failure probability (the model of paper Eq. 1); shortcut edges never fail.

Trials are drawn a block at a time. A block of ``t`` trials over ``E``
edges is a ``(t, E)`` boolean failure matrix, compared against ``t · E``
uniforms taken from the caller's ``random.Random`` in a single
``getrandbits`` call. Those uniforms are exactly the doubles ``t · E``
calls of ``rng.random()`` return, in the same order, and the generator
ends in the same state — so a block run samples the same trials as a
per-edge loop, only without a Python call per edge.
"""

from __future__ import annotations

import random
from typing import Iterator, NamedTuple, Set, Tuple

import numpy as np

from repro.failure.models import length_to_failure
from repro.graph.graph import Node, WirelessGraph
from repro.util.rng import ensure_rng

Edge = Tuple[Node, Node]

#: Upper bound on ``t · max(E, n, width)`` per block (``t`` trials, ``E``
#: edges, ``n`` nodes, ``width`` the caller's per-trial evaluation
#: columns). A block's uniforms, failure mask, route slots and flood
#: labels stay at a few hundred kilobytes, so peak memory is flat however
#: many trials a run asks for.
BLOCK_ELEMENTS = 1 << 13


class EdgeTable(NamedTuple):
    """A graph's edges as arrays, in :attr:`WirelessGraph.edges` order.

    Attributes:
        num_nodes: node count of the graph.
        ends: ``(E, 2)`` dense endpoint indices, ``ends[e, 0] < ends[e, 1]``.
        probabilities: ``(E,)`` failure probability of each edge.
    """

    num_nodes: int
    ends: np.ndarray
    probabilities: np.ndarray


def edge_table(graph: WirelessGraph) -> EdgeTable:
    """Build *graph*'s edge table; each probability is the float
    :meth:`WirelessGraph.failure_probability` returns for that edge."""
    ends = []
    probabilities = []
    for iu in range(graph.number_of_nodes()):
        for iv, length in graph.neighbors_by_index(iu).items():
            if iu < iv:
                ends.append((iu, iv))
                probabilities.append(length_to_failure(length))
    return EdgeTable(
        graph.number_of_nodes(),
        np.array(ends, dtype=np.intp).reshape(-1, 2),
        np.array(probabilities, dtype=np.float64),
    )


def block_uniforms(rng: random.Random, count: int) -> np.ndarray:
    """The next *count* values of ``rng.random()``, drawn in one call.

    ``getrandbits`` fills its result 32-bit word by word, least significant
    first, so the little-endian words are the generator's outputs in draw
    order; each pair ``(a, b)`` becomes ``((a >> 5)·2²⁶ + (b >> 6)) / 2⁵³``,
    which is how ``random()`` builds a double from two words.
    """
    words = np.frombuffer(
        rng.getrandbits(64 * count).to_bytes(8 * count, "little"),
        dtype="<u4",
    )
    high = words[0::2] >> 5
    low = words[1::2] >> 6
    return (high * 67108864.0 + low) * (1.0 / 9007199254740992.0)


def failure_blocks(
    table: EdgeTable, rng: random.Random, trials: int, width: int = 0
) -> Iterator[np.ndarray]:
    """Sample *trials* trials in blocks; yield one failure mask per block.

    Each mask is ``(t, E + 1)`` booleans, one row per trial in draw order
    and one column per edge in table order. The last column is a
    placeholder edge that never fails and draws nothing: routes with no
    hop point at it, so they can be laid out like any other route. Every
    edge draws one uniform per trial, shortcut edges (probability 0)
    included. *width* is the number of columns per trial the caller's
    evaluation allocates (route slots, pairs), which the block bound
    covers as well; it changes block sizes, never the samples.
    """
    num_edges = len(table.probabilities)
    widest = max(num_edges, table.num_nodes, width, 1)
    per_block = max(1, BLOCK_ELEMENTS // widest)
    for start in range(0, trials, per_block):
        t = min(per_block, trials - start)
        uniforms = block_uniforms(rng, t * num_edges).reshape(t, num_edges)
        failed = np.zeros((t, num_edges + 1), dtype=bool)
        np.less(uniforms, table.probabilities, out=failed[:, :num_edges])
        yield failed


def sample_failed_edges(graph: WirelessGraph, rng) -> Set[Edge]:
    """One random trial: the set of links that failed this round.

    Edges are returned as ``(u, v)`` in the graph's canonical (index-sorted)
    orientation, matching :attr:`WirelessGraph.edges`. This is a one-trial
    block of :func:`failure_blocks`: it takes one ``rng.random()`` worth
    of draws per edge.
    """
    rng = ensure_rng(rng)
    table = edge_table(graph)
    (failed,) = failure_blocks(table, rng, 1)
    return {
        (graph.index_node(iu), graph.index_node(iv))
        for iu, iv in table.ends[failed[0, :-1]].tolist()
    }


def surviving_graph(
    graph: WirelessGraph, failed: Set[Edge]
) -> WirelessGraph:
    """Copy of *graph* without the failed edges (nodes all kept)."""
    survivor = WirelessGraph()
    survivor.add_nodes(graph.nodes)
    for u, v, length in graph.edges:
        if (u, v) not in failed and (v, u) not in failed:
            survivor.add_edge(u, v, length=length)
    return survivor
