"""Undirected wireless-network graph with per-edge failure probabilities.

The paper models a wireless network as an undirected graph where edge
``e_ij`` fails independently with probability ``p_ij``. Defining the edge
*length* ``l_ij = -ln(1 - p_ij)`` makes "most reliable path" equivalent to
"shortest path" (Section III of the paper). :class:`WirelessGraph` stores both
quantities consistently: edges may be added by failure probability (length is
derived) or directly by length (probability is derived).

Nodes may be arbitrary hashables; internally each node gets a dense integer
index so numeric kernels (APSP matrices, numpy evaluators) can use arrays.
"""

from __future__ import annotations

import hashlib
from typing import (
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.exceptions import GraphError
from repro.failure.models import failure_to_length, length_to_failure
from repro.util.validation import check_fraction, check_nonnegative

Node = Hashable
Edge = Tuple[Node, Node]


class WirelessGraph:
    """Undirected graph whose edges carry a length and failure probability.

    The two edge attributes are kept in lockstep through the transform
    ``length = -ln(1 - failure_probability)``; exactly one of the two must be
    supplied when adding an edge.
    """

    def __init__(self) -> None:
        self._index_of: Dict[Node, int] = {}
        self._node_of: List[Node] = []
        self._adjacency: List[Dict[int, float]] = []  # index -> {index: length}

    # ------------------------------------------------------------------ nodes

    def add_node(self, node: Node) -> int:
        """Add *node* if absent; return its dense integer index."""
        idx = self._index_of.get(node)
        if idx is None:
            idx = len(self._node_of)
            self._index_of[node] = idx
            self._node_of.append(node)
            self._adjacency.append({})
        return idx

    def add_nodes(self, nodes: Iterable[Node]) -> None:
        """Add every node in *nodes* (existing nodes are ignored)."""
        for node in nodes:
            self.add_node(node)

    def has_node(self, node: Node) -> bool:
        return node in self._index_of

    def node_index(self, node: Node) -> int:
        """Dense index of *node*; raises :class:`GraphError` if unknown."""
        try:
            return self._index_of[node]
        except KeyError:
            raise GraphError(f"unknown node {node!r}") from None

    def index_node(self, index: int) -> Node:
        """Node for dense *index* (inverse of :meth:`node_index`)."""
        try:
            return self._node_of[index]
        except IndexError:
            raise GraphError(f"no node with index {index}") from None

    @property
    def nodes(self) -> List[Node]:
        """All nodes, in insertion (= index) order."""
        return list(self._node_of)

    def number_of_nodes(self) -> int:
        return len(self._node_of)

    def __len__(self) -> int:
        return len(self._node_of)

    def __contains__(self, node: Node) -> bool:
        return node in self._index_of

    # ------------------------------------------------------------------ edges

    def add_edge(
        self,
        u: Node,
        v: Node,
        *,
        failure_probability: Optional[float] = None,
        length: Optional[float] = None,
    ) -> None:
        """Add an undirected edge, given either its failure probability in
        ``[0, 1)`` or its length ``>= 0`` (but not both).

        Re-adding an existing edge overwrites its attributes. Self-loops are
        rejected: they can never shorten a path.
        """
        if u == v:
            raise GraphError(f"self-loop on {u!r} is not allowed")
        if (failure_probability is None) == (length is None):
            raise GraphError(
                "exactly one of failure_probability / length must be given"
            )
        if length is None:
            p = check_fraction(failure_probability, "failure_probability")
            length = failure_to_length(p)
        else:
            length = check_nonnegative(length, "length")
        iu, iv = self.add_node(u), self.add_node(v)
        self._adjacency[iu][iv] = length
        self._adjacency[iv][iu] = length

    def remove_edge(self, u: Node, v: Node) -> None:
        """Remove the edge between *u* and *v*; error if it does not exist."""
        iu, iv = self.node_index(u), self.node_index(v)
        if iv not in self._adjacency[iu]:
            raise GraphError(f"no edge between {u!r} and {v!r}")
        del self._adjacency[iu][iv]
        del self._adjacency[iv][iu]

    def has_edge(self, u: Node, v: Node) -> bool:
        if u not in self._index_of or v not in self._index_of:
            return False
        return self._index_of[v] in self._adjacency[self._index_of[u]]

    def length(self, u: Node, v: Node) -> float:
        """Length of edge (u, v); raises :class:`GraphError` if absent."""
        iu, iv = self.node_index(u), self.node_index(v)
        try:
            return self._adjacency[iu][iv]
        except KeyError:
            raise GraphError(f"no edge between {u!r} and {v!r}") from None

    def failure_probability(self, u: Node, v: Node) -> float:
        """Failure probability of edge (u, v), derived from its length."""
        return length_to_failure(self.length(u, v))

    @property
    def edges(self) -> List[Tuple[Node, Node, float]]:
        """All edges as ``(u, v, length)`` with ``index(u) < index(v)``."""
        out = []
        for iu, nbrs in enumerate(self._adjacency):
            for iv, length in nbrs.items():
                if iu < iv:
                    out.append((self._node_of[iu], self._node_of[iv], length))
        return out

    def number_of_edges(self) -> int:
        return sum(len(nbrs) for nbrs in self._adjacency) // 2

    def neighbors(self, node: Node) -> Iterator[Tuple[Node, float]]:
        """Yield ``(neighbor, edge_length)`` for every neighbor of *node*."""
        for iv, length in self._adjacency[self.node_index(node)].items():
            yield self._node_of[iv], length

    def degree(self, node: Node) -> int:
        return len(self._adjacency[self.node_index(node)])

    # ------------------------------------------------------------ index views

    def neighbors_by_index(self, index: int) -> Dict[int, float]:
        """Adjacency dict (index -> length) for a dense node index.

        The returned dict is the live internal structure; callers must not
        mutate it.
        """
        return self._adjacency[index]

    # ------------------------------------------------------------- conversion

    def copy(self) -> "WirelessGraph":
        """Deep-enough copy: structure is duplicated, node objects shared."""
        clone = WirelessGraph()
        clone._index_of = dict(self._index_of)
        clone._node_of = list(self._node_of)
        clone._adjacency = [dict(nbrs) for nbrs in self._adjacency]
        return clone

    def to_networkx(self):
        """Export as a ``networkx.Graph`` with ``length`` and
        ``failure_probability`` edge attributes (requires networkx)."""
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from(self._node_of)
        for u, v, length in self.edges:
            g.add_edge(
                u,
                v,
                length=length,
                failure_probability=length_to_failure(length),
            )
        return g

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[Tuple[Node, Node, float]],
        *,
        by: str = "length",
        nodes: Iterable[Node] = (),
    ) -> "WirelessGraph":
        """Build a graph from ``(u, v, value)`` triples.

        *by* selects how the third element is interpreted: ``"length"``
        (default) or ``"failure_probability"``. Extra isolated *nodes* may be
        supplied.
        """
        if by not in ("length", "failure_probability"):
            raise GraphError(f"unknown edge attribute {by!r}")
        graph = cls()
        graph.add_nodes(nodes)
        for u, v, value in edges:
            graph.add_edge(u, v, **{by: value})
        return graph

    def __repr__(self) -> str:
        return (
            f"WirelessGraph(n={self.number_of_nodes()}, "
            f"e={self.number_of_edges()})"
        )


def graph_signature(graph: WirelessGraph) -> str:
    """Content digest of a graph's structure (hex SHA-256 prefix).

    Two graphs share a signature iff they have the same node count and the
    same indexed edge set with identical lengths — node *labels* are not
    hashed, so an identically-shaped copy (e.g. a severity-0 perturbation)
    matches its original. Used as the memo key for distance oracles: equal
    signature means equal distance matrix.
    """
    hasher = hashlib.sha256()
    hasher.update(graph.number_of_nodes().to_bytes(8, "big"))
    for iu, nbrs in enumerate(graph._adjacency):
        for iv in sorted(nbrs):
            if iu < iv:
                hasher.update(iu.to_bytes(8, "big"))
                hasher.update(iv.to_bytes(8, "big"))
                hasher.update(repr(nbrs[iv]).encode("ascii"))
    return hasher.hexdigest()[:32]
