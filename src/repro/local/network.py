"""Networks: graphs with identifiers and port numbers (paper §2).

In the LOCAL model each node has a unique ID from {1..n^c} and knows its
degree, Δ and n; edges at a node are addressed by ports 1..deg(v).
:class:`Network` fixes deterministic IDs over a networkx graph and builds
its one port numbering once, as numpy CSR arrays (:class:`VectorNetwork`):
port ``p`` leads to the ``p``-th neighbour in ascending ID order, and a
self-loop is one port.  Both engines deliver through these arrays.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain

import networkx as nx
import numpy as np

from repro.utils import SimulationError


@dataclass(frozen=True)
class VectorNetwork:
    """A port numbering as numpy CSR arrays plus delivery maps.

    ``nodes`` is the dense node order (the graph's iteration order);
    half-edge ``k = indptr[i] + port - 1`` belongs to (node ``i``,
    ``port``) and ``dest[k]`` is the dense index of the neighbor behind
    that port.  Two derived arrays make whole-array delivery possible:
    ``owner[k]`` is the dense index of the node emitting ``k`` (the CSR
    row expanded), and ``reverse[k]`` is the half-edge under which the
    message arrives at the receiver (the one from ``dest[k]`` back to
    ``owner[k]``) — scattering payloads from ``k`` to ``reverse[k]`` *is*
    delivery.  A self-loop is one half-edge ``k`` with ``reverse[k] == k``.
    """

    nodes: tuple
    indptr: np.ndarray
    dest: np.ndarray
    owner: np.ndarray
    reverse: np.ndarray
    degrees: np.ndarray

    @property
    def n(self) -> int:
        return len(self.nodes)

    @classmethod
    def of(cls, network: "Network") -> "VectorNetwork":
        """The CSR arrays of ``network`` (built with the network)."""
        return network.csr


def _port_numbering(graph: nx.Graph, ids: dict) -> tuple[VectorNetwork, dict]:
    """The CSR of ``graph`` with each row in ascending neighbour ID, and
    the node → row index."""
    nodes = tuple(graph)
    n = len(nodes)
    index = dict(zip(nodes, range(n)))
    rows = [row for _node, row in graph.adjacency()]
    degrees = np.fromiter(map(len, rows), np.int64, n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(degrees, out=indptr[1:])
    dest = np.fromiter(map(index.__getitem__, chain.from_iterable(rows)), np.int64, indptr[-1])
    owner = np.repeat(np.arange(n, dtype=np.int64), degrees)
    # IDs may be any ordered values, so rank them with one Python sort.
    rank = np.empty(n, dtype=np.int64)
    rank[sorted(range(n), key=[ids[node] for node in nodes].__getitem__)] = np.arange(n)
    # Half-edge (i, j) is keyed i*n + rank[j]: one sort orders every row
    # by neighbour ID, and leaves the keys sorted for the reverse lookup
    # of (j, i) (the graph has one edge per pair, so keys are unique).
    keys = owner * n + rank[dest]
    order = np.argsort(keys)
    dest = dest[order]
    reverse = np.searchsorted(keys[order], dest * n + rank[owner])
    return VectorNetwork(nodes, indptr, dest, owner, reverse, degrees), index


@dataclass
class Network:
    """A communication network with IDs and its one port numbering."""

    graph: nx.Graph
    ids: dict = field(default_factory=dict)
    #: The port numbering; the graph's structure must not change afterwards.
    csr: VectorNetwork = field(init=False, repr=False, compare=False)
    _index: dict = field(init=False, repr=False, compare=False)  # node → row

    def __post_init__(self) -> None:
        if not self.ids:
            # Canonical IDs 1..n in sorted node order.
            self.ids = {
                node: index + 1
                for index, node in enumerate(sorted(self.graph.nodes, key=str))
            }
        if self.ids.keys() != set(self.graph):
            raise SimulationError("node IDs must be given for exactly the graph's nodes")
        if len(set(self.ids.values())) != len(self.ids):
            raise SimulationError("node IDs must be unique")
        self.csr, self._index = _port_numbering(self.graph, self.ids)

    @property
    def n(self) -> int:
        return self.csr.n

    @cached_property
    def max_degree(self) -> int:
        return int(self.csr.degrees.max(initial=0))

    def _row(self, node) -> np.ndarray:
        i = self._index[node]
        return self.csr.dest[self.csr.indptr[i] : self.csr.indptr[i + 1]]

    def neighbors(self, node) -> list:
        """Neighbors in port order."""
        nodes = self.csr.nodes
        return [nodes[j] for j in self._row(node).tolist()]

    def port_to(self, node, neighbor) -> int:
        """The port of ``node`` leading to ``neighbor``."""
        (ports,) = np.nonzero(self._row(node) == self._index[neighbor])
        if not ports.size:
            raise KeyError(neighbor)
        return int(ports[0]) + 1

    def via_port(self, node, port: int):
        """The neighbor behind ``port`` at ``node``."""
        row = self._row(node)
        if not 0 < port <= row.shape[0]:
            raise KeyError(port)
        return self.csr.nodes[row[port - 1]]

    def with_random_ids(self, seed: int, id_space_exponent: int = 3) -> "Network":
        """A copy with random distinct IDs from {1..n^c} (adversarial IDs)."""
        rng = random.Random(seed)
        space = self.n**id_space_exponent
        values = rng.sample(range(1, space + 1), self.n)
        nodes = sorted(self.graph.nodes, key=str)
        return Network(graph=self.graph, ids=dict(zip(nodes, values)))

    def renormalized_ids(self) -> dict:
        """IDs recomputed to {1..n} preserving order.

        §3 notes that in Supported LOCAL the ID space is w.l.o.g. {1..n}:
        all nodes know G, so they can renormalize without communication.
        """
        ordered = sorted(self.ids.items(), key=lambda item: item[1])
        return {node: index + 1 for index, (node, _value) in enumerate(ordered)}
