"""Proposal-based bipartite maximal matching — the O(Δ′) upper bound.

Theorem 4.1's lower bound Ω(min{(Δ′−x)/y, log_Δ n}) is matched (for
maximal matching, x = 0, y = 1) by the classic proposal algorithm on
2-colored graphs: in phase i every still-unmatched white node proposes to
its next eligible input neighbor; every unmatched black node accepts one
proposal.  Δ′ phases of two rounds each suffice (a white node has ≤ Δ′
input neighbors to try), and Δ′ is part of the model's initial knowledge,
so every node can run exactly 2Δ′ rounds and halt — round complexity
2Δ′ = O(Δ′), which the experiments measure against the lower bound.
"""

from __future__ import annotations

from collections.abc import Callable

import networkx as nx

from repro.api.errors import SpecError
from repro.api.registry import Algorithm, register_algorithm
from repro.api.types import MessagePassingProgram, ProblemSpec, VectorizedSpec
from repro.graphs.double_cover import mark_bipartition
from repro.local.network import Network
from repro.local.simulator import NodeAlgorithm, RunResult, run_synchronous


class _ProposalNode(NodeAlgorithm):
    """One node of the proposal algorithm.

    Each phase is two engine rounds: whites propose (round A), blacks
    answer (round B).  ``self.round`` counts engine rounds; parity selects
    the role.
    """

    def init(self) -> None:
        self.color = self.ctx.extra["color"]
        self.input_ports = self.ctx.extra["input_ports"]
        self.total_phases = self.ctx.extra["delta_prime"]
        self.round = 0
        self.matched_port: int | None = None
        self.next_index = 0
        self.pending_accept: int | None = None
        if self.total_phases == 0:
            self.halt({"matched": None})

    def send(self) -> dict[int, object]:
        proposing_round = self.round % 2 == 0
        if proposing_round and self.color == "white":
            if self.matched_port is None and self.next_index < len(self.input_ports):
                return {self.input_ports[self.next_index]: "propose"}
        if not proposing_round and self.color == "black":
            if self.pending_accept is not None:
                port, self.pending_accept = self.pending_accept, None
                return {port: "accept"}
        return {}

    def receive(self, messages: dict[int, object]) -> None:
        proposing_round = self.round % 2 == 0
        if proposing_round and self.color == "black":
            proposals = sorted(
                port for port, text in messages.items() if text == "propose"
            )
            if self.matched_port is None and proposals:
                self.matched_port = proposals[0]
                self.pending_accept = proposals[0]
        if not proposing_round and self.color == "white":
            accepted = [port for port, text in messages.items() if text == "accept"]
            if accepted:
                self.matched_port = accepted[0]
            elif self.matched_port is None:
                self.next_index += 1
        self.round += 1
        if self.round >= 2 * self.total_phases:
            self.halt({"matched": self.matched_port})


def input_delta_prime(input_edges: frozenset) -> int:
    """Δ′: the maximum degree of the input graph G′ = ``input_edges``."""
    input_graph_degrees: dict = {}
    for edge in input_edges:
        for endpoint in edge:
            input_graph_degrees[endpoint] = input_graph_degrees.get(endpoint, 0) + 1
    return max(input_graph_degrees.values(), default=0)


def input_subgraph(support: nx.Graph, entries) -> frozenset:
    """The ``input_edges`` option as G′, checked to satisfy G′ ⊆ G.

    Raises :class:`SpecError` naming the first offending entry in ``str``
    order: one without two distinct endpoints, or one that is not an
    edge of the support graph.
    """
    try:
        entries = list(entries)
    except TypeError:
        raise SpecError(
            f"input_edges must be a collection of edges, got {entries!r}"
        ) from None
    edges = set()
    offending = []
    for entry in entries:
        try:
            edge = frozenset(entry)
        except TypeError:
            # Not iterable, or unhashable endpoints: no node of G either way.
            edge = None
        if edge is not None and len(edge) != 2:
            offending.append((entry, "does not have two distinct endpoints"))
        elif edge is None or not support.has_edge(*edge):
            offending.append((entry, "is not an edge of the support graph G"))
        else:
            edges.add(edge)
    if offending:
        entry, problem = min(offending, key=lambda pair: str(pair[0]))
        raise SpecError(
            f"input_edges entry {entry!r} {problem}; Supported LOCAL "
            f"needs G′ ⊆ G"
        )
    return frozenset(edges)


def proposal_extra(
    network: Network, input_edges: frozenset | None, delta_prime: int
) -> Callable:
    """The per-node knowledge of the proposal algorithm: own color, input
    ports (ports leading into G′) and Δ′ (part of the model's initial
    knowledge).  ``input_edges=None`` means G′ = G: every port is an
    input port."""
    support = network.graph

    def extra(node) -> dict:
        if input_edges is None:
            input_ports = list(range(1, len(network.neighbors(node)) + 1))
        else:
            input_ports = [
                port
                for port, neighbor in enumerate(network.neighbors(node), 1)
                if frozenset((node, neighbor)) in input_edges
            ]
        return {
            "color": support.nodes[node]["color"],
            "input_ports": input_ports,
            "delta_prime": delta_prime,
        }

    return extra


def matching_from_outputs(network: Network, outputs: dict) -> set[frozenset]:
    """Decode ``{"matched": port}`` node outputs into a matching edge set
    (white outputs are authoritative; black outputs mirror them)."""
    color_of = dict(network.graph.nodes(data="color"))
    via_port = network.via_port
    matching: set[frozenset] = set()
    for node, output in outputs.items():
        if color_of[node] != "white":
            continue
        port = output.get("matched")
        if port is not None:
            matching.add(frozenset((node, via_port(node, port))))
    return matching


def bipartite_maximal_matching(
    support: nx.Graph, input_edges: frozenset
) -> tuple[set[frozenset], int]:
    """Run the proposal algorithm; return (matching, rounds used).

    ``support`` must carry white/black ``color`` attributes; the matching
    is computed on the input graph G′ = ``input_edges``.
    """
    network = Network(graph=support)
    input_edges = input_subgraph(support, input_edges)
    extra = proposal_extra(network, input_edges, input_delta_prime(input_edges))
    result: RunResult = run_synchronous(network, _ProposalNode, extra=extra)
    return matching_from_outputs(network, result.outputs), result.rounds


class ProposalMatching(Algorithm):
    """``"matching:proposal"`` — the proposal algorithm behind the façade.

    Runs on any 2-colored support graph (uncolored bipartite graphs are
    2-colored in place).  Option ``input_edges`` restricts the matching
    to an input subgraph G′ ⊆ G (anything else is a :class:`SpecError`);
    the default is G′ = G.  A maximal matching is x-maximal and y-bounded
    for every x ≥ 0, y ≥ 1, so the whole Π_Δ(x,y) family is declared
    compatible.
    """

    name = "matching:proposal"
    families = ("matching", "maximal-matching")
    kind = "message"
    description = "O(Δ') proposal matching on 2-colored support graphs"

    def program(
        self, network: Network, spec: ProblemSpec, options: dict
    ) -> MessagePassingProgram:
        support = network.graph
        if any("color" not in attrs for _node, attrs in support.nodes(data=True)):
            mark_bipartition(support)
        if options.get("input_edges") is None:
            # G′ = G: no edge set is built, every port is an input port
            # and Δ′ is the most ports at a node (a self-loop is one port).
            input_edges = None
            delta_prime = network.max_degree
        else:
            input_edges = input_subgraph(support, options["input_edges"])
            delta_prime = input_delta_prime(input_edges)
        return MessagePassingProgram(
            factory=_ProposalNode,
            extra=proposal_extra(network, input_edges, delta_prime),
            vectorized=VectorizedSpec(
                kernel="matching:proposal",
                data={
                    # None ⇒ G′ = G: the kernel skips the per-edge
                    # membership scan.
                    "input_edges": input_edges,
                    "delta_prime": delta_prime,
                },
            ),
        )

    def finalize(
        self, network: Network, spec: ProblemSpec, options: dict, outputs: dict
    ) -> set[frozenset]:
        return matching_from_outputs(network, outputs)


register_algorithm(ProposalMatching())


def greedy_maximal_matching(graph: nx.Graph) -> set[frozenset]:
    """Sequential greedy baseline (for cross-checking the distributed one)."""
    matched: set = set()
    matching: set[frozenset] = set()
    for u, v in sorted(graph.edges, key=str):
        if u not in matched and v not in matched:
            matching.add(frozenset((u, v)))
            matched.update((u, v))
    return matching
