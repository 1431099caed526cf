"""The ``matching:proposal`` program: G′ = G without an edge set, parity
of its per-node knowledge and Δ′ with the edge-set derivation, and the
G′ ⊆ G check on the ``input_edges`` option."""

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api
from repro.algorithms.matching_dist import input_delta_prime
from repro.api.errors import SpecError
from repro.api.types import ProblemSpec
from repro.graphs import bipartite_double_cover, cycle
from repro.local import Network

SPEC = "maximal-matching:delta=3"
ALGORITHM = "matching:proposal"
ENGINES = ("object", "vectorized")


@st.composite
def _bipartite_networks(draw):
    """Random bipartite support graphs: irregular degrees, isolated nodes
    on either side, canonical or random IDs."""
    whites = draw(st.integers(1, 6))
    blacks = draw(st.integers(0, 6))
    pairs = [(w, whites + b) for w in range(whites) for b in range(blacks)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    graph = nx.Graph()
    graph.add_nodes_from(range(whites), color="white")
    graph.add_nodes_from(range(whites, whites + blacks), color="black")
    graph.add_edges_from(edges)
    network = Network(graph=graph)
    if draw(st.booleans()):
        network = network.with_random_ids(draw(st.integers(0, 2**16)))
    return network


def _program(network, **options):
    algorithm = api.resolve_algorithm(ALGORITHM)
    return algorithm.program(network, ProblemSpec.parse(SPEC), options)


class TestProgramParity:
    @settings(max_examples=60, deadline=None)
    @given(_bipartite_networks())
    def test_unrestricted_program_matches_edge_set_derivation(self, network):
        support = network.graph
        all_edges = frozenset(frozenset(edge) for edge in support.edges)
        program = _program(network)
        delta_prime = input_delta_prime(all_edges)
        assert program.vectorized.data["input_edges"] is None
        assert program.vectorized.data["delta_prime"] == delta_prime
        for node in support.nodes:
            assert program.extra(node) == {
                "color": support.nodes[node]["color"],
                "input_ports": sorted(
                    network.port_to(node, neighbor)
                    for neighbor in support.neighbors(node)
                    if frozenset((node, neighbor)) in all_edges
                ),
                "delta_prime": delta_prime,
            }

    @settings(max_examples=40, deadline=None)
    @given(_bipartite_networks(), st.data())
    def test_engines_agree_unrestricted_and_restricted(self, network, data):
        edges = sorted(network.graph.edges)
        strict = data.draw(
            st.lists(st.sampled_from(edges), unique=True, max_size=len(edges) - 1)
            if edges
            else st.just([])
        )
        for options in ({}, {"input_edges": strict}):
            reports = {
                engine: api.solve(
                    SPEC, algorithm=ALGORITHM, engine=engine,
                    network=network, **options,
                ).canonical_json()
                for engine in ENGINES
            }
            assert reports["object"] == reports["vectorized"]

    def test_self_loop_counts_once_towards_delta_prime(self):
        graph = nx.Graph([(0, 0), (0, 1)])
        graph.nodes[0]["color"] = "white"
        graph.nodes[1]["color"] = "black"
        program = _program(Network(graph=graph))
        all_edges = frozenset(frozenset(edge) for edge in graph.edges)
        assert program.vectorized.data["delta_prime"] == 2
        assert input_delta_prime(all_edges) == 2
        assert graph.degree(0) == 3


class TestInputSubgraphMustBeSubgraph:
    """Supported LOCAL needs G′ ⊆ G: ``input_edges`` naming a non-edge of
    the support graph is a spec error, not 2·(inflated Δ′) rounds."""

    @staticmethod
    def _cover():
        return bipartite_double_cover(cycle(6))

    @pytest.mark.parametrize("engine", ENGINES)
    def test_non_support_edge_rejected(self, engine):
        edges = [((0, 0), (3, 1)), ((0, 0), (1, 1))]
        with pytest.raises(SpecError) as raised:
            api.solve(
                SPEC, algorithm=ALGORITHM, engine=engine,
                graph=self._cover(), input_edges=edges,
            )
        assert raised.value.code == "bad-spec"
        assert str(raised.value) == (
            "input_edges entry ((0, 0), (3, 1)) is not an edge of the "
            "support graph G; Supported LOCAL needs G′ ⊆ G"
        )

    @pytest.mark.parametrize("engine", ENGINES)
    def test_first_offender_in_str_order_named(self, engine):
        edges = [((5, 0), (2, 1)), ((0, 0), (0, 0)), ((1, 0), (4, 1))]
        with pytest.raises(SpecError, match=r"entry \(\(0, 0\), \(0, 0\)\) "
                           r"does not have two distinct endpoints"):
            api.solve(
                SPEC, algorithm=ALGORITHM, engine=engine,
                graph=self._cover(), input_edges=edges,
            )

    @pytest.mark.parametrize(
        "entry", [(1, 2, 3), ((0, 0),), 7, [[0, 0], [1, 1]]],
        ids=["three-endpoints", "one-endpoint", "not-iterable", "unhashable"],
    )
    def test_malformed_entries_rejected(self, entry):
        with pytest.raises(SpecError, match="Supported LOCAL needs"):
            api.solve(
                SPEC, algorithm=ALGORITHM, graph=self._cover(),
                input_edges=[entry],
            )

    def test_non_collection_rejected(self):
        with pytest.raises(SpecError, match="collection of edges"):
            api.solve(SPEC, algorithm=ALGORITHM, graph=self._cover(), input_edges=3)

    @pytest.mark.parametrize("engine", ENGINES)
    def test_valid_subgraph_runs_two_rounds_per_input_degree(self, engine):
        edges = [((0, 0), (1, 1)), ((2, 0), (1, 1))]
        report = api.solve(
            SPEC, algorithm=ALGORITHM, engine=engine,
            graph=self._cover(), input_edges=edges,
        )
        assert report.rounds == 2 * 2
