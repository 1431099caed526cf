"""Tests for the validity checkers, including failure injection."""

from collections.abc import Mapping

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.checkers import (
    check_arbdefective_colored_ruling_set,
    check_arbdefective_coloring,
    check_bipartite_solution,
    check_half_edge_labeling,
    check_maximal_matching,
    check_mis,
    check_proper_coloring,
    check_ruling_set,
    check_sinkless_orientation,
    check_x_maximal_y_matching,
)
from repro.graphs import cage, cycle, is_independent_set, mark_bipartition
from repro.problems import maximal_matching_problem, pi_arbdefective


class TestMatchingChecker:
    def test_empty_matching_on_edgeless_graph(self):
        graph = nx.empty_graph(3)
        assert check_maximal_matching(graph, set())

    def test_non_maximal_rejected_with_reason(self):
        graph = cycle(6)
        result = check_maximal_matching(graph, set())
        assert not result
        assert "matched neighbors" in result.reason

    def test_overmatched_rejected(self):
        graph = cycle(4)
        matching = {frozenset((0, 1)), frozenset((1, 2))}
        result = check_maximal_matching(graph, matching)
        assert not result
        assert "y = 1" in result.reason

    def test_non_edge_rejected(self):
        graph = cycle(6)
        result = check_maximal_matching(graph, {frozenset((0, 3))})
        assert not result

    def test_x_relaxation_weakens_coverage(self):
        """Larger x excuses unmatched nodes with fewer matched neighbors."""
        graph = cycle(6)
        matching = {frozenset((0, 1)), frozenset((3, 4))}
        assert check_x_maximal_y_matching(graph, matching, x=0, y=1)
        assert check_x_maximal_y_matching(graph, matching, x=1, y=1)


class TestColoringCheckers:
    def test_proper_coloring(self):
        graph = cycle(4)
        assert check_proper_coloring(graph, {0: 1, 1: 2, 2: 1, 3: 2})
        assert not check_proper_coloring(graph, {0: 1, 1: 1, 2: 1, 3: 2})

    def test_missing_color_rejected(self):
        graph = cycle(3)
        result = check_proper_coloring(graph, {0: 1, 1: 2})
        assert not result and "no color" in result.reason

    def test_arbdefective_requires_orientation(self):
        graph = cycle(4)
        color_of = {n: 1 for n in graph.nodes}
        result = check_arbdefective_coloring(graph, color_of, set(), 1, 1)
        assert not result and "unoriented" in result.reason

    def test_arbdefective_outdegree_cap(self):
        graph = nx.star_graph(3)  # center 0
        color_of = {n: 1 for n in graph.nodes}
        orientation = {(0, 1), (0, 2), (0, 3)}
        assert check_arbdefective_coloring(graph, color_of, orientation, 3, 1)
        result = check_arbdefective_coloring(graph, color_of, orientation, 2, 1)
        assert not result and "outdegree" in result.reason

    def test_color_range_enforced(self):
        graph = cycle(3)
        result = check_arbdefective_coloring(
            graph, {0: 1, 1: 5, 2: 2}, set(), 1, 2
        )
        assert not result and "outside" in result.reason


class TestRulingSetCheckers:
    def test_domination_radius(self):
        graph = nx.path_graph(7)
        assert check_ruling_set(graph, {3}, beta=3)
        assert not check_ruling_set(graph, {3}, beta=2)

    def test_independence_flag(self):
        graph = cycle(6)
        assert check_ruling_set(graph, {0, 1}, beta=2)
        result = check_ruling_set(graph, {0, 1}, beta=2, independent=True)
        assert not result and "adjacent" in result.reason

    def test_mis_checker(self):
        graph, _d, _g = cage("petersen")
        assert not check_mis(graph, set())

    def test_adjacent_pair_named_in_str_order(self):
        # str order is 10 < 2 < 3: (10, 2) is not an edge, (10, 3) is the
        # first adjacent pair, ahead of (2, 3).
        graph = nx.Graph([(2, 3), (10, 3), (10, 4)])
        result = check_mis(graph, {2, 3, 10})
        assert result.reason == "S contains adjacent nodes 10, 3"
        result = check_ruling_set(graph, {2, 3, 4}, 2, independent=True)
        assert result.reason == "S contains adjacent nodes 2, 3"

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_reason_matches_pairwise_reference(self, data):
        """The edge scan names the same pair as the pairwise scan it
        replaced: the first adjacent pair in ``str`` order, ``repr``
        breaking ties (labels 1 and "1" share a ``str``)."""
        labels = data.draw(st.lists(
            st.integers(0, 30) | st.text("ab1", max_size=2),
            min_size=1, max_size=10, unique=True,
        ))
        graph = nx.Graph()
        graph.add_nodes_from(labels)
        pairs = [(u, v) for i, u in enumerate(labels) for v in labels[i:]]
        graph.add_edges_from(data.draw(st.lists(st.sampled_from(pairs), max_size=20)))
        # S = V: every node dominated.
        members = sorted(labels, key=lambda node: (str(node), repr(node)))
        expected = next(
            (
                f"S contains adjacent nodes {u!r}, {v!r}"
                for index, u in enumerate(members)
                for v in members[index + 1:]
                if graph.has_edge(u, v)
            ),
            "",
        )
        assert check_mis(graph, set(labels)).reason == expected
        assert is_independent_set(graph, set(labels)) == (expected == "")

    def test_colored_ruling_set_composite(self):
        graph = nx.path_graph(5)
        ruling_set = {0, 3}
        color_of = {0: 1, 3: 1}
        assert check_arbdefective_colored_ruling_set(
            graph, ruling_set, color_of, set(), alpha=0, colors=1, beta=2
        )
        # A sparser S breaks domination at β = 1 (node 2 is 2 away).
        assert not check_arbdefective_colored_ruling_set(
            graph, {0, 4}, {0: 1, 4: 1}, set(), alpha=0, colors=1, beta=1
        )


class _CountingAdjacency(Mapping):
    """``graph.adj`` that charges every neighbor row it hands out."""

    def __init__(self, graph):
        self._graph = graph

    def __getitem__(self, node):
        row = self._graph._adj[node]
        self._graph.work += len(row)
        return row

    def __iter__(self):
        return iter(self._graph._adj)

    def __len__(self):
        return len(self._graph._adj)

    def __contains__(self, node):
        return node in self._graph._adj


class _CountingEdges(nx.reportviews.EdgeView):
    """``graph.edges`` that charges every edge it yields."""

    def __iter__(self):
        for edge in super().__iter__():
            self._graph.work += 1
            yield edge


class _CountingGraph(nx.Graph):
    """Counts adjacency work: ``has_edge`` calls, neighbors read through
    ``adj`` or ``adjacency()``, and edges iterated through ``edges``."""

    work = 0

    def has_edge(self, u, v):
        self.work += 1
        return super().has_edge(u, v)

    @property
    def adj(self):
        return _CountingAdjacency(self)

    def adjacency(self):
        for node, row in super().adjacency():
            self.work += len(row)
            yield node, row

    @property
    def edges(self):
        return _CountingEdges(self)


class TestIndependenceScaling:
    """Independence checks cost O(n + m), not one lookup per pair of S."""

    @pytest.mark.parametrize(
        "check",
        [
            check_mis,
            lambda graph, members: check_ruling_set(graph, members, 2, True),
            is_independent_set,
        ],
        ids=["check_mis", "check_ruling_set", "is_independent_set"],
    )
    def test_work_grows_linearly(self, check):
        def work(n):
            graph = _CountingGraph(nx.cycle_graph(n))
            assert check(graph, set(range(0, n, 2)))  # independent, dominating
            return graph.work

        assert work(2000) <= 3 * work(1000)


def _cycle_work(n, check) -> int:
    """Adjacency work ``check`` spends on a valid solution over C_n."""
    graph = _CountingGraph(nx.cycle_graph(n))
    assert check(graph, n)
    return graph.work


def _cycle_matching(graph, n):
    # Match (3i, 3i+1) for every whole triple; a leftover node or two
    # stay unmatched next to matched ones (n ≡ 1, 2 mod 3 keeps it
    # maximal: every unmatched node sees a matched neighbor per edge).
    matching = {frozenset((i, i + 1)) for i in range(0, n - 2, 3)}
    if n % 3 == 2:
        matching.add(frozenset((n - 2, n - 1)))
    return check_x_maximal_y_matching(graph, matching, x=1, y=1)


class TestCheckerScaling:
    """Every checker costs O(n + m) adjacency work on a valid solution."""

    @pytest.mark.parametrize(
        "check",
        [
            _cycle_matching,
            lambda graph, n: check_proper_coloring(
                graph, {node: node % 2 for node in range(n)}
            ),
            lambda graph, n: check_arbdefective_coloring(
                graph,
                dict.fromkeys(range(n), 1),
                {(i, (i + 1) % n) for i in range(n)},
                alpha=1,
                colors=1,
            ),
            lambda graph, n: check_sinkless_orientation(
                graph, {frozenset((i, (i + 1) % n)): (i + 1) % n for i in range(n)}
            ),
        ],
        ids=[
            "check_x_maximal_y_matching",
            "check_proper_coloring",
            "check_arbdefective_coloring",
            "check_sinkless_orientation",
        ],
    )
    def test_work_grows_linearly(self, check):
        small = _cycle_work(1000, check)
        assert small >= 1000
        assert _cycle_work(2000, check) <= 3 * small


class TestMatchingCheckerReasons:
    """The exact text of each x-maximal y-matching failure."""

    def test_non_edge(self):
        result = check_maximal_matching(nx.path_graph(3), {frozenset((0, 2))})
        assert result.reason == "matching edge (0, 2) is not a graph edge"

    def test_overmatched(self):
        matching = {frozenset((0, 1)), frozenset((1, 2))}
        result = check_maximal_matching(nx.path_graph(3), matching)
        assert result.reason == "node 1 is matched 2 > y = 1 times"

    def test_unmatched_with_too_few_matched_neighbors(self):
        result = check_maximal_matching(nx.path_graph(3), set())
        assert result.reason == (
            "unmatched node 0 has 0 matched neighbors < min{deg, Δ−x} = 1"
        )

    def test_self_loop_counts_twice_towards_degree(self):
        graph = nx.Graph([(0, 0), (0, 1), (1, 2)])
        result = check_x_maximal_y_matching(graph, set(), x=0, y=1)
        assert result.reason == (
            "unmatched node 0 has 0 matched neighbors < min{deg, Δ−x} = 3"
        )

    def test_explicit_delta_caps_the_requirement(self):
        graph = nx.star_graph(3)
        result = check_x_maximal_y_matching(graph, set(), x=1, y=1, delta=3)
        assert result.reason == (
            "unmatched node 0 has 0 matched neighbors < min{deg, Δ−x} = 2"
        )


class TestSinklessOrientationChecker:
    def test_cyclic_orientation(self):
        graph = cycle(4)
        orientation = {
            frozenset((i, (i + 1) % 4)): (i + 1) % 4 for i in range(4)
        }
        assert check_sinkless_orientation(graph, orientation)

    def test_sink_detected(self):
        graph = cycle(3)
        orientation = {
            frozenset((0, 1)): 0,
            frozenset((1, 2)): 1,
            frozenset((0, 2)): 0,
        }
        result = check_sinkless_orientation(graph, orientation)
        assert not result and "sink" in result.reason

    def test_unoriented_edge_detected(self):
        graph = cycle(3)
        result = check_sinkless_orientation(graph, {})
        assert not result and "unoriented" in result.reason


class TestFormalismSolutionCheckers:
    def test_bipartite_solution_checker(self):
        graph = mark_bipartition(cycle(4))
        problem = maximal_matching_problem(2)
        whites = [n for n, d in graph.nodes(data=True) if d["color"] == "white"]
        # Alternate M/O around the cycle so every node sees {M, O}.
        labeling = {}
        for white in whites:
            neighbors = sorted(graph.neighbors(white))
            labeling[frozenset((white, neighbors[0]))] = "M"
            labeling[frozenset((white, neighbors[1]))] = "O"
        result = check_bipartite_solution(graph, problem, labeling)
        assert bool(result) == all(
            sorted(
                labeling[frozenset((node, nb))] for nb in graph.neighbors(node)
            )
            == ["M", "O"]
            for node in graph.nodes
        )

    def test_unlabeled_edge_rejected(self):
        graph = mark_bipartition(cycle(4))
        problem = maximal_matching_problem(2)
        result = check_bipartite_solution(graph, problem, {})
        assert not result and "unlabeled" in result.reason

    def test_half_edge_checker_arity_guard(self):
        graph = cycle(4)
        problem = maximal_matching_problem(2).swap_sides()
        # swap_sides gives black arity 2? MM_2 black arity is 2 — use a
        # 3-arity problem to hit the guard instead.
        problem3 = pi_arbdefective(3, 2).swap_sides()
        labels = {}
        for u, v in graph.edges:
            labels[(u, v)] = "X"
            labels[(v, u)] = "X"
        result = check_half_edge_labeling(graph, problem3, labels)
        assert not result and "arity 2" in result.reason

    def test_half_edge_checker_accepts_all_x(self):
        graph = cycle(4)
        problem = pi_arbdefective(2, 1)
        labels = {}
        for u, v in graph.edges:
            labels[(u, v)] = "{1}"
            labels[(v, u)] = "X"
        # Node constraint: each node sees one {1} and one X — the white
        # constraint ℓ({1})^{Δ-0} X^0 = {1}{1} fails for mixed nodes, so
        # the checker must reject.
        result = check_half_edge_labeling(graph, problem, labels)
        assert not result
