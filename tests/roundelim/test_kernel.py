"""Kernel/reference equivalence for the round elimination operators.

The bitmask kernel must be *observationally identical* to the reference
implementation: the same maximal set configurations, the same decoded
set-label names, the same ``Problem`` (equality includes constraints and
name), the same rendered text, and the same budget behavior.  This
module enforces that over a property-style randomized problem matrix,
golden instances from the paper, and the budget semantics.
"""

import random

import pytest

from repro.formalism.configurations import Configuration
from repro.formalism.constraints import Constraint
from repro.formalism.problems import Problem
from repro.problems import (
    maximal_matching_problem,
    pi_matching,
    pi_ruling,
    sinkless_orientation_problem,
)
from repro.roundelim.operators import (
    apply_R,
    apply_R_bar,
    maximal_set_configurations,
    round_elimination,
)
from repro.utils import InvalidParameterError, SolverLimitError
from repro.utils.multiset import all_multisets


def random_problem(seed: int) -> Problem:
    """A random small problem: alphabet ≤ 6, arities 2–4, random
    non-empty constraints drawn from the full multiset space."""
    rng = random.Random(seed)
    alphabet_size = rng.randint(2, 6)
    alphabet = "ABCDEF"[:alphabet_size]
    white_arity = rng.randint(2, 4)
    black_arity = rng.randint(2, 4)

    def random_constraint(arity: int) -> Constraint:
        universe = list(all_multisets(alphabet, arity))
        count = rng.randint(1, min(len(universe), 6))
        return Constraint(
            Configuration(labels) for labels in rng.sample(universe, count)
        )

    return Problem(
        alphabet=frozenset(alphabet),
        white=random_constraint(white_arity),
        black=random_constraint(black_arity),
        name=f"rand{seed}",
    )


class TestRandomizedEquivalenceMatrix:
    @pytest.mark.parametrize("seed", range(40))
    def test_round_elimination_identical(self, seed):
        problem = random_problem(seed)
        reference = round_elimination(problem, engine="reference")
        kernel = round_elimination(problem, engine="kernel")
        assert reference == kernel
        # Byte-identical canonical rendering, not merely equal objects.
        assert str(reference) == str(kernel)

    @pytest.mark.parametrize("seed", range(40, 50))
    def test_apply_R_and_R_bar_identical(self, seed):
        problem = random_problem(seed)
        assert apply_R(problem, engine="reference") == apply_R(
            problem, engine="kernel"
        )
        assert apply_R_bar(problem, engine="reference") == apply_R_bar(
            problem, engine="kernel"
        )

    @pytest.mark.parametrize("seed", range(50, 60))
    def test_maximal_set_configurations_identical(self, seed):
        problem = random_problem(seed)
        assert maximal_set_configurations(
            problem.black, problem.alphabet, engine="reference"
        ) == maximal_set_configurations(
            problem.black, problem.alphabet, engine="kernel"
        )


class TestGoldenPaperProblems:
    """The paper's Δ=3,4 matching problems, byte-identical across engines
    and pinned to their known output shapes, plus the other families."""

    @pytest.mark.parametrize(
        "delta, expected_shape",
        [(3, (9, 6, 96)), (4, (9, 6, 231))],
    )
    def test_pi_matching_golden(self, delta, expected_shape):
        problem = pi_matching(delta, 0, 1)
        reference = round_elimination(problem, engine="reference")
        kernel = round_elimination(problem, engine="kernel")
        assert reference == kernel
        assert str(reference) == str(kernel)
        shape = (len(kernel.alphabet), len(kernel.white), len(kernel.black))
        assert shape == expected_shape

    @pytest.mark.parametrize(
        "delta, expected_shape",
        [(3, (6, 3, 31)), (4, (6, 3, 56))],
    )
    def test_maximal_matching_golden(self, delta, expected_shape):
        problem = maximal_matching_problem(delta)
        reference = round_elimination(problem, engine="reference")
        kernel = round_elimination(problem, engine="kernel")
        assert reference == kernel
        shape = (len(kernel.alphabet), len(kernel.white), len(kernel.black))
        assert shape == expected_shape

    def test_sinkless_orientation_structure(self):
        so = sinkless_orientation_problem(3)
        assert round_elimination(so, engine="kernel") == round_elimination(
            so, engine="reference"
        )

    def test_ruling_set_family_identical(self):
        problem = pi_ruling(3, 1, 1)
        reference = round_elimination(problem, engine="reference")
        kernel = round_elimination(problem, engine="kernel")
        assert reference == kernel
        assert str(reference) == str(kernel)


class TestBudgetParity:
    def test_engines_raise_at_the_same_budget(self):
        """Both engines pop identical configuration sequences, so the
        minimal sufficient budget is the same and anything below raises."""
        problem = maximal_matching_problem(3)

        def minimal_budget(engine: str) -> int:
            for budget in range(1, 10_000):
                try:
                    maximal_set_configurations(
                        problem.black, problem.alphabet, budget=budget, engine=engine
                    )
                    return budget
                except SolverLimitError:
                    continue
            raise AssertionError("no budget below 10000 sufficed")

        reference_min = minimal_budget("reference")
        assert minimal_budget("kernel") == reference_min
        for engine in ("reference", "kernel"):
            with pytest.raises(SolverLimitError):
                maximal_set_configurations(
                    problem.black,
                    problem.alphabet,
                    budget=reference_min - 1,
                    engine=engine,
                )

    def test_round_elimination_budget_threading(self):
        so = sinkless_orientation_problem(3)
        for engine in ("reference", "kernel"):
            with pytest.raises(SolverLimitError):
                round_elimination(so, budget=1, engine=engine)


class TestEngineValidation:
    def test_unknown_engine_rejected(self):
        so = sinkless_orientation_problem(3)
        with pytest.raises(InvalidParameterError):
            round_elimination(so, engine="turbo")
        with pytest.raises(InvalidParameterError):
            maximal_set_configurations(so.black, so.alphabet, engine="turbo")
