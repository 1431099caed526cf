"""Mechanical verification of the paper's lower bound sequences.

Corollary 4.6 / Lemma 4.5 ([BO20]): Π_Δ(x,y), Π_Δ(x+y,y), … is a lower
bound sequence.  The steps need the *general* configuration-map relaxation
notion — a reproduction finding documented in EXPERIMENTS.md: no label map
witnesses the Lemma 4.5 steps, while ordered-configuration maps do.
"""

import pytest

from repro.formalism.relaxations import (
    find_config_map_relaxation,
    find_label_relaxation,
    is_relaxation_via_config_map,
)
from repro.problems import matching_sequence_problems, pi_matching
from repro.roundelim import (
    LowerBoundSequence,
    StepVerifier,
    compress_labels,
    constant_sequence,
    round_elimination,
    sequence_from_family,
    sequences,
    shared_step_verifier,
)
from repro.utils import InvalidParameterError, SolverLimitError


class TestLemma45:
    def test_step_delta3(self):
        """Π_3(1,1) is a relaxation of RE(Π_3(0,1)) — via a config map."""
        eliminated, _ = compress_labels(round_elimination(pi_matching(3, 0, 1)))
        target = pi_matching(3, 1, 1)
        witness = find_config_map_relaxation(eliminated, target)
        assert witness is not None
        assert is_relaxation_via_config_map(eliminated, target, witness)

    def test_step_needs_general_relaxation_notion(self):
        """Reproduction finding: no *label map* witnesses the step."""
        eliminated, _ = compress_labels(round_elimination(pi_matching(3, 0, 1)))
        assert find_label_relaxation(eliminated, pi_matching(3, 1, 1)) is None

    def test_step_delta4_second_step(self):
        """Π_4(2,1) is a relaxation of RE(Π_4(1,1))."""
        eliminated, _ = compress_labels(round_elimination(pi_matching(4, 1, 1)))
        target = pi_matching(4, 2, 1)
        witness = find_config_map_relaxation(eliminated, target)
        assert witness is not None


class TestCorollary46:
    def test_full_sequence_delta4(self):
        problems = matching_sequence_problems(4, 0, 1, steps=2)
        sequence = LowerBoundSequence(problems=tuple(problems))
        witnesses = sequence.verify()
        assert len(witnesses) == 2

    def test_parameter_guard(self):
        with pytest.raises(InvalidParameterError):
            matching_sequence_problems(3, 0, 1, steps=3)  # x+(k+1)y > Δ

    def test_sequence_from_family_builder(self):
        sequence = sequence_from_family(
            lambda index: pi_matching(4, index, 1), [0, 1, 2]
        )
        assert sequence.length == 2
        assert sequence.first.name == "Π_4(0,1)"
        assert sequence.last.name == "Π_4(2,1)"


class TestSequenceBasics:
    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError):
            LowerBoundSequence(problems=())

    def test_invalid_step_raises(self):
        # Π_3(0,1) is not a relaxation of RE(Π_3(1,1)) (wrong direction —
        # the sequence must weaken over time).
        sequence = LowerBoundSequence(
            problems=(pi_matching(3, 1, 1), pi_matching(3, 0, 1))
        )
        with pytest.raises(ValueError):
            sequence.verify()


class TestStepVerifier:
    def test_shared_verifier_matches_standalone_verify(self):
        chain = LowerBoundSequence(
            problems=(pi_matching(3, 0, 1), pi_matching(3, 1, 1), pi_matching(3, 2, 1))
        )
        tail = LowerBoundSequence(problems=chain.problems[1:])
        fixed = constant_sequence(pi_matching(3, 2, 1), 2)
        verifier = StepVerifier()
        for sequence in (chain, tail, fixed):
            assert verifier.verify(sequence) == sequence.verify()

    def test_failure_is_memoized_and_reraised_with_its_index(self, monkeypatch):
        searches = []
        real = StepVerifier._search

        def search(self, previous, current):
            searches.append((previous, current))
            return real(self, previous, current)

        monkeypatch.setattr(StepVerifier, "_search", search)
        verifier = StepVerifier()
        wrong_way = (pi_matching(3, 1, 1), pi_matching(3, 0, 1))
        with pytest.raises(ValueError, match="^step 1:"):
            verifier.verify(LowerBoundSequence(problems=wrong_way))
        # The same failed step, second in a longer sequence: reported
        # under its new index, from the memo.
        with pytest.raises(ValueError, match="^step 2:"):
            verifier.verify(
                LowerBoundSequence(problems=(pi_matching(3, 0, 1),) + wrong_way)
            )
        assert searches.count(wrong_way) == 1

    def test_budget_exhaustion_is_memoized(self, monkeypatch):
        calls = []
        real = sequences.round_elimination

        def counting(problem, *args, **kwargs):
            calls.append(problem)
            return real(problem, *args, **kwargs)

        monkeypatch.setattr(sequences, "round_elimination", counting)
        verifier = StepVerifier(budget=10)
        source = pi_matching(3, 0, 1)
        for target in (pi_matching(3, 1, 1), pi_matching(3, 2, 1)):
            with pytest.raises(SolverLimitError):
                verifier.verify(LowerBoundSequence(problems=(source, target)))
        assert calls == [source]

    def test_shared_block_serves_only_its_own_budget(self, monkeypatch):
        calls = []
        real = sequences.round_elimination

        def counting(problem, *args, **kwargs):
            calls.append(problem)
            return real(problem, *args, **kwargs)

        monkeypatch.setattr(sequences, "round_elimination", counting)
        step = LowerBoundSequence(problems=(pi_matching(3, 1, 1), pi_matching(3, 2, 1)))
        with shared_step_verifier(budget=10):
            for _ in range(2):
                with pytest.raises(SolverLimitError):
                    step.verify(budget=10)
            # Another budget is not this block's memo: verified afresh.
            assert len(step.verify()) == 1
        assert len(calls) == 2
        step.verify()  # outside the block nothing is shared
        assert len(calls) == 3
