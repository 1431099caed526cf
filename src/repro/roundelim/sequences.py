"""Lower bound sequences (paper §2).

A sequence Π_0, …, Π_k is a *lower bound sequence* if each Π_i (i ≥ 1) is a
relaxation of RE(Π_{i-1}).  The framework of Theorems 3.4 / B.2 consumes
such sequences: non-0-round-solvability of Π_k in the Supported LOCAL model
yields an Ω(min{2k, girth}) lower bound for Π_0.

This module represents sequences, verifies them mechanically (running RE
and searching for relaxation witnesses, each distinct step once per
:class:`StepVerifier`), and builds the two kinds the paper
uses: constant sequences from fixed points (Corollary 5.5) and parametric
family sequences (Corollary 4.6, via family-specific step lemmas).
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass

from repro.formalism.configurations import Label
from repro.formalism.problems import Problem
from repro.formalism.relaxations import (
    find_config_map_relaxation,
    find_label_relaxation,
)
from repro.roundelim.operators import (
    DEFAULT_BUDGET,
    DEFAULT_ENGINE,
    compress_labels,
    round_elimination,
)
from repro.utils import SolverLimitError

#: What one step search yields: (RE(Π_{i-1}), label map, config map), or
#: None when neither witness kind exists.
_StepOutcome = tuple[Problem, dict | None, dict | None] | None


def _memoized(cache: dict, key, compute: Callable[[], object]):
    """``cache[key]``, computed on first use; a :class:`SolverLimitError`
    is memoized like a result and re-raised on every use."""
    if key not in cache:
        try:
            cache[key] = compute()
        except SolverLimitError as error:
            cache[key] = error
    outcome = cache[key]
    if isinstance(outcome, SolverLimitError):
        raise outcome.with_traceback(None)
    return outcome


@dataclass(frozen=True)
class SequenceStepWitness:
    """Witness that Π_{i} is a relaxation of RE(Π_{i-1}).

    Either a label map or (when label maps are insufficient — e.g. the
    Lemma 4.5 matching steps, which need the general per-configuration
    notion) an ordered-configuration map.
    """

    index: int
    eliminated: Problem
    relaxation_map: dict[Label, Label] | None
    config_map: dict[tuple[Label, ...], tuple[Label, ...]] | None = None


@dataclass(frozen=True)
class LowerBoundSequence:
    """A candidate lower bound sequence Π_0, …, Π_k."""

    problems: tuple[Problem, ...]

    def __post_init__(self) -> None:
        if not self.problems:
            raise ValueError("a lower bound sequence needs at least one problem")

    @property
    def length(self) -> int:
        """k: the number of RE steps the sequence certifies."""
        return len(self.problems) - 1

    @property
    def first(self) -> Problem:
        return self.problems[0]

    @property
    def last(self) -> Problem:
        return self.problems[-1]

    def verify(
        self, budget: int = DEFAULT_BUDGET, engine: str = DEFAULT_ENGINE
    ) -> list[SequenceStepWitness]:
        """Mechanically verify every step, returning the witnesses.

        Tries the cheap label-map search first and falls back to the
        general ordered-configuration-map search (the paper's §2 notion;
        needed e.g. for the Lemma 4.5 matching steps).  Raises ValueError
        on the first unverifiable step.  ``engine`` selects the round
        elimination backend (outputs are engine-independent).  Inside a
        :func:`shared_step_verifier` block with the same budget and engine,
        steps already verified there are answered from its memo.
        """
        verifier = _SHARED.get()
        if verifier is None or (verifier.budget, verifier.engine) != (budget, engine):
            verifier = StepVerifier(budget=budget, engine=engine)
        return verifier.verify(self)


class StepVerifier:
    """Verifies lower bound sequence steps, each distinct step once.

    RE(Π) is computed once per source problem and the witness search once
    per (Π_{i-1}, Π_i) pair; the outcome is kept whether the search found
    a witness, found none, or ran out of budget (:class:`SolverLimitError`).
    Sequences sharing steps or sources -- the candidate sequences of one
    exploration, or the repeated step of a constant sequence -- therefore
    pay for each only once, with results identical to verifying each
    sequence on its own.  Problems are keyed by value, names included.
    """

    def __init__(
        self, budget: int = DEFAULT_BUDGET, engine: str = DEFAULT_ENGINE
    ) -> None:
        self.budget = budget
        self.engine = engine
        self._eliminated: dict[Problem, Problem | SolverLimitError] = {}
        self._steps: dict[tuple[Problem, Problem], _StepOutcome | SolverLimitError] = {}

    def verify(self, sequence: LowerBoundSequence) -> list[SequenceStepWitness]:
        """The witnesses of every step of ``sequence``, as
        :meth:`LowerBoundSequence.verify` returns them."""
        problems = sequence.problems
        return [
            self.step(index, problems[index - 1], problems[index])
            for index in range(1, len(problems))
        ]

    def step(self, index: int, previous: Problem, current: Problem) -> SequenceStepWitness:
        """The witness that ``current`` relaxes RE(``previous``), reported
        as step ``index``; raises like :meth:`LowerBoundSequence.verify`."""
        outcome = _memoized(
            self._steps, (previous, current), lambda: self._search(previous, current)
        )
        if outcome is None:
            raise ValueError(
                f"step {index}: {current.name} is not a "
                f"relaxation of RE({previous.name}) "
                f"(neither label-map nor config-map witness found)"
            )
        eliminated, label_map, config_map = outcome
        return SequenceStepWitness(
            index=index,
            eliminated=eliminated,
            relaxation_map=None if label_map is None else dict(label_map),
            config_map=None if config_map is None else dict(config_map),
        )

    def _search(self, previous: Problem, current: Problem) -> _StepOutcome:
        eliminated = _memoized(
            self._eliminated,
            previous,
            lambda: compress_labels(
                round_elimination(previous, budget=self.budget, engine=self.engine)
            )[0],
        )
        label_map = find_label_relaxation(eliminated, current)
        if label_map is not None:
            return eliminated, label_map, None
        config_map = find_config_map_relaxation(eliminated, current)
        if config_map is None:
            return None
        return eliminated, None, config_map


#: The verifier :meth:`LowerBoundSequence.verify` shares, if any.
_SHARED: ContextVar[StepVerifier | None] = ContextVar("shared_step_verifier", default=None)


@contextmanager
def shared_step_verifier(
    budget: int = DEFAULT_BUDGET, engine: str = DEFAULT_ENGINE
) -> Iterator[StepVerifier]:
    """Within the block, every :meth:`LowerBoundSequence.verify` call with
    this budget and engine goes through one :class:`StepVerifier`, so the
    steps and sources the verified sequences share are computed once."""
    verifier = StepVerifier(budget=budget, engine=engine)
    token = _SHARED.set(verifier)
    try:
        yield verifier
    finally:
        _SHARED.reset(token)


def constant_sequence(problem: Problem, length: int) -> LowerBoundSequence:
    """The constant sequence of a fixed point (Corollary 5.5).

    Valid whenever Π is a relaxation of RE(Π); ``verify`` checks exactly
    that for each (identical) step.
    """
    return LowerBoundSequence(problems=tuple([problem] * (length + 1)))


def sequence_from_family(
    family: Callable[[int], Problem], indices: Sequence[int]
) -> LowerBoundSequence:
    """Build a sequence from a parametric family, e.g. i ↦ Π_Δ(x + i·y, y)."""
    return LowerBoundSequence(
        problems=tuple(family(index) for index in indices)
    )
