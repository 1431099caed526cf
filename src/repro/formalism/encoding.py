"""Integer encodings of the black-white formalism (the kernel domain).

The round elimination operators (paper Appendix B) spend their time on
three primitive queries over a fixed alphabet Σ:

* "is this multiset of labels an allowed configuration?"
* "does this partial multiset extend to an allowed configuration?"
* "is this label set a subset of that one?"

All three are string/frozenset operations in the reference
implementation.  This module compiles a problem into an *integer
domain* where they become hash-set lookups and mask arithmetic:

* each alphabet label gets a bit index (alphabetical order, so the
  integer order of indices mirrors the string order of labels);
* a configuration becomes a sorted tuple of small ints;
* a label *set* becomes a single bitmask (subset test:
  ``mask & other == mask``);
* a constraint becomes a :class:`ConstraintTable`: a hash set of int
  tuples plus a *partial-extension table* holding every sorted
  sub-multiset of an allowed configuration, so extendability of a
  partial choice is one set lookup instead of a scan over all
  configurations.

Because bit indices are assigned in sorted-label order, every canonical
order used by the reference implementation (sorted label tuples, slots
ordered by ``(len(slot), sorted(slot))``) has an exact integer mirror
(sorted index tuples, masks ordered by ``(popcount, bit indices)``) —
the property the kernel's output-equality and budget-parity guarantees
rest on (see :mod:`repro.roundelim.kernel`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from repro.formalism.configurations import Configuration, Label
from repro.formalism.constraints import Constraint
from repro.formalism.problems import Problem
from repro.utils import UnknownLabelError
from repro.utils.multiset import submultiset_closure

#: A configuration in the integer domain: a sorted tuple of bit indices.
IntConfig = tuple[int, ...]


def bits_of(mask: int) -> tuple[int, ...]:
    """The set bit indices of ``mask``, ascending."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def mask_sort_key(mask: int) -> tuple[int, tuple[int, ...]]:
    """The integer mirror of the reference slot order ``(len, sorted)``.

    Masks sorted by this key appear in exactly the order the decoded
    label sets would sort under ``(len(slot), sorted(slot))``.
    """
    bits = bits_of(mask)
    return (len(bits), bits)


@dataclass(frozen=True)
class LabelEncoding:
    """A bijection between an alphabet and bit indices 0..|Σ|-1.

    Labels are numbered in sorted order, so the encoding is
    order-preserving: comparing sorted index tuples is the same as
    comparing sorted label tuples.
    """

    labels: tuple[Label, ...]

    @classmethod
    def for_alphabet(cls, alphabet) -> "LabelEncoding":
        return cls(labels=tuple(sorted(alphabet)))

    @cached_property
    def index(self) -> dict[Label, int]:
        return {label: position for position, label in enumerate(self.labels)}

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        """The mask of the whole alphabet."""
        return (1 << len(self.labels)) - 1

    def encode_label(self, label: Label) -> int:
        try:
            return self.index[label]
        except KeyError:
            raise UnknownLabelError(
                f"label {label!r} is not in the encoded alphabet "
                f"{list(self.labels)}"
            ) from None

    def decode_label(self, bit: int) -> Label:
        return self.labels[bit]

    def encode_config(self, config: Configuration) -> IntConfig:
        """Encode a configuration as a sorted int tuple.

        ``config.labels`` is already sorted and the index map is
        order-preserving, so no re-sort is needed.
        """
        index = self.index
        try:
            return tuple(index[label] for label in config.labels)
        except KeyError as exc:
            raise UnknownLabelError(
                f"configuration {config} uses label {exc.args[0]!r} outside "
                f"the encoded alphabet"
            ) from None

    def decode_config(self, items: IntConfig) -> Configuration:
        return Configuration(self.labels[bit] for bit in items)

    def encode_set(self, members) -> int:
        """Encode a label set as a bitmask."""
        mask = 0
        for label in members:
            mask |= 1 << self.encode_label(label)
        return mask

    def decode_mask(self, mask: int) -> frozenset[Label]:
        return frozenset(self.labels[bit] for bit in bits_of(mask))


@dataclass(frozen=True)
class ConstraintTable:
    """A constraint compiled to the integer domain.

    ``allowed`` holds the configurations as sorted int tuples;
    ``partials`` holds every sorted sub-multiset (all lengths 0..arity)
    of an allowed configuration — the per-prefix partial-extension
    table.  A sorted partial choice extends to an allowed configuration
    iff it is in ``partials`` (sub-multiset extendability is exactly
    sub-multiset containment in some configuration), and a full-length
    tuple is in ``partials`` iff it is in ``allowed``.
    """

    arity: int
    allowed: frozenset[IntConfig]
    partials: frozenset[IntConfig]

    @classmethod
    def compile(cls, constraint: Constraint, encoding: LabelEncoding) -> "ConstraintTable":
        allowed = frozenset(
            encoding.encode_config(config) for config in constraint.configurations
        )
        return cls(
            arity=constraint.size,
            allowed=allowed,
            partials=submultiset_closure(allowed),
        )

    def allows(self, items: IntConfig) -> bool:
        """Full-configuration membership (``items`` must be sorted)."""
        return items in self.allowed

    def extends(self, partial: IntConfig) -> bool:
        """Can the sorted partial tuple extend to an allowed config?"""
        return partial in self.partials


@dataclass(frozen=True)
class ProblemEncoding:
    """A problem compiled to the integer domain: encoding + both tables."""

    encoding: LabelEncoding
    white: ConstraintTable
    black: ConstraintTable

    @classmethod
    def compile(cls, problem: Problem) -> "ProblemEncoding":
        encoding = LabelEncoding.for_alphabet(problem.alphabet)
        return cls(
            encoding=encoding,
            white=ConstraintTable.compile(problem.white, encoding),
            black=ConstraintTable.compile(problem.black, encoding),
        )
