"""Immutable multiset primitives.

Configurations in the black-white formalism are multisets of labels
(paper §2).  The library represents them as canonically-sorted tuples, which
makes them hashable, comparable and cheap to deduplicate.  This module holds
the generic multiset algebra; :mod:`repro.formalism.configurations` builds
the formalism-specific layer on top of it.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Iterator, Mapping
from itertools import combinations_with_replacement
from typing import TypeVar

T = TypeVar("T")


def canonical(items: Iterable[T]) -> tuple[T, ...]:
    """Return the canonical (sorted) tuple representation of a multiset."""
    return tuple(sorted(items))


def counter_of(items: Iterable[T]) -> Counter[T]:
    """Return the multiplicity map of a multiset."""
    return Counter(items)


def is_submultiset(small: Mapping[T, int], big: Mapping[T, int]) -> bool:
    """Return True if ``small`` is contained in ``big`` with multiplicities."""
    return all(big.get(item, 0) >= count for item, count in small.items())


def multiset_difference(big: Mapping[T, int], small: Mapping[T, int]) -> Counter[T]:
    """Return ``big - small`` assuming ``small`` is a sub-multiset of ``big``."""
    if not is_submultiset(small, big):
        raise ValueError(f"{small!r} is not a sub-multiset of {big!r}")
    result: Counter[T] = Counter()
    for item, count in big.items():
        remaining = count - small.get(item, 0)
        if remaining > 0:
            result[item] = remaining
    return result


def replace_one(items: tuple[T, ...], old: T, new: T) -> tuple[T, ...]:
    """Return the multiset with one occurrence of ``old`` replaced by ``new``.

    Raises ValueError if ``old`` does not occur.
    """
    as_list = list(items)
    as_list.remove(old)  # raises ValueError when absent
    as_list.append(new)
    return canonical(as_list)


def all_multisets(universe: Iterable[T], size: int) -> Iterator[tuple[T, ...]]:
    """Yield every multiset of ``size`` elements drawn from ``universe``.

    The universe is deduplicated and sorted first so the iteration order is
    deterministic and each multiset is yielded exactly once, in canonical
    form.
    """
    ordered = sorted(set(universe))
    yield from combinations_with_replacement(ordered, size)


def multiset_count(universe_size: int, size: int) -> int:
    """Number of multisets of cardinality ``size`` over a universe.

    This is the standard stars-and-bars count C(universe_size + size - 1,
    size); used by solvers to decide whether explicit materialization of a
    constraint is feasible.
    """
    from math import comb

    if universe_size == 0:
        return 1 if size == 0 else 0
    return comb(universe_size + size - 1, size)


def submultiset_closure(multisets: Iterable[tuple[T, ...]]) -> frozenset[tuple[T, ...]]:
    """Every sub-multiset (all sizes, the empty one included) of the given
    canonical multisets, each in canonical form.

    Works down one size at a time: dropping one element from a sorted
    tuple keeps it sorted, so no re-sorting is needed, and each
    sub-multiset is expanded once however many supersets it has.
    """
    closure: set[tuple[T, ...]] = set()
    level = set(multisets)
    while level:
        closure |= level
        below: set[tuple[T, ...]] = set()
        for items in level:
            for index in range(len(items)):
                if index and items[index] == items[index - 1]:
                    continue
                sub = items[:index] + items[index + 1 :]
                if sub not in closure:
                    below.add(sub)
        level = below
    return frozenset(closure)
