"""Canonical serialization: the substrate of result reproducibility."""

import dataclasses
import json
from collections import namedtuple
from dataclasses import dataclass

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.serialization import (
    canonical_dumps,
    result_digest,
    to_jsonable,
    write_json,
)


@dataclass(frozen=True)
class _Point:
    x: int
    y: int


# -- reference: the straightforward encoder the fast paths must match ------


def _reference_to_jsonable(value):
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return _reference_to_jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {
            _reference_key(key): _reference_to_jsonable(item)
            for key, item in value.items()
        }
    if isinstance(value, (set, frozenset)):
        converted = [_reference_to_jsonable(item) for item in value]
        return sorted(converted, key=lambda item: json.dumps(item, sort_keys=True))
    if isinstance(value, (list, tuple)):
        return [_reference_to_jsonable(item) for item in value]
    return str(value)


def _reference_key(key) -> str:
    if isinstance(key, str):
        return key
    if isinstance(key, (bool, int, float)) or key is None:
        return str(key)
    return json.dumps(
        _reference_to_jsonable(key), sort_keys=True, separators=(",", ":")
    )


def _reference_dumps(value, indent=None) -> str:
    separators = (",", ": ") if indent is not None else (",", ":")
    return json.dumps(
        _reference_to_jsonable(value),
        sort_keys=True,
        indent=indent,
        separators=separators,
    )


_Edge = namedtuple("_Edge", "tail head")


@dataclass(frozen=True)
class _Tagged:
    # Fields out of alphabetical order: ``sort_keys`` must reorder them.
    tag: object
    data: object


_texts = st.text(max_size=6) | st.sampled_from(
    [", ", ": ", "a, b", "k: v", "é", "Δ′", "日本", '"q"', "\\"]
)
_scalars = (
    st.none()
    | st.booleans()
    | st.integers(-(2**70), 2**70)
    | st.floats(allow_nan=False)
    | _texts
)


def _hashable(shape_and_items):
    shape, items = shape_and_items
    if shape in (tuple, frozenset):
        return shape(items)
    return shape(*(items + [None, None])[:2])


def _container(shape_and_pairs):
    shape, pairs = shape_and_pairs
    if shape is list:
        return [value for _key, value in pairs]
    if shape is set:
        return {key for key, _value in pairs}
    if shape is dict:
        return dict(pairs)
    return _Tagged(*pairs[0]) if pairs else _Tagged(None, None)


# Each extension names ``inner`` once: hypothesis reprs the nested
# strategies, and a repeated ``inner`` makes that repr grow exponentially.
_hashables = st.recursive(
    _scalars,
    lambda inner: st.tuples(
        st.sampled_from([tuple, frozenset, _Edge, _Tagged]),
        st.lists(inner, max_size=3),
    ).map(_hashable),
    max_leaves=12,
)
_values = st.recursive(
    _hashables,
    lambda inner: st.tuples(
        st.sampled_from([list, set, dict, _Tagged]),
        st.lists(st.tuples(_hashables, inner), max_size=4),
    ).map(_container),
    max_leaves=20,
)


class TestReferenceParity:
    """The fast paths (exact-type dispatch, one shared sort-key encoder)
    give the reference encoder's values and bytes."""

    @settings(max_examples=300, deadline=None)
    @given(_values)
    def test_to_jsonable_and_dumps_match_reference(self, value):
        def outcome(function, *args):
            # A value both reject (``dataclasses.asdict`` turning a
            # dataclass dict key into an unhashable dict) must fail alike.
            try:
                return function(value, *args)
            except TypeError as error:
                return TypeError, str(error)

        assert outcome(to_jsonable) == outcome(_reference_to_jsonable)
        assert outcome(canonical_dumps) == outcome(_reference_dumps)
        assert outcome(canonical_dumps, 2) == outcome(_reference_dumps, 2)

    def test_set_order_is_by_ascii_escaped_sorted_key_spelling(self):
        # "é" is spelled "\u00e9", which sorts before "z"; and dataclass
        # elements sort by their key-sorted spelling ('{"data": ...').
        assert to_jsonable({"z", "é"}) == ["é", "z"]
        value = {_Tagged(1, 2), _Tagged(2, 1)}
        assert to_jsonable(value) == [{"data": 1, "tag": 2}, {"data": 2, "tag": 1}]
        assert to_jsonable(value) == _reference_to_jsonable(value)

    def test_subclasses_take_the_general_path(self):
        value = {_Edge(2, 1), _Tagged((1,), frozenset({"k"}))}
        assert to_jsonable(value) == _reference_to_jsonable(value)


class TestToJsonable:
    def test_scalars_pass_through(self):
        for value in (None, True, 3, 2.5, "s"):
            assert to_jsonable(value) == value

    def test_sets_become_sorted_lists(self):
        assert to_jsonable({3, 1, 2}) == [1, 2, 3]
        assert to_jsonable(frozenset({"b", "a"})) == ["a", "b"]

    def test_nested_frozensets(self):
        value = {frozenset({1, 2}), frozenset({0, 3})}
        assert to_jsonable(value) == [[0, 3], [1, 2]]

    def test_tuples_become_lists(self):
        assert to_jsonable((1, (2, 3))) == [1, [2, 3]]

    def test_dict_keys_stringified(self):
        assert to_jsonable({1: "a"}) == {"1": "a"}

    def test_container_dict_keys_are_canonical(self):
        # str(frozenset) iterates in hash order, which varies per process;
        # canonical keys must not (the parallel runner relies on this).
        value = {frozenset({"alpha", "beta", "gamma", "delta"}): 1}
        assert to_jsonable(value) == {'["alpha","beta","delta","gamma"]': 1}
        assert to_jsonable({(2, 1): "x"}) == {"[2,1]": "x"}

    def test_dataclasses(self):
        assert to_jsonable(_Point(1, 2)) == {"x": 1, "y": 2}

    def test_fallback_to_str(self):
        assert to_jsonable(complex(1, 2)) == "(1+2j)"


class TestCanonicalDumps:
    def test_key_order_is_canonical(self):
        assert canonical_dumps({"b": 1, "a": 2}) == canonical_dumps({"a": 2, "b": 1})

    def test_set_order_is_canonical(self):
        assert canonical_dumps({"x", "y", "z"}) == canonical_dumps({"z", "y", "x"})


class TestWriteJson:
    def test_roundtrip(self, tmp_path):
        target = tmp_path / "deep" / "out.json"
        write_json(target, {"records": [{"set": {2, 1}}]})
        assert json.loads(target.read_text()) == {"records": [{"set": [1, 2]}]}

    def test_trailing_newline(self, tmp_path):
        target = write_json(tmp_path / "out.json", [1])
        assert target.read_text().endswith("\n")


class TestDigest:
    def test_stable_across_orderings(self):
        assert result_digest({"a": 1, "b": {2, 3}}) == result_digest(
            {"b": {3, 2}, "a": 1}
        )

    def test_distinguishes_values(self):
        assert result_digest({"a": 1}) != result_digest({"a": 2})
