"""Canonical JSON serialization for experiment results.

Experiment records mix graph nodes, frozensets, tuples, dataclasses and
check results; this module flattens all of them into plain JSON with a
*canonical* encoding (sorted keys, sorted set elements, fixed separators)
so that two runs producing equal results produce byte-identical files —
the property the parallel-vs-serial equality guarantees of the
experiments runner rest on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from pathlib import Path


#: ``json.dumps(item, sort_keys=True)`` without building a new encoder
#: per call: the sort key of every set element.
_sort_key = json.JSONEncoder(sort_keys=True).encode
#: The compact form of the same encoding, for container dict keys.
_compact_key = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
#: Exact scalar types, returned as they are without an isinstance probe.
_SCALAR_TYPES = frozenset({str, int, float, bool, type(None)})


def to_jsonable(value):
    """Recursively convert ``value`` into JSON-encodable structures.

    Sets and frozensets become sorted lists (ordered by their canonical
    encoding, so mixed element types are fine); tuples become lists;
    dataclasses become dicts; dict keys are stringified.
    """
    # Exact built-in types first: a large report is mostly these, and
    # none of them can be a dataclass instance.  Subclasses (namedtuples,
    # dataclasses deriving from a container) take the general path below.
    kind = type(value)
    if kind in _SCALAR_TYPES:
        return value
    if kind is tuple or kind is list:
        return [to_jsonable(item) for item in value]
    if kind is frozenset or kind is set:
        return sorted([to_jsonable(item) for item in value], key=_sort_key)
    if kind is dict:
        return {_canonical_key(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (bool, int, float, str)):
        return value
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return to_jsonable(dataclasses.asdict(value))
    if isinstance(value, dict):
        return {_canonical_key(key): to_jsonable(item) for key, item in value.items()}
    if isinstance(value, (set, frozenset)):
        return sorted([to_jsonable(item) for item in value], key=_sort_key)
    if isinstance(value, (list, tuple)):
        return [to_jsonable(item) for item in value]
    return str(value)


def _canonical_key(key) -> str:
    """A deterministic string for a dict key.

    ``str()`` is only safe for scalars; containers (e.g. frozenset edge
    keys) iterate in hash order, which varies per process — exactly the
    nondeterminism this module exists to eliminate — so they go through
    the canonical encoding instead.
    """
    if isinstance(key, str):
        return key
    if isinstance(key, (bool, int, float)) or key is None:
        return str(key)
    return _compact_key(to_jsonable(key))


def canonical_dumps(value, indent: int | None = None) -> str:
    """Serialize ``value`` deterministically (sorted keys, stable order)."""
    separators = (",", ": ") if indent is not None else (",", ":")
    return json.dumps(
        to_jsonable(value), sort_keys=True, indent=indent, separators=separators
    )


def write_json(path: str | Path, value, indent: int | None = 2) -> Path:
    """Write ``value`` as canonical JSON, creating parent directories.

    The write is atomic (temp file in the target directory, then
    ``os.replace``): a reader — or a crash — never observes a
    half-written file, only the old version or the new one.
    """
    import os
    import tempfile

    target = Path(path)
    target.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=target.parent, prefix=f"{target.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(canonical_dumps(value, indent=indent) + "\n")
        os.replace(tmp_name, target)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
    return target


def result_digest(value, length: int = 16) -> str:
    """A stable fingerprint of a result payload.

    The default 16 hex chars suffice for trajectory fingerprints; callers
    that treat digest equality as *identity* (the content-addressed
    problem store) pass a larger ``length`` — up to the full sha256.
    """
    encoded = canonical_dumps(value).encode("utf-8")
    return hashlib.sha256(encoded).hexdigest()[:length]
