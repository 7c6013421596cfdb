"""The structured-object form of graphs, colorings and reports.

``to_obj`` turns any value into plain JSON-ready data, the same on every run:
a record becomes a dict of its fields, a Fraction ``[num, den]``, a set a
sorted list, a tuple a list, and a dict key a string. Anything else (int,
bool, str, float, None) passes through. ``dumps`` writes that data as JSON
text with sorted keys. The ``*_from_obj`` readers take such data back
through the validating type constructors, so round trips are stable, and
refuse any key they do not read, any repeated edge, loop or arc, and any set
that lists a member twice. The form is always 0-based.

Only the stages that read or write an object import this module; a stage
that reads and writes only text does not compile it.
"""

from __future__ import annotations

import json
import sys
from typing import Any

from ._graph import Coloring, Digraph, Graph
from ._record import Record
from .errors import ParseError


def to_obj(value: Any) -> Any:
    """The JSON-ready form of value, by the rules above."""
    if isinstance(value, Record):
        return {f: to_obj(getattr(value, f)) for f in value._fields}
    fractions = sys.modules.get("fractions")  # a Fraction implies its module is loaded
    if fractions and isinstance(value, fractions.Fraction):
        return [value.numerator, value.denominator]
    if isinstance(value, dict):
        return {str(k): to_obj(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_obj(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return sorted(to_obj(v) for v in value)
    return value


def dumps(value: Any, indent: int | None = None) -> str:
    """The JSON text of ``to_obj(value)``, with sorted keys."""
    return json.dumps(to_obj(value), sort_keys=True, indent=indent)


def _fields(obj: Any, *keys: str) -> dict:
    """obj, refused unless it is a JSON object with no key outside ``keys``."""
    if not isinstance(obj, dict):
        raise ParseError(None, f"expected a JSON object, got {type(obj).__name__}")
    for key in obj:
        if key not in keys:
            raise ParseError(None, f"unknown key {key!r}")
    return obj


def _key(obj: dict, key: str, default: Any = ...) -> Any:
    """``obj[key]``, or ``default`` when given and the key is absent."""
    if key in obj:
        return obj[key]
    if default is ...:
        raise ParseError(None, f"missing key {key!r}")
    return default


def _int(value: Any, where: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ParseError(None, f"{where} must be an integer, got {value!r}")
    return value


def _ints(value: Any, where: str, length: int | None = None) -> tuple[int, ...]:
    """A list of integers, of exactly ``length`` entries when that is given."""
    if not isinstance(value, list) or length not in (None, len(value)):
        shape = "a list" if length is None else f"a list of {length} integers"
        raise ParseError(None, f"{where} must be {shape}, got {value!r}")
    return tuple(_int(x, f"{where}[{i}]") for i, x in enumerate(value))


def _rows(obj: dict, key: str, length: int | None = None, default: Any = ...) -> list:
    """``obj[key]`` read as a list of integer lists."""
    value = _key(obj, key, default)
    if not isinstance(value, list):
        raise ParseError(None, f"{key} must be a list, got {type(value).__name__}")
    return [_ints(row, f"{key}[{i}]", length) for i, row in enumerate(value)]


def _distinct(items: Any, where: str, key: Any) -> Any:
    """items, refused if two of them have equal keys."""
    first: dict = {}
    for i, item in enumerate(items):
        j = first.setdefault(key(item), i)
        if j != i:
            raise ParseError(None, f"{where}[{i}] repeats {where}[{j}]")
    return items


def _sets(obj: dict) -> tuple[frozenset[int], ...]:
    """``obj["sets"]`` read as a list of integer sets, none listing a member twice."""
    rows = _rows(obj, "sets")
    return tuple(frozenset(_distinct(s, f"sets[{i}]", int)) for i, s in enumerate(rows))


def graph_from_obj(obj: Any) -> Graph:
    obj = _fields(obj, "n", "edges", "loops")
    return Graph.from_edges(
        _int(_key(obj, "n"), "n"),
        _distinct(_rows(obj, "edges", 2, []), "edges", frozenset),  # an edge is unordered
        _distinct(_ints(_key(obj, "loops", []), "loops"), "loops", int),
    )


def digraph_from_obj(obj: Any) -> Digraph:
    obj = _fields(obj, "n", "arcs")
    return Digraph.from_arcs(
        _int(_key(obj, "n"), "n"), _distinct(_rows(obj, "arcs", 2, []), "arcs", tuple)
    )


def coloring_from_obj(obj: Any) -> Coloring:
    obj = _fields(obj, "colors", "k")
    return Coloring(_ints(_key(obj, "colors"), "colors"), _int(_key(obj, "k"), "k"))


def set_coloring_from_obj(obj: Any):
    from .arcshift import SetColoring

    obj = _fields(obj, "sets", "k")
    return SetColoring(_sets(obj), _int(_key(obj, "k"), "k"))


def fractional_coloring_from_obj(obj: Any):
    from fractions import Fraction

    from .fractional import FractionalColoring

    obj = _fields(obj, "sets", "weights", "generators")
    sets = _sets(obj)
    weights = _rows(obj, "weights", 2)
    for i, (_, den) in enumerate(weights):
        if den == 0:
            raise ParseError(None, f"weights[{i}] has denominator 0")
    generators = _rows(obj, "generators", None, [])
    for i, p in enumerate(generators):
        if sorted(p) != list(range(len(generators[0]))):
            raise ParseError(
                None,
                f"generators[{i}] must be a permutation of 0..{len(generators[0]) - 1}, got {list(p)}",
            )
    return FractionalColoring(
        sets, tuple(Fraction(num, den) for num, den in weights), tuple(generators)
    )
