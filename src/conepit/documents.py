"""JSON codecs for polynomial-valued CLI documents.

All scalars travel as decimal strings (``"3"``, ``"-3/4"``) or JSON ints,
so rational values stay exact; a float or a bool is refused.  Formats:

* polynomial: ``{"field", "arity", "terms": [{"exp": [..], "coef": ".."}]}``
* vector polynomial: ``{"field", "arity", "dim",
  "terms": [{"exp": [..], "coef": ["..", ..]}]}``
* monomial set: ``{"arity", "vectors": [[..], ..]}``
* product terms (for the power rewriter): ``{"field", "arity",
  "terms": [[poly-terms, poly-terms, ..], ..]}`` where each inner entry is
  the term array of one factor.
"""

from __future__ import annotations

import json
from typing import Any, Callable, TypeVar

from .errors import ParseError
from .fields import Field
from .polys import ExpVec, MultiPoly, VectorPoly

T = TypeVar("T")


def load_document(text: str, build: Callable[[Any], T]) -> T:
    """Parse JSON text and build an object from the document.  Malformed
    input of any shape (bad JSON, a missing key, a value of the wrong type
    or form) raises :class:`ParseError`; the package's own errors pass
    through unchanged."""
    try:
        return build(json.loads(text))
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno} column {exc.colno}: {exc.msg}") from exc
    except KeyError as exc:
        raise ParseError(f"missing key {exc.args[0]!r}") from exc
    except (TypeError, ValueError) as exc:
        raise ParseError(f"malformed document: {exc}") from exc


def natural(value: Any, what: str) -> int:
    """A JSON integer >= 0, else :class:`ParseError`: no float, no bool and
    no string is read as one."""
    if type(value) is not int or value < 0:
        raise ParseError(f"{what} must be a natural number, got {json.dumps(value)}")
    return value


def scalar(value: Any, what: str) -> int | str:
    """A JSON integer (not a bool) or a decimal string, as it is, for
    ``Field.of`` to read; else :class:`ParseError`: no float is read."""
    if type(value) not in (int, str):
        raise ParseError(f"{what} must be a decimal string or an integer, got {json.dumps(value)}")
    return value


def scalar_list(value: Any, what: str) -> list[int | str]:
    return [scalar(x, what) for x in json_list(value, what)]


def json_list(value: Any, what: str) -> list:
    """A JSON array, else :class:`ParseError`."""
    if type(value) is not list:
        raise ParseError(f"{what} must be a list, got {json.dumps(value)}")
    return value


def exponent_vector(value: Any) -> ExpVec:
    return tuple(natural(x, "exponent") for x in json_list(value, "exponent vector"))


def multipoly_to_obj(p: MultiPoly) -> dict:
    return {
        "field": p.field.spec,
        "arity": p.arity,
        "terms": [{"exp": list(e), "coef": p.field.render(p.terms[e])} for e in p.support()],
    }


def _poly_from_parts(field: Field, arity: int, rows) -> MultiPoly:
    items = []
    for row in json_list(rows, "terms"):
        try:
            items.append((exponent_vector(row["exp"]), scalar(row["coef"], "coef")))
        except KeyError as exc:
            raise ParseError(f"term missing key {exc.args[0]!r}") from exc
    return MultiPoly.make(field, arity, items)


def multipoly_from_json(text: str) -> MultiPoly:
    return load_document(
        text, lambda doc: _poly_from_parts(Field.from_spec(doc["field"]), natural(doc["arity"], "arity"), doc["terms"])
    )


def vectorpoly_to_json(f: VectorPoly) -> str:
    doc = {
        "field": f.field.spec,
        "arity": f.arity,
        "dim": f.dim,
        "terms": [
            {"exp": list(e), "coef": [f.field.render(x) for x in f.terms[e]]} for e in f.support()
        ],
    }
    return json.dumps(doc, separators=(", ", ": "))


def vectorpoly_from_json(text: str) -> VectorPoly:
    def build(doc) -> VectorPoly:
        field = Field.from_spec(doc["field"])
        arity = natural(doc["arity"], "arity")
        dim = natural(doc["dim"], "dim")
        rows = json_list(doc["terms"], "terms")
        items = [(exponent_vector(row["exp"]), scalar_list(row["coef"], "coef")) for row in rows]
        return VectorPoly.make(field, arity, dim, items)

    return load_document(text, build)


def monomial_set_from_json(text: str) -> tuple[int, list[ExpVec]]:
    def build(doc) -> tuple[int, list[ExpVec]]:
        arity = natural(doc["arity"], "arity")
        vectors = [exponent_vector(row) for row in json_list(doc["vectors"], "vectors")]
        for v in vectors:
            if len(v) != arity:
                raise ParseError(f"vector {v} does not have arity {arity}")
        return arity, vectors

    return load_document(text, build)


def product_terms_from_json(text: str) -> list[list[MultiPoly]]:
    def build(doc) -> list[list[MultiPoly]]:
        field = Field.from_spec(doc["field"])
        arity = natural(doc["arity"], "arity")
        groups = json_list(doc["terms"], "terms")
        return [[_poly_from_parts(field, arity, factor) for factor in json_list(group, "group")] for group in groups]

    return load_document(text, build)
