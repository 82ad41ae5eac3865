"""JSON multivector files.

Format (UTF-8 JSON object):

    {"dim": n, "grade": k, "dual": false,
     "terms": [{"indices": [i1, ..., ik], "coeff": "p/q"}, ...]}

The grade is at most the dim, in a file read or written: a zero of higher
grade (a wedge of more vectors than the dim) is refused both ways.  Indices
are 1-based and strictly increasing; a coefficient is a JSON integer or a
string holding an optionally signed integer or "p/q".  Duplicate index sets,
floats, zero denominators, and out-of-range indices are input errors that
name the offending term; a file that is not UTF-8 JSON is one too.
Emission normalizes: terms sorted by index tuple, coefficients in lowest
terms, integers emitted as JSON numbers.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction
from typing import Any, Iterator

from .multivector import Coeff, InputError, Multivector, _is_int

_COEFF_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def _parse_coeff(raw: Any, where: str) -> Coeff:
    if isinstance(raw, bool):
        raise InputError(f"{where}: coeff must be an integer or 'p/q' string")
    if isinstance(raw, int):
        return raw
    if isinstance(raw, str):
        if not _COEFF_RE.fullmatch(raw):
            raise InputError(f"{where}: malformed coefficient {raw!r}")
        try:
            return Fraction(raw)
        except ZeroDivisionError:
            raise InputError(f"{where}: zero denominator in {raw!r}") from None
        except ValueError as e:  # an integer past sys.get_int_max_str_digits()
            raise InputError(f"{where}: coefficient too long: {e}") from None
    raise InputError(f"{where}: coeff must be an integer or 'p/q' string, got {raw!r}")


def _term_pairs(raw_terms: list) -> Iterator[tuple[list[int], Coeff]]:
    """(indices, coeff) per JSON term; ``Multivector.from_terms`` checks them."""
    for pos, item in enumerate(raw_terms):
        if not isinstance(item, dict) or "indices" not in item or "coeff" not in item:
            raise InputError(f"term {pos}: expected {{'indices': [...], 'coeff': ...}}")
        idx = item["indices"]
        if not isinstance(idx, list) or not all(map(_is_int, idx)):
            raise InputError(f"term {pos}: indices must be a list of integers")
        yield idx, _parse_coeff(item["coeff"], f"term {pos} (indices {idx})")


def parse_multivector(obj: Any) -> Multivector:
    """Build a multivector from a decoded JSON object, validating everything."""
    if not isinstance(obj, dict):
        raise InputError(f"expected a JSON object, got {type(obj).__name__}")
    for field in ("dim", "grade"):
        if field not in obj:
            raise InputError(f"missing field {field!r}")
        if not _is_int(obj[field]):
            raise InputError(f"field {field!r} must be an integer")
    dual = obj.get("dual", False)
    if not isinstance(dual, bool):
        raise InputError("field 'dual' must be a boolean")
    raw_terms = obj.get("terms", [])
    if not isinstance(raw_terms, list):
        raise InputError("field 'terms' must be an array")
    m = Multivector.from_terms(obj["dim"], obj["grade"], _term_pairs(raw_terms), dual)
    return _within_dim(m)


def _within_dim(m: Multivector) -> Multivector:
    """``m``, if its grade is at most its dim: a file holds no other."""
    if m.grade > m.dim:
        raise InputError(f"field 'grade' ({m.grade}) exceeds field 'dim' ({m.dim})")
    return m


def emit_multivector(m: Multivector) -> dict:
    """JSON-ready dict for a multivector, in normalized form."""
    _within_dim(m)
    terms = []
    for idx, c in m.items():
        if isinstance(c, Fraction):
            coeff = int(c) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"
        else:
            coeff = c
        terms.append({"indices": list(idx), "coeff": coeff})
    return {"dim": m.dim, "grade": m.grade, "dual": m.dual, "terms": terms}


def _decode(text: str) -> Any:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as e:  # also: too many digits, deep nesting
        raise InputError(f"malformed JSON: {e}") from None


def _read(path: str) -> Any:
    """The decoded JSON content of the file at ``path``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return _decode(fh.read())
    except UnicodeDecodeError as e:
        raise InputError(f"{path} is not UTF-8 text: {e}") from None


def loads(text: str) -> Multivector:
    return parse_multivector(_decode(text))


def dumps(m: Multivector) -> str:
    return json.dumps(emit_multivector(m), indent=2)


def load(path: str) -> Multivector:
    return parse_multivector(_read(path))


def dump(m: Multivector, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(m) + "\n")


def load_family(path: str) -> list[Multivector]:
    """Parse a JSON array of multivector objects."""
    arr = _read(path)
    if not isinstance(arr, list):
        raise InputError("family file must hold a JSON array of multivectors")
    out = []
    for i, obj in enumerate(arr):
        try:
            out.append(parse_multivector(obj))
        except InputError as e:
            raise InputError(f"family entry {i}: {e}") from None
    return out
