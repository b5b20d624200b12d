"""On-disk JSON formats: polynomial files, block lists, reports.

A polynomial file holds an m x m skew-symmetric matrix polynomial as
grade+1 coefficient matrices, lowest degree first, with every entry an
exact rational written "num/den" (strictly: ASCII digits with an optional
leading minus, optionally "/" and a nonzero digit string; see
`points.rational_parts`). Skew-symmetry is validated on load and malformed
rationals are rejected: the reader checks and parses each distinct entry
text once, in file order, so the first malformed entry names the error
whatever repeats. Writing is canonical (sorted keys, fixed indentation), so
read-then-write is byte-identical.
"""

from __future__ import annotations

import json
import math

from .errors import SkewstructError
from .exact import SkewMatrixPolynomial
from .points import format_rational, rational_parts


class FileFormatError(SkewstructError, ValueError):
    """Raised when an input file does not match its documented schema."""


def json_rational_parts(text) -> tuple:
    """(num, den) of a strict "num/den" string (`points.rational_parts`); FileFormatError otherwise."""
    if not isinstance(text, str):
        raise FileFormatError(f"rational entries must be strings, got {text!r}")
    try:
        return rational_parts(text)
    except ValueError as exc:
        raise FileFormatError(f"malformed rational {text!r}") from exc


def polynomial_to_dict(P: SkewMatrixPolynomial) -> dict:
    return {
        "m": P.rows,
        "grade": P.grade,
        "coefficients": [
            [[format_rational(v) for v in row] for row in P.coefficient_matrix(k)]
            for k in range(P.grade + 1)
        ],
    }


def polynomial_from_dict(data: dict) -> SkewMatrixPolynomial:
    try:
        m, grade, raw = data["m"], data["grade"], data["coefficients"]
    except (KeyError, TypeError) as exc:
        raise FileFormatError(f"missing or malformed field: {exc}") from exc
    for name, value in (("m", m), ("grade", grade)):
        # a JSON integer: int() would truncate 0.5 and take true for 1
        if type(value) is not int:
            raise FileFormatError(f"{name} must be an integer, got {value!r}")
        if value < 0:
            raise FileFormatError(f"{name} must be nonnegative, got {value}")
    if not isinstance(raw, list) or len(raw) != grade + 1:
        raise FileFormatError(f"expected a list of {grade + 1} coefficient matrices")
    parsed: dict = {}  # entry text -> (num, den): each distinct text is checked and parsed once
    for mat in raw:
        if not (
            isinstance(mat, list)
            and len(mat) == m
            and all(isinstance(row, list) and len(row) == m for row in mat)
        ):
            raise FileFormatError(f"coefficient matrices must be {m} x {m} lists")
        for row in mat:
            for text in row:
                # only a str is looked up: a list entry is unhashable, and any
                # entry that is not a str raises in json_rational_parts
                if not isinstance(text, str) or text not in parsed:
                    parsed[text] = json_rational_parts(text)
    # integers over the entries' common denominator, which the constructor
    # reduces to lowest terms: no Fraction per entry
    den = math.lcm(*(d for _, d in parsed.values()))
    scaled = {text: n * (den // d) for text, (n, d) in parsed.items()}
    numerators = [[[scaled[text] for text in row] for row in mat] for mat in raw]
    return SkewMatrixPolynomial._from_integers(m, m, grade, numerators, den)


def dump_json(data: dict) -> str:
    """Canonical JSON serialization used by every writer."""
    return json.dumps(data, indent=2, sort_keys=True) + "\n"


def write_polynomial(P: SkewMatrixPolynomial, path: str):
    with open(path, "w") as fh:
        fh.write(dump_json(polynomial_to_dict(P)))


def read_json(path: str):
    """Parse a JSON input file; anything unreadable is a FileFormatError."""
    with open(path) as fh:
        try:
            return json.load(fh)
        except (ValueError, RecursionError) as exc:
            # ValueError covers bad syntax, bytes that are not UTF-8 and
            # integers past the interpreter's digit limit; RecursionError
            # is nesting deeper than the decoder can follow
            raise FileFormatError(f"not valid JSON: {exc}") from exc


def read_polynomial(path: str) -> SkewMatrixPolynomial:
    return polynomial_from_dict(read_json(path))
