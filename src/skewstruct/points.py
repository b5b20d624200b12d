"""Eigenvalue points: exact rationals, opaque symbolic tags, and infinity.

A finite eigenvalue is normally an exact `Fraction`. A `SymbolicPoint` is an
opaque tag standing for "some fixed complex number, distinct from every other
point in play" -- used by the degeneration search to create fresh eigenvalues
without committing to concrete values, and by tests to avoid accidental
collisions. `INFINITY` tags the eigenvalue at infinity where a unified
treatment is convenient.
"""

import re
from dataclasses import dataclass
from fractions import Fraction

_RATIONAL = re.compile(r"-?[0-9]+(?:/[0-9]+)?")


@dataclass(frozen=True)
class SymbolicPoint:
    name: str

    def sort_key(self):
        return (2, self.name)

    def __str__(self):
        return f"@{self.name}"


class _Infinity:
    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "INFINITY"

    def __str__(self):
        return "inf"


INFINITY = _Infinity()


@dataclass(frozen=True)
class NumericRoot:
    """Floating eigenvalue annotation produced by the numeric backend."""

    real: float
    imag: float = 0.0

    def sort_key(self):
        return (3, self.real, self.imag)

    def __str__(self):
        return f"root({self.real:+.10g}{self.imag:+.10g}j)"


def as_eigenvalue(value):
    """An exact eigenvalue: INFINITY, a SymbolicPoint or Fraction as given, an int as a Fraction.

    Anything else, such as a float, a bool or a string, raises TypeError.
    """
    if value is INFINITY or isinstance(value, (SymbolicPoint, Fraction)):
        return value
    if type(value) is int:  # not isinstance: True is an int
        return Fraction(value)
    raise TypeError(f"not an exact eigenvalue: {value!r}")


def eigenvalue_sort_key(value):
    if isinstance(value, Fraction):
        return (0, value.numerator, value.denominator)
    return value.sort_key()


def format_eigenvalue(value) -> str:
    return format_rational(value) if isinstance(value, Fraction) else str(value)


def format_rational(value: Fraction) -> str:
    """"num/den" in lowest terms, the text `rational_parts` reads."""
    return f"{value.numerator}/{value.denominator}"


def rational_parts(text: str) -> tuple:
    """(num, den) of "num" or "num/den" as written, not reduced, with den 1 if absent.

    Both are ASCII digits, num with an optional leading minus, and den is
    nonzero. Anything else, such as spaces, "+", "_" digit separators, a
    sign on the denominator or an empty part, raises ValueError.
    """
    if not _RATIONAL.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}")
    num, _, den = text.partition("/")
    den = int(den) if den else 1
    if not den:
        raise ValueError(f"zero denominator in {text!r}")
    return int(num), den


def parse_rational(text: str) -> Fraction:
    """Read "num" or "num/den" (`rational_parts`) as a Fraction."""
    return Fraction(*rational_parts(text))


def parse_eigenvalue(text: str):
    if text == "inf":
        return INFINITY
    if text.startswith("@"):
        return SymbolicPoint(text[1:])
    return parse_rational(text)
