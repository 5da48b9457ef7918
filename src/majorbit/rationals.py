"""Strict parsing and formatting of exact rationals.

Only integer and "p/q" literals are accepted; decimal strings are rejected
so that inputs are bit-exact reproducible. A literal is read into its
reduced (numerator, denominator) pair of ints, and a pair is printed back.
"""

import re
from fractions import Fraction
from math import gcd

from .errors import SchemaError, SizeLimit

_RATSTR = re.compile(r"-?[0-9]+(/[0-9]+)?\Z")


def _parse_pair(text) -> tuple[int, int]:
    if not isinstance(text, str) or not _RATSTR.match(text):
        raise SchemaError(f"not a valid rational literal: {text!r}")
    num, _, den = text.partition("/")
    try:
        num, den = int(num), int(den or 1)
    except ValueError as exc:  # longer than Python's int-string conversion limit
        raise SchemaError(f"rational literal too long: {exc}") from exc
    if den == 0:
        raise SchemaError(f"zero denominator: {text!r}")
    return num // (g := gcd(num, den)), den // g


def _reduced(num: int, den: int) -> tuple[int, int]:
    """The reduced pair of num/den, for den > 0."""
    return num // (g := gcd(num, den)), den // g


def parse_ratstr(text) -> Fraction:
    return Fraction(*_parse_pair(text))


def _format_pair(num: int, den: int) -> str:
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError as exc:  # longer than Python's int-string conversion limit
        raise SizeLimit(f"rational too long to print: {exc}") from exc


def format_ratstr(value: Fraction) -> str:
    value = value if type(value) is Fraction else Fraction(value)
    return _format_pair(value.numerator, value.denominator)


def _shown(value: Fraction) -> str:
    """format_ratstr(value) for an error message, or a note if too long to print."""
    try:
        return format_ratstr(value)
    except SizeLimit:
        return "a rational too long to print"
