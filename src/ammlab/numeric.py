"""Shared numeric helpers: the number types, square roots with
exactness control, and numeric literals read from outside the program.

Amounts in this package are either ``fractions.Fraction`` (the exact
reference arithmetic) or ``float`` (the fast path).  Square roots are the
one place where exact arithmetic leaks: a rational has an exact rational
square root only when numerator and denominator are perfect squares.
``sqrt_bounds`` returns a rigorous enclosure so callers can keep strict
comparisons sound even when the root is irrational.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence, Tuple, Union

Num = Union[int, float, Fraction]


def sqrt_bounds(value, bits: int = 128) -> Tuple[Fraction, Fraction]:
    """Rational enclosure ``lo <= sqrt(value) <= hi`` with ``hi - lo <= lo * 2**-bits``-ish.

    ``lo == hi`` exactly when ``value`` is the square of a rational, so the
    enclosure doubles as a perfect-square test.
    """
    q = Fraction(value)
    if q < 0:
        raise ValueError("square root of a negative quantity")
    num, den = q.numerator, q.denominator
    # sqrt(num/den) = sqrt(num*den)/den; scale by 4**bits before isqrt.
    scaled = num * den << (2 * bits)
    root = math.isqrt(scaled)
    denom = den << bits
    if root * root == scaled:
        exact = Fraction(root, denom)
        return exact, exact
    return Fraction(root, denom), Fraction(root + 1, denom)


def sqrt_any(value: Num):
    """Square root preserving the caller's arithmetic flavor.

    Floats go through ``math.sqrt``; exact inputs get a Fraction that is
    exact for perfect squares and within ``2**-96`` relative otherwise.
    """
    if isinstance(value, float):
        return math.sqrt(value)
    lo, hi = sqrt_bounds(value, bits=96)
    return (lo + hi) / 2


#: Longest numeric field, and largest decimal exponent, a log may hold.  The
#: work and memory a literal costs grow with both: ``1e1000000`` would parse
#: into an integer of 3.3 million bits.
MAX_LITERAL_CHARS = 100
MAX_LITERAL_EXPONENT = 100


def _oversized_literal(fields: Sequence[str]) -> bool:
    for text in fields:
        if len(text) > MAX_LITERAL_CHARS:
            return True
        _, mark, exponent = text.replace("E", "e").rpartition("e")
        if mark:
            try:
                if abs(int(exponent)) > MAX_LITERAL_EXPONENT:
                    return True
            except ValueError:
                pass  # not a number at all: Fraction rejects it below
    return False


def parse_number(text: str) -> Fraction:
    """A numeric literal given outside a log (a CLI flag, a scenario string)
    as a ``Fraction``.  Literals over the log's caps (so ``1e999999999`` is
    not expanded) and zero denominators are a ``DomainError``; other text
    raises ``Fraction``'s ``ValueError``."""
    from .core import DomainError  # core imports this module

    if _oversized_literal((text,)):
        raise DomainError(f"numeric literal longer than {MAX_LITERAL_CHARS} characters "
                          f"or with an exponent beyond {MAX_LITERAL_EXPONENT}")
    try:
        return Fraction(text)
    except ZeroDivisionError:
        raise DomainError(f"zero denominator in {text!r}") from None
