"""Dense univariate polynomials with exact rational coefficients.

A polynomial is a tuple of Fractions, low degree first, with no trailing
zeros; the zero polynomial is the empty tuple.  Degrees stay tiny here
(everything downstream is degree <= 5), so no sparse tricks.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Tuple

Poly = Tuple[Fraction, ...]

ZERO: Poly = ()


def poly(coeffs: Iterable) -> Poly:
    """Build a normalized polynomial from low-to-high coefficients."""
    out = [Fraction(c) for c in coeffs]
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def degree(p: Poly) -> int:
    """Degree, with degree(0) = -1."""
    return len(p) - 1


def add(p: Poly, q: Poly) -> Poly:
    if len(p) < len(q):
        p, q = q, p
    out = list(p)
    for i, c in enumerate(q):
        out[i] += c
    return poly(out)


def neg(p: Poly) -> Poly:
    return tuple(-c for c in p)


def sub(p: Poly, q: Poly) -> Poly:
    return add(p, neg(q))


def mul(p: Poly, q: Poly) -> Poly:
    if not p or not q:
        return ZERO
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return poly(out)


def evaluate(p: Poly, x) -> Fraction:
    """Exact Horner evaluation at a rational point."""
    x = Fraction(x)
    acc = Fraction(0)
    for c in reversed(p):
        acc = acc * x + c
    return acc


def leading(p: Poly) -> Fraction:
    """Leading coefficient; 0 for the zero polynomial."""
    return p[-1] if p else Fraction(0)


def sign_at_infinity(p: Poly) -> int:
    """Sign of p(m) for m -> +infinity: the sign of the leading coefficient."""
    lead = leading(p)
    return (lead > 0) - (lead < 0)
