"""Wall positions and chamber decomposition on the twist line.

The stability parameter is the real twist k; a class beta determines the
discrete wall set

    S(beta) = { m / (2 * deg(gamma)) : m integer, gamma nonzero, effective,
                deg(gamma) <= deg(beta) }.

Between consecutive walls the counting invariants are constant.  Walls are
geometric: a wall is kept even when no admissible crossing datum lives on it
(the crossing module then reports a zero jump).

``mu_threshold`` is the largest slope a destabilizing sheaf can carry:

    mu(beta, n) = max over beta1 + beta2 = beta, beta1 != 0, of
                  (n - m(beta2)) / deg(beta1),

with m(0) = 0, so the splitting (beta, 0) is always admissible.  Its half
bounds the stable-pair chamber: the table equals the stable-pair count for
k < -mu(beta, n)/2 and the dual count for k > mu(beta, -n)/2.

Caveat for the doubled-curve geometry: the defining maximum gives
mu(2[C], -3) = -3/(2d), while the same chambers are often stated via the
coarser sufficient bound -2/d.  Both sit below the first actual wall; the
engine always returns the defining value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import ModelDataError
from .geometry import (
    CurveClass,
    NumericalThreefold,
    decompositions,
    degree,
    effective_below,
    min_ch3,
)


@dataclass(frozen=True)
class WallSet:
    beta: CurveClass
    interval: Tuple[Fraction, Fraction]
    walls: Tuple[Fraction, ...]


@dataclass(frozen=True)
class Chamber:
    """Open interval between consecutive walls; None marks an unbounded end."""

    lo: Optional[Fraction]
    hi: Optional[Fraction]

    def contains(self, k: Fraction) -> bool:
        return (self.lo is None or k > self.lo) and (self.hi is None or k < self.hi)

    def __str__(self) -> str:
        lo = "-inf" if self.lo is None else str(self.lo)
        hi = "+inf" if self.hi is None else str(self.hi)
        return f"({lo}, {hi})"


def _wall_degrees(model: NumericalThreefold, beta: CurveClass) -> List[Fraction]:
    degs = sorted(
        {degree(model, g) for g in effective_below(model, beta) if not g.is_zero()}
    )
    return degs


def wall_set(
    model: NumericalThreefold, beta: CurveClass, k_lo, k_hi
) -> WallSet:
    """All walls of S(beta) inside [k_lo, k_hi], deduplicated and sorted."""
    k_lo, k_hi = Fraction(k_lo), Fraction(k_hi)
    if not k_lo < k_hi:
        raise ValueError(f"empty interval [{k_lo}, {k_hi}]")
    if beta.is_zero():
        raise ValueError("wall set needs a nonzero class")
    walls = set()
    for d in _wall_degrees(model, beta):
        step = 2 * d  # walls are m / (2d)
        m_lo = math.ceil(k_lo * step)
        m_hi = math.floor(k_hi * step)
        for m in range(m_lo, m_hi + 1):
            walls.add(Fraction(m, 1) / step)
    return WallSet(beta, (k_lo, k_hi), tuple(sorted(walls)))


def next_wall_above(model: NumericalThreefold, beta: CurveClass, k) -> Fraction:
    """Smallest wall of S(beta) strictly greater than k."""
    k = Fraction(k)
    candidates = []
    for d in _wall_degrees(model, beta):
        step = 2 * d
        m = math.floor(k * step) + 1  # smallest integer with m/step > k
        candidates.append(Fraction(m, 1) / step)
    return min(candidates)


def is_wall(model: NumericalThreefold, beta: CurveClass, k) -> bool:
    k = Fraction(k)
    return any((2 * d * k).denominator == 1 for d in _wall_degrees(model, beta))


def mu_threshold(model: NumericalThreefold, beta: CurveClass, n) -> Fraction:
    """max over splittings of (n - m(beta2)) / deg(beta1); finite by construction."""
    if beta.is_zero():
        raise ValueError("mu threshold needs a nonzero class")
    n = Fraction(n)
    best = None
    for beta1, beta2 in decompositions(model, beta):
        value = (n - min_ch3(model, beta2)) / degree(model, beta1)
        if best is None or value > best:
            best = value
    assert best is not None
    return best


def pt_bounds(
    model: NumericalThreefold, beta: CurveClass, n
) -> Tuple[Fraction, Fraction]:
    """(k_pt, k_dual): the table is the pair count below k_pt, the dual count above k_dual."""
    k_pt = -mu_threshold(model, beta, n) / 2
    k_dual = mu_threshold(model, beta, -Fraction(n)) / 2
    return k_pt, k_dual


def chambers(
    model: NumericalThreefold, beta: CurveClass, k_lo, k_hi
) -> List[Chamber]:
    """Open intervals between consecutive walls, clipped to [k_lo, k_hi]."""
    ws = wall_set(model, beta, k_lo, k_hi)
    k_lo, k_hi = ws.interval
    points = list(ws.walls)
    if not points or points[0] != k_lo:
        points.insert(0, k_lo)
    if points[-1] != k_hi:
        points.append(k_hi)
    return [Chamber(a, b) for a, b in zip(points, points[1:])]
