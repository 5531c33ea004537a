"""Wall positions and chamber decomposition on the twist line.

The stability parameter is the real twist k; a class beta determines the
discrete wall set

    S(beta) = { m / (2 * deg(gamma)) : m integer, gamma nonzero, effective,
                deg(gamma) <= deg(beta) }.

Between consecutive walls the counting invariants are constant.  Walls are
geometric: a wall is kept even when no admissible crossing datum lives on it
(the crossing module then reports a zero jump).

The walls of one class sit on an integer grid.  With D the lcm of the
basis-degree denominators, every effective class has the integer degree
e = D * deg, and the wall m / (2 * deg) is j / G with G = lcm of the 2e over
the degrees e <= D * deg(beta) and j = m * D * G / (2e).  So the walls of
beta are the j / G whose j is a multiple of one of the steps D * G / (2e).
``_wall_ints`` merges those progressions over a window on ints, for
``wall_set``, ``is_wall`` and the crossing tables, and ``_next_above`` takes
the smallest next multiple.  A Fraction is made only for a wall returned.

``mu_threshold`` is the largest slope a destabilizing sheaf can carry:

    mu(beta, n) = max over beta1 + beta2 = beta, beta1 != 0, of
                  (n - m(beta2)) / deg(beta1),

with m(0) = 0, so the splitting (beta, 0) is always admissible; ``_max_slope``
takes it on ints for this module and the crossing cache alike.  Its half
bounds the stable-pair chamber: the table equals the stable-pair count for
k < -mu(beta, n)/2 and the dual count for k > mu(beta, -n)/2.

Caveat for the doubled-curve geometry: the defining maximum gives
mu(2[C], -3) = -3/(2d), while the same chambers are often stated via the
coarser sufficient bound -2/d.  Both sit below the first actual wall; the
engine always returns the defining value.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import List, NamedTuple, Tuple

from .errors import TableArgumentError, show
from .geometry import (
    CurveClass, NumericalThreefold, _scaled_degrees, _split_rows, check_effective, min_ch3
)


class WallSet(NamedTuple):
    beta: CurveClass
    interval: Tuple[Fraction, Fraction]
    walls: Tuple[Fraction, ...]


class Chamber(NamedTuple):
    """Open interval between consecutive walls."""

    lo: Fraction
    hi: Fraction

    def contains(self, k: Fraction) -> bool:
        return self.lo < k < self.hi

    def __str__(self) -> str:
        return f"({show(self.lo)}, {show(self.hi)})"


def _wall_grid(model: NumericalThreefold, beta: CurveClass) -> Tuple[int, Tuple[int, ...]]:
    """``_grid_of`` for beta; the zero class, which has no walls, is rejected after the checks."""
    check_effective(model, beta)
    if beta.is_zero():
        raise TableArgumentError("wall set needs a nonzero class")
    return _grid_of(*_scaled_degrees(model), beta.coeffs)


def _grid_of(scale: int, scaled: Tuple[int, ...], coeffs: Tuple[int, ...]):
    """(G, steps): the walls of the class with ``coeffs`` are the j/G with j a multiple of some
    step, one per distinct scaled degree e <= D*deg(beta) of a nonzero effective class, found
    by an int set walk over the cone; ``scale``, ``scaled`` are ``_scaled_degrees``' output."""
    bound = sum(c * e for c, e in zip(coeffs, scaled))
    reached = {0}
    for e in scaled:
        reached = {r + t for r in reached for t in range(0, bound - r + 1, e)}
    reached.discard(0)
    grid = math.lcm(*(2 * e for e in reached))
    return grid, tuple(scale * grid // (2 * e) for e in reached)


def _wall_ints(grid_steps: Tuple[int, Tuple[int, ...]], j_lo: int, j_hi: int) -> List[int]:
    """The j in [j_lo, j_hi], sorted, whose j/G is a wall of the class whose ``_wall_grid``
    is ``grid_steps`` = (G, steps)."""
    return sorted({j for s in grid_steps[1] for j in range(-(-j_lo // s) * s, j_hi + 1, s)})


def _walls_in(grid_steps: Tuple[int, Tuple[int, ...]], k_lo: Fraction, k_hi: Fraction):
    """The walls in [k_lo, k_hi] of the class whose ``_wall_grid`` is ``grid_steps``, sorted."""
    grid = grid_steps[0]
    j_lo = -(-k_lo.numerator * grid // k_lo.denominator)  # ceil(k_lo * grid)
    j_hi = k_hi.numerator * grid // k_hi.denominator
    return tuple(Fraction(j, grid) for j in _wall_ints(grid_steps, j_lo, j_hi))


def _next_above(grid_steps: Tuple[int, Tuple[int, ...]], k: Fraction) -> Fraction:
    """The smallest wall above k of the class whose ``_wall_grid`` is ``grid_steps``."""
    grid, steps = grid_steps
    j = k.numerator * grid // k.denominator  # floor(k * grid)
    return Fraction(min((j // s + 1) * s for s in steps), grid)


def wall_set(
    model: NumericalThreefold, beta: CurveClass, k_lo, k_hi
) -> WallSet:
    """All walls of S(beta) inside [k_lo, k_hi], deduplicated and sorted."""
    k_lo, k_hi = Fraction(k_lo), Fraction(k_hi)
    if not k_lo < k_hi:
        raise TableArgumentError(f"empty interval [{k_lo}, {k_hi}]")
    return WallSet(beta, (k_lo, k_hi), _walls_in(_wall_grid(model, beta), k_lo, k_hi))


def next_wall_above(model: NumericalThreefold, beta: CurveClass, k) -> Fraction:
    """Smallest wall of S(beta) strictly greater than k."""
    return _next_above(_wall_grid(model, beta), Fraction(k))


def is_wall(model: NumericalThreefold, beta: CurveClass, k) -> bool:
    k = Fraction(k)
    return bool(_walls_in(_wall_grid(model, beta), k, k))


def _max_slope(n, rows, m_of, scale: int) -> Tuple[int, int]:
    """mu as ints (top, bottom > 0): the max over the split ``rows`` (D * deg beta1, beta1, beta2)
    of (n - m(beta2)) / deg beta1, with ``m_of`` read in row order and D = ``scale``."""
    if not rows:  # the zero class has no split
        raise TableArgumentError("mu threshold needs a nonzero class")
    a, b = (n if type(n) is int else Fraction(n)).as_integer_ratio()
    top, bottom = -1, 0  # minus infinity, below every term
    for e1, _, b2 in rows:  # (n - m) / deg beta1 = (a/b - c/e) * scale / e1
        c, e = m_of(b2).as_integer_ratio()
        num, den = (a * e - c * b) * scale, b * e * e1
        if num * bottom > top * den:  # den > 0 and bottom >= 0, so this is num/den > top/bottom
            top, bottom = num, den
    return top, bottom


def mu_threshold(model: NumericalThreefold, beta: CurveClass, n) -> Fraction:
    """max over splittings of (n - m(beta2)) / deg(beta1); finite by construction."""
    check_effective(model, beta)
    scale, scaled = _scaled_degrees(model)
    # min_ch3 runs in split order, so the first class without m data is the one named
    m_of = lambda beta2: min_ch3(model, beta2)
    return Fraction(*_max_slope(n, _split_rows(scaled, beta.coeffs), m_of, scale))


def pt_bounds(
    model: NumericalThreefold, beta: CurveClass, n
) -> Tuple[Fraction, Fraction]:
    """(k_pt, k_dual): the table is the pair count below k_pt, the dual count above k_dual."""
    k_pt = -mu_threshold(model, beta, n) / 2
    k_dual = mu_threshold(model, beta, -Fraction(n)) / 2
    return k_pt, k_dual
