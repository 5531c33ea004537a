"""Seeded random generators shared by the comparator tests and the acceptance suite,
and a pointwise central charge as their oracle for the comparator."""

from __future__ import annotations

import random
from fractions import Fraction

from limitstab.charge import (
    ChernCharacter,
    ch_of_pair,
    ch_of_points,
    ch_of_sheaf,
    twisted_invariants,
    untwisted_slope,
)
from limitstab.geometry import CurveClass, NumericalThreefold


def central_charge(model: NumericalThreefold, ch: ChernCharacter, k, m):
    """(re, im) of Z(m) = (-v3 + w1 m^2/2) + i (w2 m - omega^3 v0 m^3/6)."""
    t = twisted_invariants(model, ch, k)
    return -t.v3 + t.w1 * m * m / 2, t.w2 * m - model.omega_cubed * t.v0 * m**3 / 6


def cross_value(model: NumericalThreefold, ch_f: ChernCharacter, ch_e: ChernCharacter, k, m):
    """W(m) = re_F im_E - im_F re_E, positive for large m iff F precedes E."""
    re_f, im_f = central_charge(model, ch_f, k, m)
    re_e, im_e = central_charge(model, ch_e, k, m)
    return re_f * im_e - im_f * re_e


def random_model(rng: random.Random) -> NumericalThreefold:
    rank = rng.choice((1, 2))
    basis = tuple((f"C{i+1}", Fraction(rng.randint(1, 5))) for i in range(rank))
    return NumericalThreefold(
        basis=basis,
        omega_cubed=Fraction(rng.randint(1, 12)),
        c2_omega=Fraction(rng.randint(-6, 6)),
    )


def random_sheaf(model: NumericalThreefold, rng: random.Random) -> ChernCharacter:
    while True:
        coeffs = tuple(rng.randint(0, 3) for _ in range(model.rank))
        if any(coeffs):
            return ch_of_sheaf(CurveClass(coeffs), rng.randint(-20, 20))


def random_pair(model: NumericalThreefold, rng: random.Random) -> ChernCharacter:
    beta = CurveClass(tuple(rng.randint(0, 3) for _ in range(model.rank)))
    return ch_of_pair(beta, rng.randint(-20, 20))


def random_k(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-24, 24), rng.randint(1, 12))


def comparator_case(rng: random.Random):
    """One (model, F, E, k) case: F sheaf- or point-type, E pair-type.

    A quarter of the sheaf cases sit k exactly on the threshold -mu0(F)/2 so
    the tie-break branch gets real coverage.
    """
    model = random_model(rng)
    if rng.random() < 0.15:
        ch_f = ch_of_points(model.rank, rng.randint(1, 20))
    else:
        ch_f = random_sheaf(model, rng)
    ch_e = random_pair(model, rng)
    if ch_f.r == 0 and any(g != 0 for g in ch_f.gamma) and rng.random() < 0.25:
        k = -untwisted_slope(model, ch_f) / 2
    else:
        k = random_k(rng)
    return model, ch_f, ch_e, k


def random_in_scope_class(model: NumericalThreefold, rng: random.Random) -> ChernCharacter:
    """A nonzero class generated from the in-scope shapes with small multiplicities."""
    roll = rng.random()
    if roll < 0.25:
        return ch_of_points(model.rank, rng.randint(1, 20))
    if roll < 0.55:
        return random_sheaf(model, rng)
    if roll < 0.85:
        return random_pair(model, rng)
    # nonnegative-integer combination of generators
    total = None
    for _ in range(rng.randint(2, 4)):
        piece = random_in_scope_class(model, rng)
        total = piece if total is None else total + piece
    if total.is_zero():  # pragma: no cover - summands cannot cancel to zero
        return ch_of_points(model.rank, 1)
    return total
