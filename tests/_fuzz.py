"""Seeded random generators shared by the comparator tests and the acceptance suite,
a pointwise central charge as their oracle for the comparator, and a graded-ring
expansion of the twisted scalars that shares no code with ``charge``."""

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


# ---------------------------------------------------------------------------
# independent oracle: multiply out exp(-k*omega) * ch * sqrt_td in the graded
# ring H^0 + H^2 + H^4 + H^6, where H^2 = x*omega and H^4 is spanned by the
# curve lattice, omega^2 and the second Chern class.
# ---------------------------------------------------------------------------


def _degree(X: NumericalThreefold, gamma) -> Fraction:
    return sum((Fraction(g) * d for g, (_, d) in zip(gamma, X.basis)), Fraction(0))


class Graded:
    def __init__(self, a, x, gamma, y, t, z):
        self.a, self.x, self.gamma, self.y, self.t, self.z = a, x, gamma, y, t, z

    def mul(self, other, X):
        w3, c2w = X.omega_cubed, X.c2_omega
        a = self.a * other.a
        x = self.a * other.x + self.x * other.a
        gamma = tuple(
            self.a * g2 + other.a * g1 for g1, g2 in zip(self.gamma, other.gamma)
        )
        y = self.a * other.y + other.a * self.y + self.x * other.x
        t = self.a * other.t + other.a * self.t
        z = (
            self.a * other.z
            + other.a * self.z
            + self.x * (_degree(X, other.gamma) + other.y * w3 + other.t * c2w)
            + other.x * (_degree(X, self.gamma) + self.y * w3 + self.t * c2w)
        )
        return Graded(a, x, gamma, y, t, z)


def oracle_invariants(X: NumericalThreefold, ch: ChernCharacter, k):
    """(v0, w1, w2, v3) of ch twisted by k, read off the graded product."""
    k = Fraction(k)
    zero = (Fraction(0),) * X.rank
    exp = Graded(Fraction(1), -k, zero, k * k / 2, Fraction(0), -(k**3) * X.omega_cubed / 6)
    chern = Graded(ch.r, ch.c, ch.gamma, Fraction(0), Fraction(0), ch.n)
    sqrt_td = Graded(Fraction(1), Fraction(0), zero, Fraction(0), Fraction(1, 24), Fraction(0))
    v = exp.mul(chern, X).mul(sqrt_td, X)
    w2 = _degree(X, v.gamma) + v.y * X.omega_cubed + v.t * X.c2_omega
    return v.a, v.x * X.omega_cubed, w2, v.z


def _poly_mul(p, q):
    out = {}
    for i, a in p.items():
        for j, b in q.items():
            out[i + j] = out.get(i + j, 0) + a * b
    return out


def _oracle_charge(X: NumericalThreefold, ch: ChernCharacter, k):
    """(re, im) of Z as {power of m: coefficient}, from ``oracle_invariants``."""
    v0, w1, w2, v3 = oracle_invariants(X, ch, k)
    return {0: -v3, 2: w1 / 2}, {1: w2, 3: -X.omega_cubed * v0 / 6}


def oracle_cross_leading_term(X: NumericalThreefold, ch_f: ChernCharacter, ch_e: ChernCharacter, k):
    """(degree, leading coefficient) of W = re_F im_E - im_F re_E, multiplied out
    from the graded oracle; (-1, 0) when W = 0."""
    re_f, im_f = _oracle_charge(X, ch_f, k)
    re_e, im_e = _oracle_charge(X, ch_e, k)
    w = _poly_mul(re_f, im_e)
    for d, c in _poly_mul(im_f, re_e).items():
        w[d] = w.get(d, 0) - c
    return max(((d, c) for d, c in w.items() if c), default=(-1, 0))


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
