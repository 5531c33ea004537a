"""Chern-character arithmetic and the twisted scalars of the central charge.

Classes are scalar-reduced: since the twist direction is locked to the ample
ray, a class is determined for our purposes by

    r      (rank / ch0),
    c      (the ample-ray coefficient of ch1, i.e. ch1 = c * omega),
    gamma  (ch2 as a rational curve vector over the model basis),
    n      (ch3, a number).

For the twist B = k * omega the square-root Todd correction of a Calabi-Yau
3-fold is (1, 0, c2/24, 0), so only the scalar c2_omega enters.  The four
scalars (v0, w1, w2, v3) below determine the central charge, a polynomial
in m, completely:

    Z(m) = (-v3 + w1 * m^2 / 2)  +  i * (w2 * m - omega^3 * v0 * m^3 / 6).

``comparator`` reads the phase order straight from these scalars; nothing
multiplies Z out.  Everything is exact rational.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple, Optional, Tuple

from .errors import TableArgumentError
from .geometry import CurveClass, NumericalThreefold, _as_fraction


class _ChernFields(NamedTuple):
    r: Fraction
    c: Fraction
    gamma: Tuple[Fraction, ...]
    n: Fraction


class ChernCharacter(_ChernFields):
    """Scalar-reduced class (ch0, ch1, ch2, ch3) = (r, c*omega, gamma, n)."""

    __slots__ = ()

    def __new__(cls, r, c, gamma, n) -> "ChernCharacter":
        """Each field a Fraction: a Fraction input is kept as given, any other converted."""
        return super().__new__(
            cls, _as_fraction(r), _as_fraction(c), tuple(map(_as_fraction, gamma)), _as_fraction(n)
        )

    def __add__(self, other: "ChernCharacter") -> "ChernCharacter":
        if len(self.gamma) != len(other.gamma):
            raise TableArgumentError("rank mismatch between Chern characters")
        return ChernCharacter(
            self.r + other.r,
            self.c + other.c,
            tuple(a + b for a, b in zip(self.gamma, other.gamma)),
            self.n + other.n,
        )

    def is_zero(self) -> bool:
        return (
            self.r == 0
            and self.c == 0
            and all(g == 0 for g in self.gamma)
            and self.n == 0
        )

    def __str__(self) -> str:
        """The 'r,c,(g1,...),n' form that ``limitstab compare`` reads."""
        gam = ",".join(str(g) for g in self.gamma)
        return f"{self.r},{self.c},({gam}),{self.n}"


class PointSlope:
    """Distinguished slope of a zero-dimensional class; above every rational."""

    _instance: Optional["PointSlope"] = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "PointSlope"

    def __gt__(self, other) -> bool:
        return not isinstance(other, PointSlope)

    def __lt__(self, other) -> bool:
        return False

    def __ge__(self, other) -> bool:
        return True

    def __le__(self, other) -> bool:
        return isinstance(other, PointSlope)


POINT_SLOPE = PointSlope()


def ch_of_pair(beta: CurveClass, n: int) -> ChernCharacter:
    """The class (-1, 0, beta, n) of a rank-(-1) pair-type object."""
    if not beta.is_effective():
        raise TableArgumentError(f"{beta} is not effective")
    return ChernCharacter(
        Fraction(-1), Fraction(0), tuple(Fraction(c) for c in beta.coeffs), Fraction(n)
    )


def ch_of_sheaf(gamma: CurveClass, n) -> ChernCharacter:
    """The class (0, 0, gamma, n) of a one-dimensional sheaf."""
    return ChernCharacter(
        Fraction(0), Fraction(0), tuple(Fraction(c) for c in gamma.coeffs), Fraction(n)
    )


def ch_of_points(rank: int, n) -> ChernCharacter:
    """The class (0, 0, 0, n) of a zero-dimensional sheaf, n > 0."""
    return ChernCharacter(Fraction(0), Fraction(0), (Fraction(0),) * rank, Fraction(n))


def shape(ch: ChernCharacter) -> Optional[str]:
    """Classify an in-scope class: 'pair', 'sheaf' or 'point'; None otherwise.

    'pair' covers the rank-(-1) shapes including the shifted structure sheaf
    (gamma = 0, n = 0).  'sheaf' needs a nonzero effective gamma, 'point'
    needs gamma = 0 and n > 0.  The zero class and anything else (e.g.
    two-dimensional shifts) are out of scope and classify as None.
    """
    if ch.r == -1 and ch.c == 0 and all(g >= 0 for g in ch.gamma):
        return "pair"
    if ch.r == 0 and ch.c == 0:
        if any(g != 0 for g in ch.gamma):
            if all(g >= 0 for g in ch.gamma):
                return "sheaf"
            return None
        if ch.n > 0:
            return "point"
    return None


class TwistedInvariants(NamedTuple):
    """The four scalars (v0, omega^2*v1, omega*v2, v3) of the twisted vector."""

    v0: Fraction
    w1: Fraction
    w2: Fraction
    v3: Fraction


def twisted_invariants(
    model: NumericalThreefold, ch: ChernCharacter, k
) -> TwistedInvariants:
    """Expand exp(-k*omega) * ch * (1, 0, c2/24, 0) and keep the four scalars.

    Only the terms whose Chern factor is nonzero are computed: the rank
    terms (k^2/2*r*omega^3 and r*c2/24 in w2, k^3/6*r*omega^3 in v3) when
    r != 0, the c2 term c_twisted*c2/24 in v3 when c_twisted = c - k*r != 0,
    and the c terms (k*c*omega^3 in w2, k^2/2*c*omega^3 in v3) when c != 0.
    Sheaves and points have r = c = 0, pairs have c = 0.
    """
    deg = model.degree_vector(ch.gamma)
    if type(k) is not Fraction:
        k = Fraction(k)
    w3 = model.omega_cubed
    r, c = ch.r, ch.c
    w2 = deg
    v3 = ch.n - k * deg
    c_twisted = c  # ch1 of the twisted class, in units of omega
    if r:
        k2 = k * k
        c_twisted -= k * r
        w2 += k2 / 2 * r * w3 + r * model.c2_omega / 24
        v3 -= k2 * k / 6 * r * w3
    if c_twisted:
        v3 += c_twisted * model.c2_omega / 24
    if c:
        w2 -= k * c * w3
        v3 += k * k / 2 * c * w3
    return TwistedInvariants(r, c_twisted * w3, w2, v3)


def dual(ch: ChernCharacter) -> ChernCharacter:
    """Numerical shadow of the dualizing involution: (r,c,gamma,n) -> (r,-c,gamma,-n).

    Involutive; exchanges the twist parameter k with -k downstream.
    """
    return ChernCharacter(ch.r, -ch.c, ch.gamma, -ch.n)


def slope(model: NumericalThreefold, ch: ChernCharacter, k):
    """Twisted slope (n - k*deg)/deg of a sheaf class; PointSlope for points.

    Only r = c = 0 classes carry a slope.  A class with gamma = 0 and n <= 0
    is not a nonzero sheaf class and is rejected.  A class error comes
    before a ``k`` that Fraction() cannot coerce, and that ``k`` raises for
    points too.
    """
    if ch.r != 0 or ch.c != 0:
        raise TableArgumentError("slope is defined only for r = c = 0 classes")
    deg = model.degree_vector(ch.gamma)
    sheaf = any(g != 0 for g in ch.gamma)
    if sheaf and deg <= 0:
        raise TableArgumentError("sheaf class must have positive degree")
    if not sheaf and ch.n <= 0:
        raise TableArgumentError("class with gamma = 0, n <= 0 is not a nonzero sheaf class")
    if type(k) is not Fraction:
        k = Fraction(k)
    if not sheaf:
        return POINT_SLOPE
    mu0 = ch.n / deg
    return mu0 - k if k else mu0


def untwisted_slope(model: NumericalThreefold, ch: ChernCharacter):
    """Slope at k = 0; the quantity whose half fixes every wall position."""
    return slope(model, ch, 0)
