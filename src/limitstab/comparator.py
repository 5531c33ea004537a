"""Asymptotic phase comparison of central charges for m -> infinity.

Two independent routes decide whether the phase of F eventually sits below,
at, or above the phase of E:

* ``compare_phases`` works for any pair of in-scope classes.  It reads the
  sign at infinity of the cross polynomial W(m) = re_F*im_E - im_F*re_E.
  Both phases lie in an open window of width < 1 for large m, so
  sin(pi*(phi_E - phi_F)) has the sign of phi_E - phi_F, and
  |Z_E||Z_F| sin(pi*(phi_E - phi_F)) = W(m).  With
  Z = (-v3 + w1 m^2/2) + i(w2 m - omega^3 v0 m^3/6), W has only odd powers
  of m and each coefficient is a 2x2 minor of the two classes' twisted
  scalars.  The m^5 coefficient is omega^3/12 times the minor
  v0_F w1_E - w1_F v0_E = omega^3 (r_F c_E - c_F r_E), which vanishes because
  every in-scope shape has c = 0.  So ``cross_leading_term`` reads W's
  leading term from the m^3 and m minors, with no polynomial product, and
  ``limitstab compare`` prints the same term.
* ``compare_phases_closed`` is the closed-form route for a sheaf- or
  point-type F against a pair-type E: an inequality between the twisted
  slope of F and -2k, with a tie-break on the linear charge data of E.

The two must agree everywhere; that agreement is the primary oracle pair of
the test suite.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from typing import Tuple

from .charge import ChernCharacter, shape, twisted_invariants
from .errors import TableArgumentError
from .geometry import NumericalThreefold


class PhaseOrder(enum.Enum):
    PRECEDES = -1
    EQUAL = 0
    SUCCEEDS = 1

    def reversed(self) -> "PhaseOrder":
        return PhaseOrder(-self.value)


def _order(lhs, rhs) -> PhaseOrder:
    """PRECEDES, EQUAL or SUCCEEDS as ``lhs`` is below, at or above ``rhs``."""
    return PhaseOrder((lhs > rhs) - (lhs < rhs))


def _require_in_scope(model: NumericalThreefold, ch: ChernCharacter, label: str) -> str:
    """The shape of ``ch``; a TableArgumentError unless it is in scope and of the model's rank."""
    s = shape(ch)
    if s is None:
        raise TableArgumentError(f"{label} class {ch} is zero or out of scope")
    if len(ch.gamma) != model.rank:
        raise TableArgumentError(
            f"{label} class {ch} has rank {len(ch.gamma)}, model has rank {model.rank}"
        )
    return s


def cross_leading_term(
    model: NumericalThreefold, ch_f: ChernCharacter, ch_e: ChernCharacter, k
) -> Tuple[int, Fraction]:
    """(degree, leading coefficient) of W(m); (-1, 0) when W vanishes.

    W is positive for large m iff F precedes E.  The m^3 minor is tried
    first and the m minor only when it is 0.
    """
    _require_in_scope(model, ch_f, "F")
    _require_in_scope(model, ch_e, "E")
    f = twisted_invariants(model, ch_f, k)
    e = twisted_invariants(model, ch_e, k)
    m3 = (
        model.omega_cubed / 6 * (f.v3 * e.v0 - f.v0 * e.v3)
        + (f.w1 * e.w2 - f.w2 * e.w1) / 2
    )
    if m3:
        return 3, m3
    m1 = f.w2 * e.v3 - f.v3 * e.w2
    return (1 if m1 else -1), m1


def compare_phases(
    model: NumericalThreefold, ch_f: ChernCharacter, ch_e: ChernCharacter, k
) -> PhaseOrder:
    """Asymptotic order of phases: the sign of the leading coefficient of W."""
    return _order(0, cross_leading_term(model, ch_f, ch_e, k)[1])


def compare_phases_closed(
    model: NumericalThreefold, ch_f: ChernCharacter, ch_e: ChernCharacter, k
) -> PhaseOrder:
    """Closed-form order for sheaf/point-type F against pair-type E.

    With B = k*omega:  F precedes E  iff  mu_0(F) < -2k, or mu_0(F) = -2k and
    w2(E) * mu(F) < v3(E), where mu_0 is the untwisted slope and mu = mu_0 - k
    the twisted one.  A point-type F always succeeds: its phase is exactly 1
    and dominates the pair-type window.
    """
    sf = _require_in_scope(model, ch_f, "F")
    if sf not in ("sheaf", "point"):
        raise TableArgumentError("closed comparison needs a sheaf- or point-type F")
    if _require_in_scope(model, ch_e, "E") != "pair":
        raise TableArgumentError("closed comparison needs a pair-type E")
    if type(k) is not Fraction:
        k = Fraction(k)
    if sf == "point":
        return PhaseOrder.SUCCEEDS
    # the untwisted slope; an in-scope sheaf class of the model's rank has deg > 0
    mu0 = ch_f.n / model.degree_vector(ch_f.gamma)
    bound = -2 * k
    if mu0 != bound:
        return _order(mu0, bound)
    te = twisted_invariants(model, ch_e, k)
    return _order(te.w2 * (mu0 - k), te.v3)


def phase_limit(model: NumericalThreefold, ch: ChernCharacter) -> Fraction:
    """Limit of the normalized phase for m -> infinity: 1 for points, 1/2 otherwise."""
    return Fraction(1) if _require_in_scope(model, ch, "the") == "point" else Fraction(1, 2)


def destabilizing_threshold(model: NumericalThreefold, ch_f: ChernCharacter) -> Fraction:
    """The twist k0 = -mu_0(F)/2 below which F precedes every pair-type class.

    For k < k0 the slope inequality of the closed comparison is strict, so
    compare_phases(F, E, k) is PRECEDES for every pair-type E; at and above
    k0 it never is.  Point-type classes have no finite threshold.
    """
    if _require_in_scope(model, ch_f, "F") != "sheaf":
        raise TableArgumentError("threshold is defined for sheaf-type classes only")
    return -(ch_f.n / model.degree_vector(ch_f.gamma)) / 2
