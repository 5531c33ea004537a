"""A plain wall-crossing march, kept apart from the engine as its test oracle.

This is the engine's arithmetic written the slow, obvious way, on purpose:

* the cone below a class is a box walk (``effective_below``), and ``min_ch3``
  and ``mu_threshold`` are minima and maxima over it;
* the walls of a class in a window are the m / (2 deg gamma) of every
  nonzero effective gamma of degree <= deg beta, as Fractions;
* a value L(beta, n)(k) is its seed minus the total of the full crossing
  report at every wall from k_pt = -mu(beta, n)/2 up to k (k itself
  included from the right), and a report is every admissible datum with
  its count and sub-table value.

Nothing is shared between calls but the model, so the answer of a query
cannot depend on what was asked before.  The class check and the degree are
restated here too, so the oracle runs no cone or degree code of the engine.
The public functions take the engine's arguments without its cache, raise
its errors with its texts in its order, and return its named tuples with the
same value types.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

from limitstab.crossing import ChamberTable, DatumContribution, WallDatum, WallReport
from limitstab.errors import ModelDataError, TableArgumentError, show
from limitstab.geometry import CurveClass
from limitstab.walls import Chamber, WallSet

F = Fraction


def check_effective(model, beta):
    """The engine's class check and texts: the rank first, then the sign of each coordinate."""
    if beta.rank != model.rank:
        raise TableArgumentError(f"class {beta} has rank {beta.rank}, model has rank {model.rank}")
    if any(c < 0 for c in beta.coeffs):
        raise TableArgumentError(f"{beta} is not effective")


def degree(model, gamma):
    """deg gamma: each coordinate times its basis degree, summed as Fractions."""
    return sum((c * d for c, d in zip(gamma.coeffs, model.degrees)), F(0))


def effective_below(model, beta):
    """Effective classes of degree <= deg(beta), zero included, by (degree, coordinates)."""
    check_effective(model, beta)
    bound = degree(model, beta)
    ranges = [range(int(bound / d) + 1) for d in model.degrees]
    classes = (CurveClass(g) for g in itertools.product(*ranges))
    below = (g for g in classes if degree(model, g) <= bound)
    return sorted(below, key=lambda g: (degree(model, g), g))


def min_ch3(model, beta):
    check_effective(model, beta)
    if beta.is_zero():
        return F(0)
    values = []
    for gamma in effective_below(model, beta):
        if gamma.is_zero():
            continue
        try:
            values.append(model.m_table[gamma])
        except KeyError:
            missing = f"m_table has no entry for class {gamma}"
            raise ModelDataError(f"{missing} (needed for m({beta}))") from None
    return min(values)


def _splits(model, beta):
    """(beta1, beta - beta1) for effective beta1 != 0 and beta - beta1, by (deg beta1, beta1)."""
    below = effective_below(model, beta)
    return [(g, beta - g) for g in below if not g.is_zero() and (beta - g).is_effective()]


def mu_threshold(model, beta, n):
    check_effective(model, beta)
    if beta.is_zero():
        raise TableArgumentError("mu threshold needs a nonzero class")
    return max((F(n) - min_ch3(model, b2)) / degree(model, b1) for b1, b2 in _splits(model, beta))


def pt_bounds(model, beta, n):
    return -mu_threshold(model, beta, n) / 2, mu_threshold(model, beta, -F(n)) / 2


def walls_in(model, beta, k_lo, k_hi):
    """The walls m / (2 deg gamma) of beta in [k_lo, k_hi], sorted."""
    found = set()
    for twice in {2 * degree(model, g) for g in effective_below(model, beta) if not g.is_zero()}:
        ms = range(math.ceil(k_lo * twice), math.floor(k_hi * twice) + 1)
        found.update(F(m) / twice for m in ms)
    return sorted(found)


def wall_set(model, beta, k_lo, k_hi):
    k_lo, k_hi = F(k_lo), F(k_hi)
    if not k_lo < k_hi:
        raise TableArgumentError(f"empty interval [{k_lo}, {k_hi}]")
    check_effective(model, beta)
    if beta.is_zero():
        raise TableArgumentError("wall set needs a nonzero class")
    return WallSet(beta, (k_lo, k_hi), tuple(walls_in(model, beta, k_lo, k_hi)))


def enumerate_wall_data(model, beta, n, k0):
    k0 = F(k0)
    check_effective(model, beta)
    out = []
    for beta1, beta2 in _splits(model, beta):
        n1 = -2 * k0 * degree(model, beta1)
        if n1.denominator != 1:
            continue
        n1 = int(n1)
        n2, m2 = n - n1, min_ch3(model, beta2)
        if n2 >= m2 or (n2 <= -m2 and not beta2.is_zero()):
            out.append(WallDatum(k0, beta1, n1, beta2, n2))
    return out


def _report(model, beta, n, k0):
    terms = []
    for datum in enumerate_wall_data(model, beta, n, k0):
        coeff = datum.coefficient
        n_value = model.n_table.get((datum.n1, datum.beta1)) if coeff else None
        l_value = l_at_wall(model, datum.beta2, datum.n2, k0) if n_value else None
        contribution = coeff * n_value * l_value if l_value else F(0)
        terms.append(DatumContribution(
            datum, coeff, n_value, coeff != 0 and n_value is None, l_value, contribution
        ))
    return WallReport(k0, tuple(terms), sum((t.contribution for t in terms if t.l_value), F(0)))


def _seed(model, beta, n):
    try:
        return model.p_seed[(n, beta)]  # a seed map may derive the entry it lacks
    except KeyError:
        raise ModelDataError(f"p_seed has no entry for (n={n}, beta={beta})") from None


def invariant_value(model, beta, n, k, from_right=False):
    k = F(k)
    if beta.is_zero():
        return F(1) if n == 0 else F(0)
    check_effective(model, beta)
    value = _seed(model, beta, n)
    k_pt = -mu_threshold(model, beta, n) / 2
    for w in walls_in(model, beta, k_pt, k):
        if w < k or from_right:
            total = _report(model, beta, n, w).total
            if total:
                value -= total
    return F(value)  # an int seed with no jump below k is a Fraction too


def l_at_wall(model, beta2, n2, k0):
    k0 = F(k0)
    return invariant_value(model, beta2, n2, k0, k0 <= 0)


def cross_wall(model, beta, n, k0, l_minus):
    k0 = F(k0)
    check_effective(model, beta)
    report = _report(model, beta, n, k0)
    return F(l_minus) - report.total, report


def chamber_table(model, beta, n, k_lo, k_hi):
    k_lo, k_hi = F(k_lo), F(k_hi)
    if not k_lo < k_hi:
        raise TableArgumentError(f"empty interval [{k_lo}, {k_hi}]")
    check_effective(model, beta)
    if beta.is_zero():
        raise TableArgumentError("chamber tables need a nonzero effective class")
    k_pt = -mu_threshold(model, beta, n) / 2
    if not k_lo < k_pt:
        raise TableArgumentError(
            f"interval must start below the seed bound k_pt = {show(k_pt)}, got k_lo = {show(k_lo)}"
        )
    seed = _seed(model, beta, n)
    points = [w for w in walls_in(model, beta, k_lo, k_hi) if k_lo < w < k_hi]
    bounds = [k_lo, *points, k_hi]
    entries, reports, value = [(Chamber(k_lo, bounds[1]), seed)], [], seed
    for lo, hi in zip(bounds[1:], bounds[2:]):
        report = _report(model, beta, n, lo)
        value -= report.total
        reports.append(report)
        entries.append((Chamber(lo, hi), value))
    for chamber, val in entries:
        if chamber.lo >= k_pt:
            break
        if val != seed:
            raise ModelDataError(
                f"model data violate the seed law: chamber {chamber} below "
                f"k_pt = {show(k_pt)} carries {show(val)} != seed {show(seed)}"
            )
    return ChamberTable(beta, n, (k_lo, k_hi), tuple(entries), tuple(reports))


def chamber_values(model, beta, n, k_lo, k_hi):
    return chamber_table(model, beta, n, k_lo, k_hi).entries
