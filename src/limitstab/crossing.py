"""Wall-crossing recursion for the chamber tables of the counting invariants.

Writing L(beta, n)(k) for the piecewise-constant invariant on the twist line,
the engine reproduces it from three ingredients:

* the seed law: L equals the stable-pair seed P(n, beta) on every chamber
  below k_pt = -mu(beta, n)/2;
* the jump law at a wall k0 (slope mu = -2*k0):

      L(left of k0) - L(right of k0)
          = sum over admissible data  (-1)^(n1-1) * n1 * N(n1, beta1)
                                      * L(beta2, n2)(at k0),

  summed over splittings beta1 + beta2 = beta, n1 + n2 = n with beta1 != 0
  and n1 = mu * deg(beta1) integral;
* the base case L(0, n) = delta_{n,0}: the only rank-(-1) class with beta = 0
  that is stable somewhere is the shifted structure sheaf; nonzero n forces a
  point subobject that destabilizes everywhere.

Admissibility of a datum, beyond the slope constraint, is the bound
n2 >= m(beta2) together with its image n2 <= -m(beta2) under the dualizing
involution (the latter only for beta2 != 0; for beta2 = 0 the one-sided
n2 >= 0 stands).  The two-sided form is what makes the engine's tables
exactly symmetric under (n, k) -> (-n, -k).

Conventions, flagged as conventions:

* When k0 is itself a wall for (beta2, n2), L(beta2, n2)(at k0) means the
  value of the chamber on the side of k0 toward k = 0 (the right-hand
  chamber for every negative wall).  This is forced by the multiple-curve
  check and is the unique choice compatible with the dualizing involution.
* A missing count N(n1, beta1) contributes 0 and is flagged in the report;
  it is never a crash.  Flags fire only when the numeric coefficient
  (-1)^(n1-1)*n1 is nonzero, and the recursive factor is skipped whenever
  the coefficient or the count vanishes, so absent data cannot drag in
  sub-tables that could not influence the result anyway.

The recursion terminates: every recursive call strictly decreases deg(beta2)
or hits the beta2 = 0 base case.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .charge import ChernCharacter, shape, slope
from .errors import ModelDataError
from .geometry import (
    CurveClass,
    NumericalThreefold,
    decompositions,
    degree,
    min_ch3,
)
from .walls import Chamber, chambers, is_wall, mu_threshold, next_wall_above, pt_bounds, wall_set


@dataclass(frozen=True)
class WallDatum:
    """One admissible term of the jump sum at the wall k0."""

    k0: Fraction
    beta1: CurveClass
    n1: int
    beta2: CurveClass
    n2: int

    @property
    def coefficient(self) -> int:
        # (-1)^(n1 - 1) * n1 via parity; integer exponents of -1 can be
        # negative here and must not fall into float power
        return self.n1 if self.n1 % 2 else -self.n1

    def __str__(self) -> str:
        return f"beta1={self.beta1} n1={self.n1} | beta2={self.beta2} n2={self.n2}"


@dataclass(frozen=True)
class DatumContribution:
    datum: WallDatum
    coefficient: int
    n_value: Optional[Fraction]  # None when absent from the model table
    missing_n: bool
    l_value: Optional[Fraction]  # None when the factor was short-circuited
    contribution: Fraction


@dataclass(frozen=True)
class WallReport:
    k0: Fraction
    terms: Tuple[DatumContribution, ...]
    total: Fraction


class TableCache:
    """Memo store for wall contributions and chamber values.

    A cache binds to the first model it serves and refuses any other.
    Entries are deterministic functions of that model, so sharing a cache
    between threads is benign (last write wins with identical values); for a
    strict contract, confine one cache to one thread.
    """

    def __init__(self):
        self.values: Dict[Tuple[CurveClass, int, Fraction, bool], Fraction] = {}
        self.reports: Dict[Tuple[CurveClass, int, Fraction], WallReport] = {}
        self._model: Optional[NumericalThreefold] = None

    def bind(self, model: NumericalThreefold) -> None:
        if self._model is None:
            self._model = model
        elif self._model is not model:
            raise ValueError("a TableCache cannot be shared between models")


def _bound_cache(cache: Optional[TableCache], model: NumericalThreefold) -> TableCache:
    """``cache``, or a fresh TableCache for None, bound to ``model``."""
    # TableCache is read from the module at call time, so a subclass bound to
    # that name (perfbench's tracer counts memo entries this way) is the one made
    if cache is None:
        cache = TableCache()
    cache.bind(model)
    return cache


def enumerate_wall_data(
    model: NumericalThreefold, beta: CurveClass, n: int, k0
) -> List[WallDatum]:
    """All admissible data at k0, sorted by (deg beta1, n1).

    Empty whenever the slope constraint has no integral solution or the
    ch3 bounds exclude every candidate.
    """
    k0 = Fraction(k0)
    mu = -2 * k0
    out = []
    for beta1, beta2 in decompositions(model, beta):
        n1 = mu * degree(model, beta1)
        if n1.denominator != 1:
            continue
        n1 = int(n1)
        n2 = n - n1
        m2 = min_ch3(model, beta2)
        if n2 >= m2 or (not beta2.is_zero() and n2 <= -m2):
            out.append(WallDatum(k0, beta1, n1, beta2, n2))
    return out


def l_at_wall(
    model: NumericalThreefold,
    beta2: CurveClass,
    n2: int,
    k0,
    cache: Optional[TableCache] = None,
) -> Fraction:
    """Value of L(beta2, n2) at the crossing point k0.

    delta_{n2,0} for beta2 = 0; the chamber value when k0 is off the wall set
    of beta2; the toward-zero chamber value when k0 sits on a wall.
    """
    cache = _bound_cache(cache, model)
    k0 = Fraction(k0)
    if beta2.is_zero():
        return Fraction(1) if n2 == 0 else Fraction(0)
    from_right = True
    if is_wall(model, beta2, k0) and k0 > 0:
        from_right = False
    return _chamber_value(model, beta2, n2, k0, from_right, cache)


def _seed(model: NumericalThreefold, beta: CurveClass, n: int) -> Fraction:
    try:
        return model.p_seed[(n, beta)]
    except KeyError:
        raise ModelDataError(
            f"p_seed has no entry for (n={n}, beta={beta})"
        ) from None


def _chamber_value(
    model: NumericalThreefold,
    beta: CurveClass,
    n: int,
    k: Fraction,
    from_right: bool,
    cache: TableCache,
) -> Fraction:
    """March the jump law from the seed chamber up to k.

    Crosses every wall w with k_pt <= w < k, plus w = k itself when the value
    just right of k is wanted.  Walls below k_pt carry no admissible data
    with a nonzero jump (the seed law), so starting the march at k_pt is
    exact.
    """
    key = (beta, n, k, from_right)
    if key in cache.values:
        return cache.values[key]
    value = _seed(model, beta, n)
    k_pt = -mu_threshold(model, beta, n) / 2
    if k > k_pt:
        walls = wall_set(model, beta, k_pt, k).walls
    elif k == k_pt and is_wall(model, beta, k_pt):
        walls = (k_pt,)
    else:
        walls = ()
    for w in walls:
        if w < k or (w == k and from_right):
            value -= _wall_total(model, beta, n, w, cache).total
    cache.values[key] = value
    return value


def _wall_total(
    model: NumericalThreefold,
    beta: CurveClass,
    n: int,
    k0: Fraction,
    cache: TableCache,
) -> WallReport:
    key = (beta, n, k0)
    if key in cache.reports:
        return cache.reports[key]
    terms = []
    total = Fraction(0)
    for datum in enumerate_wall_data(model, beta, n, k0):
        coeff = datum.coefficient
        if coeff == 0:
            terms.append(
                DatumContribution(datum, coeff, None, False, None, Fraction(0))
            )
            continue
        n_value = model.n_table.get((datum.n1, datum.beta1))
        if n_value is None:
            terms.append(
                DatumContribution(datum, coeff, None, True, None, Fraction(0))
            )
            continue
        l_value = l_at_wall(model, datum.beta2, datum.n2, k0, cache)
        contribution = coeff * n_value * l_value
        terms.append(
            DatumContribution(datum, coeff, n_value, False, l_value, contribution)
        )
        total += contribution
    report = WallReport(k0, tuple(terms), total)
    cache.reports[key] = report
    return report


def invariant_value(
    model: NumericalThreefold,
    beta: CurveClass,
    n: int,
    k,
    from_right: bool = False,
    cache: Optional[TableCache] = None,
) -> Fraction:
    """Chamber value of L(beta, n) at k; the side matters only on a wall."""
    cache = _bound_cache(cache, model)
    if beta.is_zero():
        return Fraction(1) if n == 0 else Fraction(0)
    return _chamber_value(model, beta, n, Fraction(k), from_right, cache)


def cross_wall(
    model: NumericalThreefold,
    beta: CurveClass,
    n: int,
    k0,
    l_minus: Fraction,
    cache: Optional[TableCache] = None,
) -> Tuple[Fraction, WallReport]:
    """Apply the jump law at k0 to the left-chamber value; returns (L_plus, report)."""
    cache = _bound_cache(cache, model)
    report = _wall_total(model, beta, n, Fraction(k0), cache)
    return Fraction(l_minus) - report.total, report


@dataclass(frozen=True)
class ChamberTable:
    """Piecewise-constant invariant table with per-wall crossing reports."""

    beta: CurveClass
    n: int
    interval: Tuple[Fraction, Fraction]
    entries: Tuple[Tuple[Chamber, Fraction], ...]
    reports: Tuple[WallReport, ...]

    @property
    def seed(self) -> Fraction:
        return self.entries[0][1]

    def value_at(self, k) -> Fraction:
        k = Fraction(k)
        for chamber, value in self.entries:
            if chamber.contains(k):
                return value
        raise ValueError(f"k = {k} is a wall or outside the tabulated interval")

    def effective_walls(self) -> Tuple[Fraction, ...]:
        """Walls where the value actually jumps."""
        out = []
        for (ca, va), (cb, vb) in zip(self.entries, self.entries[1:]):
            if va != vb:
                out.append(ca.hi)
        return tuple(out)

    def merged(self) -> Tuple[Tuple[Fraction, Fraction, Fraction], ...]:
        """Runs of equal value: (lo, hi, value), consecutive chambers fused."""
        runs: List[Tuple[Fraction, Fraction, Fraction]] = []
        for chamber, value in self.entries:
            if runs and runs[-1][2] == value:
                lo, _, _ = runs[-1]
                runs[-1] = (lo, chamber.hi, value)
            else:
                runs.append((chamber.lo, chamber.hi, value))
        return tuple(runs)


def chamber_table(
    model: NumericalThreefold,
    beta: CurveClass,
    n: int,
    k_lo,
    k_hi,
    cache: Optional[TableCache] = None,
) -> ChamberTable:
    """March the seed across every wall of [k_lo, k_hi].

    Requires k_lo below the stable-pair bound so the seed anchors the
    leftmost chamber, and a seed entry for (n, beta).  Sub-tables reached by
    the recursion are memoized in the cache.
    """
    cache = _bound_cache(cache, model)
    k_lo, k_hi = Fraction(k_lo), Fraction(k_hi)
    model.check_rank(beta)
    if beta.is_zero() or not beta.is_effective():
        raise ValueError("chamber tables need a nonzero effective class")
    k_pt = -mu_threshold(model, beta, n) / 2
    if not k_lo < k_pt:
        raise ValueError(
            f"interval must start below the seed bound k_pt = {k_pt}, got k_lo = {k_lo}"
        )
    value = _seed(model, beta, n)
    chams = chambers(model, beta, k_lo, k_hi)
    entries = [(chams[0], value)]
    reports = []
    for chamber in chams[1:]:
        w = chamber.lo
        value, report = cross_wall(model, beta, n, w, value, cache)
        reports.append(report)
        entries.append((chamber, value))
    for chamber, val in entries:
        if chamber.hi <= k_pt and val != entries[0][1]:
            raise ModelDataError(
                f"model data violate the seed law: chamber {chamber} below "
                f"k_pt = {k_pt} carries {val} != seed {entries[0][1]}"
            )
    return ChamberTable(beta, n, (k_lo, k_hi), tuple(entries), tuple(reports))


@dataclass(frozen=True)
class SymmetryRow:
    n: int
    p_plus: Fraction
    p_minus_derived: Fraction
    p_minus_seed: Optional[Fraction]
    count: Optional[Fraction]  # N(n, beta), None if absent
    relation_defect: Fraction  # (P_n - P_-n) - (-1)^(n-1) * n * N(n, beta)


@dataclass(frozen=True)
class PTSymmetryReport:
    """Dual-side counts derived by crossing, against the pair/dual-pair relation.

    ``laurent`` collects the coefficients of the truncated pair-count series
    q^n for 1 <= |n| <= n_max (the n = 0 coefficient is not part of any
    preset and is omitted).  ``relation_defect`` is the finite-truncation
    shadow of the q -> 1/q symmetry of that series; it must vanish whenever
    the model tables are mutually consistent.
    """

    beta: CurveClass
    rows: Tuple[SymmetryRow, ...]
    laurent: Tuple[Tuple[int, Fraction], ...]

    @property
    def max_defect(self) -> Fraction:
        return max((abs(r.relation_defect) for r in self.rows), default=Fraction(0))


def pt_symmetry_check(
    model: NumericalThreefold,
    beta: CurveClass,
    n_max: int,
    cache: Optional[TableCache] = None,
) -> PTSymmetryReport:
    cache = _bound_cache(cache, model)
    rows = []
    coeffs: Dict[int, Fraction] = {}
    for n in range(1, n_max + 1):
        k_pt, k_dual = pt_bounds(model, beta, n)
        right = (k_dual + next_wall_above(model, beta, k_dual)) / 2
        table = chamber_table(model, beta, n, k_pt - 1, right, cache)
        p_plus = table.seed
        p_minus = table.entries[-1][1]
        n_value = model.n_table.get((n, beta))
        defect = (p_plus - p_minus) - Fraction((-1) ** (n - 1) * n) * (
            n_value if n_value is not None else Fraction(0)
        )
        rows.append(
            SymmetryRow(n, p_plus, p_minus, model.p_seed.get((-n, beta)), n_value, defect)
        )
        coeffs[n] = p_plus
        coeffs[-n] = p_minus
    laurent = tuple(sorted(coeffs.items()))
    return PTSymmetryReport(beta, tuple(rows), laurent)


def hn_sort(
    model: NumericalThreefold, parts: Sequence[ChernCharacter], k
) -> List[List[ChernCharacter]]:
    """Group sheaf-type classes by twisted slope, strictly decreasing.

    This is the toy filtration of a formal direct sum of semistable pieces:
    each part stands for a semistable class of its slope, equal slopes merge
    into one group, and the groups come out in the order the filtration
    quotients would.
    """
    k = Fraction(k)
    groups: Dict[Fraction, List[ChernCharacter]] = {}
    for ch in parts:
        if shape(ch) != "sheaf":
            raise ValueError(f"hn_sort takes sheaf-type classes only, got {ch}")
        groups.setdefault(slope(model, ch, k), []).append(ch)
    out = []
    for mu in sorted(groups, reverse=True):
        members = sorted(
            groups[mu],
            key=lambda c: (model.degree_vector(c.gamma), c.n, c.gamma),
        )
        out.append(members)
    return out
