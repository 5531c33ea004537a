"""Wall-crossing recursion for the chamber tables of the counting invariants.

Writing L(beta, n)(k) for the piecewise-constant invariant on the twist line,
the engine reproduces it from three ingredients:

* the seed law: L equals the stable-pair seed P(n, beta) below
  k_pt = -mu(beta, n)/2, so no wall below k_pt may jump;
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
  chamber for k0 <= 0, the left-hand one for k0 > 0).  This is forced by the
  multiple-curve check and is the unique choice compatible with the
  dualizing involution.
* A missing count N(n1, beta1) contributes 0 and is flagged in the report;
  it is never a crash.  Flags fire only when the numeric coefficient
  (-1)^(n1-1)*n1 is nonzero, and the recursive factor is skipped whenever
  the coefficient or the count vanishes, so absent data cannot drag in
  sub-tables that could not influence the result anyway.

The recursion terminates: every recursive call strictly decreases deg(beta2)
or hits the beta2 = 0 base case.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from itertools import groupby, repeat
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .charge import ChernCharacter, shape, slope
from .errors import ModelDataError, TableArgumentError, show
from .geometry import CurveClass, NumericalThreefold, _ConeIndex, _as_fraction, _split_rows
from .geometry import check_effective
from .walls import Chamber, _grid_of, _next_above, _wall_ints
from .walls import _max_slope, mu_threshold

_ZERO, _ONE = Fraction(0), Fraction(1)


class WallDatum(NamedTuple):
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


class DatumContribution(NamedTuple):
    datum: WallDatum
    coefficient: int
    n_value: Optional[Fraction]  # None when absent from the model table
    missing_n: bool
    l_value: Optional[Fraction]  # None when the factor was short-circuited
    contribution: Fraction


class WallReport(NamedTuple):
    k0: Fraction
    terms: Tuple[DatumContribution, ...]
    total: Fraction


class TableCache:
    """Memo store for the crossing recursion, filled lazily.

    Seven memo tables:

    * ``values[(beta, n, k.numerator, k.denominator, from_right)]`` --
      chamber values;
    * ``reports[(beta, n, k0.numerator, k0.denominator)]`` -- wall reports,
      filled by ``chamber_table`` and ``cross_wall``;
    * ``jumps[(beta, n, k0.numerator, k0.denominator)]`` -- at a wall where a split has a
      nonzero count, a report's total, summed without its terms where no report is filled;
    * ``ledgers[(beta, n)]`` -- ``[reach, walls, sums]``: of the walls j/G from
      k_pt to j < reach, the j with a nonzero jump and their running sums, no seed;
    * ``splits[beta]`` -- ``geometry._split_rows`` of beta, in order: each split
      as ``(e, beta1, beta2)`` with the int e = D * deg beta1;
    * ``m[beta2]`` -- ``min_ch3(model, beta2)`` and its ceiling, by one bisect
      of the cone index ``geometry._ConeIndex``; a failing read is not stored;
    * ``grids[beta]`` -- ``walls._wall_grid(model, beta)``, the (G, steps):
      the march reads only G, the runs their seed-law wall and the expanded
      tables every wall from the steps too.

    The point keys hold ints only, so a hit in ``values`` or ``reports`` is
    one ``dict.get`` that builds, hashes and compares no ``Fraction``; every
    key of the first four starts with the (beta, n) it belongs to.  Splits
    and grids come from the cone index's D and D * degrees.  ``splits`` and
    ``m`` are filled by the wall-datum fill and the jump sums, whose tests
    read only their ints, and by the seed bound of every table and of every
    ledger a fill makes: on ints, ceil(k_pt * G), once per ledger.  A cache
    binds to the first model it serves and refuses any other, so the
    cone index built at that first bind always answers for the right model.
    Entries are deterministic functions of that model, but the cone index
    grows its lists in place, so two threads growing it at once can corrupt
    it: confine one cache to one thread.
    """

    def __init__(self):
        self.values: Dict[Tuple[CurveClass, int, int, int, bool], Fraction] = {}
        self.reports: Dict[Tuple[CurveClass, int, int, int], WallReport] = {}
        self.jumps: Dict[Tuple[CurveClass, int, int, int], Fraction] = {}
        self.ledgers: Dict[Tuple[CurveClass, int], list] = {}
        self.splits: Dict[CurveClass, Tuple[Tuple[int, CurveClass, CurveClass], ...]] = {}
        self.m: Dict[CurveClass, Tuple[Fraction, int]] = {}
        self.grids: Dict[CurveClass, Tuple[int, Tuple[int, ...]]] = {}
        self._model: Optional[NumericalThreefold] = None

    def bind(self, model: NumericalThreefold) -> None:
        if self._model is None:
            self._model, self._cone = model, _ConeIndex(model)
        elif self._model is not model:
            raise TableArgumentError("a TableCache cannot be shared between models")


def _bound_cache(cache: Optional[TableCache], model: NumericalThreefold) -> TableCache:
    """``cache``, or a fresh TableCache for None, bound to ``model``."""
    # TableCache is read from the module at call time, so a subclass bound to
    # that name (perfbench's tracer counts memo entries this way) is the one made
    if cache is None:
        cache = TableCache()
    cache.bind(model)
    return cache


def _splits(beta: CurveClass, cache: TableCache):
    if (splits := cache.splits.get(beta)) is None:
        splits = cache.splits[beta] = _split_rows(cache._cone.scaled, beta.coeffs)
    return splits


def _m(beta2: CurveClass, cache: TableCache) -> Tuple[Fraction, int]:
    if (m2 := cache.m.get(beta2)) is None:
        m = cache._cone.m(beta2)
        m2 = cache.m[beta2] = (m, -(-m.numerator // m.denominator))
    return m2


def _grid(beta: CurveClass, cache: TableCache):
    """The wall grid (G, steps) of beta, built once per cache."""
    if (grid := cache.grids.get(beta)) is None:
        grid = cache.grids[beta] = _grid_of(cache._cone.scale, cache._cone.scaled, beta.coeffs)
    return grid


def _mu(beta: CurveClass, n, cache: TableCache) -> Fraction:
    """``mu_threshold`` as one Fraction of ``_mu_ints``."""
    return Fraction(*_mu_ints(beta, n, cache))


def _mu_ints(beta: CurveClass, n, cache: TableCache) -> Tuple[int, int]:
    """``mu_threshold`` as ints (top, bottom > 0) from the cached split and m ints, in order."""
    return _max_slope(n, _splits(beta, cache), lambda beta2: _m(beta2, cache)[0], cache._cone.scale)


def enumerate_wall_data(
    model: NumericalThreefold,
    beta: CurveClass,
    n: int,
    k0,
    cache: Optional[TableCache] = None,
) -> List[WallDatum]:
    """All admissible data at k0, sorted by (deg beta1, coordinates of beta1).

    Empty whenever the slope constraint has no integral solution or the
    ch3 bounds exclude every candidate.  Both tests run on the ints of the
    cache's split and m tables: with deg beta1 = e/D, n1 and its remainder
    come from one divmod of -2*k0.numerator*e by k0.denominator*D (a nonzero
    remainder skips the split), and n2 >= m(beta2) or n2 <= -m(beta2) is
    n2 >= ceil(m) or -n2 >= ceil(m).
    """
    k0, cache = _as_fraction(k0), _bound_cache(cache, model)
    check_effective(model, beta)
    return _wall_data(beta, n, k0, cache)


def _wall_data(beta: CurveClass, n: int, k0: Fraction, cache):
    """``enumerate_wall_data`` on a Fraction k0, a checked class and a bound cache."""
    num, den = -2 * k0.numerator, k0.denominator * cache._cone.scale
    out = []
    for e1, beta1, beta2 in _splits(beta, cache):
        n1, rest = divmod(num * e1, den)
        if rest:
            continue
        n2, lo = n - n1, _m(beta2, cache)[1]
        if n2 >= lo or (-n2 >= lo and not beta2.is_zero()):
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

    delta_{n2,0} for beta2 = 0, otherwise the chamber value on the side of k0
    toward k = 0, taken from the sign of k0 alone: the right-hand side for
    k0 <= 0, the left-hand side for k0 > 0 (no wall test: off the wall set
    of beta2 both sides are one chamber).  A hit is one memo probe, as in
    ``invariant_value``; a miss takes its seed bound from the cache.
    """
    if cache is None or cache._model is not model:
        cache = _bound_cache(cache, model)
    if type(k0) is not Fraction:
        k0 = Fraction(k0)
    return _at_wall(model, beta2, n2, k0.numerator, k0.denominator, cache)


def _at_wall(model: NumericalThreefold, beta2: CurveClass, n2: int, num: int, den: int, cache):
    """``l_at_wall`` at the wall num/den in lowest terms, on a cache bound to ``model``."""
    side = num <= 0
    if (value := cache.values.get((beta2, n2, num, den, side))) is None:
        value = _march(model, beta2, n2, num, den, side, cache, cached_mu=True)
    return value


def _seed(model: NumericalThreefold, beta: CurveClass, n: int) -> Fraction:
    try:
        return model.p_seed[(n, beta)]
    except KeyError:
        raise ModelDataError(
            f"p_seed has no entry for (n={n}, beta={beta})"
        ) from None


def _march(
    model: NumericalThreefold, beta: CurveClass, n: int, num: int, den: int, from_right: bool,
    cache: TableCache, cached_mu: bool,
) -> Fraction:
    """The value at k = num/den (lowest terms), a Fraction marched from the seed, on a memo miss.

    L(0, n) = delta_{n,0}, unmemoized.  Otherwise the seed minus the jumps at
    every wall w with k_pt <= w < k, plus w = k itself when the value just
    right of k is wanted.  No wall below k_pt may jump (the seed law, which
    the tables enforce), so the ledger of (beta, n) starts at
    ceil(k_pt * G) on beta's grid: from ``_mu_ints`` once per ledger for a
    fill's read (``cached_mu``), from ``mu_threshold`` on every miss of a
    point query.  A miss extends the ledger over the ints j up to k only, and
    subtracts from the seed the running sum one bisect finds there.
    """
    if beta.is_zero():
        return _ONE if n == 0 else _ZERO
    if (ledger := cache.ledgers.get((beta, n))) is None or not cached_mu:
        # a bad class is an argument error before its seed lookup; a fill checks once per ledger
        check_effective(model, beta)
        value = _seed(model, beta, n)
        top, bottom = (_mu_ints(beta, n, cache) if cached_mu
                       else mu_threshold(model, beta, n).as_integer_ratio())
        G = _grid(beta, cache)[0]
        # ceil(k_pt * G) with k_pt = -top / (2 * bottom); a derived seed may have made the ledger
        ledger = cache.ledgers.setdefault((beta, n), [-(top * G // (2 * bottom)), [], []])
    else:
        value, G = model.p_seed[(n, beta)], _grid(beta, cache)[0]
    # the exclusive j bound of the walls crossed: j <= k*G from the right, j < k*G from the left
    end = num * G // den + 1 if from_right else -(-num * G // den)
    _, walls, sums = ledger
    if ledger[0] < end:
        for j, total in _jumps(model, beta, n, ledger[0], end - 1, cache):
            if total:
                walls.append(j)
                sums.append(sums[-1] + total if sums else total)
            ledger[0] = j + 1  # a failing jump leaves the ledger at the walls it passed
        ledger[0] = end
    if crossed := bisect_left(walls, end):
        value -= sums[crossed - 1]
    cache.values[(beta, n, num, den, from_right)] = value = _as_fraction(value)
    return value


def _jumps(model: NumericalThreefold, beta: CurveClass, n: int, j_lo: int, j_hi: int, cache):
    """(j, jump) at each wall j/G of beta, j_lo <= j <= j_hi, where a split has a nonzero count:
    the split (e1, beta1, beta2) sits at j = q * D*G/(2*e1) with n1 = -q, and its rows are the
    q != 0 with N(-q, beta1) != 0.  Summed in (j, split) order, they read m(beta2) and recurse as a
    walk over every wall and split would; a filled report's total stands for its wall's rows."""
    G = _grid(beta, cache)[0]
    dg, rows = cache._cone.scale * G, []
    for i, (e1, beta1, beta2) in enumerate(_splits(beta, cache)):
        step = dg // (2 * e1)
        for q in range(-(-j_lo // step), j_hi // step + 1):
            if q and (count := model.n_table.get((-q, beta1))):
                rows.append((q * step, i, -q, count, beta2))
    rows.sort()
    for j, group in groupby(rows, lambda row: row[0]):
        g = math.gcd(j, G)
        num, den = j // g, G // g
        if (report := cache.reports.get((beta, n, num, den))) is not None:
            yield j, report.total
            continue
        total = _ZERO
        for _, _, n1, count, beta2 in group:
            n2, lo = n - n1, _m(beta2, cache)[1]
            if n2 >= lo or (-n2 >= lo and not beta2.is_zero()):
                if l_value := _at_wall(model, beta2, n2, num, den, cache):
                    total += (n1 if n1 % 2 else -n1) * count * l_value
        cache.jumps[(beta, n, num, den)] = total
        yield j, total


def _wall_total(model: NumericalThreefold, beta: CurveClass, n: int, k0: Fraction, cache):
    """The report at the wall k0, keyed by its lowest terms; its total adds the contributions with
    a nonzero L to ``_ZERO`` in datum order, so a report without one keeps ``_ZERO`` itself."""
    key = (beta, n, k0.numerator, k0.denominator)
    if (report := cache.reports.get(key)) is not None:
        return report
    terms, total = [], _ZERO
    for datum in _wall_data(beta, n, k0, cache):
        coeff = datum.coefficient
        # a zero coefficient, an absent or zero count skips the factor L, a zero L the product
        n_value = model.n_table.get((datum.n1, datum.beta1)) if coeff else None
        l_value = _at_wall(model, datum.beta2, datum.n2, *key[2:], cache) if n_value else None
        contribution = _ZERO
        if l_value:
            total += (contribution := coeff * n_value * l_value)
        terms.append(DatumContribution(
            datum, coeff, n_value, coeff != 0 and n_value is None, l_value, contribution
        ))
    report = cache.reports[key] = WallReport(k0, tuple(terms), total)
    return report


def invariant_value(
    model: NumericalThreefold,
    beta: CurveClass,
    n: int,
    k,
    from_right: bool = False,
    cache: Optional[TableCache] = None,
) -> Fraction:
    """Chamber value of L(beta, n) at k; the side matters only on a wall.

    A memo hit is two guards and one probe of ``cache.values``.
    """
    if cache is None or cache._model is not model:
        cache = _bound_cache(cache, model)
    if type(k) is not Fraction:
        k = Fraction(k)
    if (value := cache.values.get((beta, n, k.numerator, k.denominator, from_right))) is None:
        num, den = k.numerator, k.denominator
        value = _march(model, beta, n, num, den, from_right, cache, cached_mu=False)
    return value


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
    k0 = _as_fraction(k0)
    check_effective(model, beta)
    report = _wall_total(model, beta, n, k0, cache)
    return _as_fraction(l_minus) - report.total, report


class ChamberTable(NamedTuple):
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
        raise TableArgumentError(f"k = {k} is a wall or outside the tabulated interval")

    def effective_walls(self) -> Tuple[Fraction, ...]:
        """Walls where the value actually jumps."""
        return tuple(lo for lo, _, _ in self.merged()[1:])

    def merged(self) -> Tuple[Tuple[Fraction, Fraction, Fraction], ...]:
        return merge_runs(self.entries)


def merge_runs(entries) -> Tuple[Tuple[Fraction, Fraction, Fraction], ...]:
    """Runs of equal value in table ``entries``: (lo, hi, value), consecutive chambers fused (a
    zero jump keeps the value's object, so ``==`` runs only at a real jump).  A run keeps the
    value of its first chamber, so an int seed stays an int."""
    runs: List[Tuple[Fraction, Fraction, Fraction]] = []
    for chamber, value in entries:
        if runs and (runs[-1][2] is value or runs[-1][2] == value):
            runs[-1] = (runs[-1][0], chamber.hi, runs[-1][2])
        else:
            runs.append((chamber.lo, chamber.hi, value))
    return tuple(runs)


def chamber_values(model: NumericalThreefold, beta: CurveClass, n: int, k_lo, k_hi,
                   cache: Optional[TableCache] = None) -> Tuple[Tuple[Chamber, Fraction], ...]:
    """``chamber_table``'s entries (chamber, value) without its reports: ``chamber_runs`` spread
    over every chamber, the seed as stored first, then one value object per run, a Fraction."""
    return _values(model, beta, n, k_lo, k_hi, _bound_cache(cache, model), None)


def _values(model: NumericalThreefold, beta: CurveClass, n: int, k_lo, k_hi, cache, reports):
    """``chamber_values`` on a bound cache; a ``reports`` list first gets every wall's report."""
    k_lo, k_hi, _, seed = window = _window(model, beta, n, k_lo, k_hi, cache)
    G, _ = grid = _grid(beta, cache)
    inner = _wall_ints(grid, *_inside(G, k_lo, k_hi))  # the j of each chamber's lo j/G but the first
    bounds = [k_lo, *(Fraction(j, G) for j in inner), k_hi]
    if reports is not None:
        reports.extend(_wall_total(model, beta, n, lo, cache) for lo in bounds[1:-1])
    js, values = _jump_runs(model, beta, n, cache, *window)
    starts = dict(zip(js, values[1:]))
    value, entries = _as_fraction(seed), [(Chamber(k_lo, bounds[1]), seed)]
    for j, lo, hi in zip(inner, bounds[1:], bounds[2:]):
        value = starts.get(j, value)
        entries.append((Chamber(lo, hi), value))
    return tuple(entries)


def chamber_runs(model: NumericalThreefold, beta: CurveClass, n: int, k_lo, k_hi,
                 cache: Optional[TableCache] = None,
                 ) -> Tuple[Tuple[Fraction, Fraction, Fraction], ...]:
    """``merge_runs(chamber_values(...))`` from the nonzero jumps alone: (lo, hi, value), the
    seed as stored in the first run, each later run starting at a wall whose jump is nonzero."""
    cache = _bound_cache(cache, model)
    window = _window(model, beta, n, k_lo, k_hi, cache)
    js, values = _jump_runs(model, beta, n, cache, *window)
    bounds = [window[0], *map(Fraction, js, repeat(cache.grids[beta][0])), window[1]]
    return tuple(zip(bounds, bounds[1:], values))


def _inside(G: int, k_lo: Fraction, k_hi: Fraction) -> Tuple[int, int]:
    """The int bounds of the walls j/G strictly inside (k_lo, k_hi):
    floor(k_lo * G) < j < ceil(k_hi * G)."""
    j_lo = k_lo.numerator * G // k_lo.denominator + 1
    return j_lo, -(-k_hi.numerator * G // k_hi.denominator) - 1


def _window(model: NumericalThreefold, beta: CurveClass, n: int, k_lo, k_hi, cache):
    """A table's (k_lo, k_hi, k_pt, seed), its arguments checked in order."""
    k_lo, k_hi = _as_fraction(k_lo), _as_fraction(k_hi)
    if not k_lo < k_hi:
        raise TableArgumentError(f"empty interval [{k_lo}, {k_hi}]")
    check_effective(model, beta)
    if beta.is_zero():
        raise TableArgumentError("chamber tables need a nonzero effective class")
    k_pt = -_mu(beta, n, cache) / 2
    if not k_lo < k_pt:
        raise TableArgumentError(
            f"interval must start below the seed bound k_pt = {show(k_pt)}, got k_lo = {show(k_lo)}"
        )
    return k_lo, k_hi, k_pt, _seed(model, beta, n)


def _jump_runs(model: NumericalThreefold, beta: CurveClass, n: int, cache, k_lo, k_hi, k_pt, seed):
    """The one jump sum of the tables and the series on a checked window, ``_window``'s or
    ``pt_symmetry_check``'s, over all its walls: the int j of each wall j/G with a nonzero
    jump, and the values of the runs, the seed as stored first."""
    G, _ = grid = _grid(beta, cache)
    js, values = [], [seed]
    for j, total in _jumps(model, beta, n, *_inside(G, k_lo, k_hi), cache):
        if total:
            js.append(j)
            values.append(values[-1] - total)
    # checked after every fill, so a fill's own error wins; no wall j/G below k_pt may jump
    if js and js[0] * k_pt.denominator < k_pt.numerator * G:
        chamber = Chamber(lo := Fraction(js[0], G), min(_next_above(grid, lo), k_hi))
        raise ModelDataError(
            f"model data violate the seed law: chamber {chamber} below "
            f"k_pt = {show(k_pt)} carries {show(values[1])} != seed {show(seed)}"
        )
    return js, values


def chamber_table(
    model: NumericalThreefold,
    beta: CurveClass,
    n: int,
    k_lo,
    k_hi,
    cache: Optional[TableCache] = None,
) -> ChamberTable:
    """March the seed across every wall of [k_lo, k_hi]: ``chamber_values``, and the report that
    explains each wall's jump.  Requires k_lo below the stable-pair bound so the seed anchors the
    leftmost chamber, and a seed entry for (n, beta)."""
    reports: List[WallReport] = []
    entries = _values(model, beta, n, k_lo, k_hi, _bound_cache(cache, model), reports)
    return ChamberTable(beta, n, (entries[0][0].lo, entries[-1][0].hi), entries, tuple(reports))


class SymmetryRow(NamedTuple):
    n: int
    p_plus: Fraction
    p_minus_derived: Fraction
    p_minus_seed: Optional[Fraction]
    count: Optional[Fraction]  # N(n, beta), None if absent
    relation_defect: Fraction  # (P_n - P_-n) - (-1)^(n-1) * n * N(n, beta)


class PTSymmetryReport(NamedTuple):
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
    check_effective(model, beta)  # _mu names the zero class
    if n_max < 1:
        raise TableArgumentError(f"n_max must be at least 1, got {n_max}")
    rows = []
    coeffs: Dict[int, Fraction] = {}
    for n in range(1, n_max + 1):
        k_pt, k_dual = -_mu(beta, n, cache) / 2, _mu(beta, -n, cache) / 2
        right = (k_dual + _next_above(_grid(beta, cache), k_dual)) / 2
        _, values = _jump_runs(model, beta, n, cache, k_pt - 1, right, k_pt, _seed(model, beta, n))
        # the split (beta, 0) puts the wall -n/(2 deg beta) in [k_pt, k_dual], so the last chamber
        # is not the first: it holds an int seed that no jump changed as a Fraction
        p_plus, p_minus = values[0], _as_fraction(values[-1])
        n_value = model.n_table.get((n, beta))
        defect = (p_plus - p_minus) - (-1) ** (n - 1) * n * (n_value or Fraction(0))
        rows.append(SymmetryRow(n, p_plus, p_minus, model.p_seed.get((-n, beta)), n_value, defect))
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
    quotients would.  A non-sheaf part comes before a bad ``k``.
    """
    for ch in parts:
        if shape(ch) != "sheaf":
            raise TableArgumentError(f"hn_sort takes sheaf-type classes only, got {ch}")
    k = Fraction(k)
    groups: Dict[Fraction, List[ChernCharacter]] = {}
    for ch in parts:
        groups.setdefault(slope(model, ch, k), []).append(ch)
    key = lambda c: (model.degree_vector(c.gamma), c.n, c.gamma)
    return [sorted(groups[mu], key=key) for mu in sorted(groups, reverse=True)]
