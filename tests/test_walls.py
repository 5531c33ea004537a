import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from limitstab.errors import ModelDataError, TableArgumentError
from limitstab.geometry import CurveClass, NumericalThreefold, degree, effective_below
from limitstab.presets import conifold_double, conifold_pair, conifold_single
from limitstab.walls import (
    Chamber,
    is_wall,
    mu_threshold,
    next_wall_above,
    pt_bounds,
    wall_set,
)

import reference_engine

F = Fraction


def test_wall_set_examples():
    single = conifold_single(1)
    ws = wall_set(single, CurveClass((1,)), -2, 0)
    assert ws.walls == (F(-2), F(-3, 2), F(-1), F(-1, 2), F(0))

    double = conifold_double(1)
    ws = wall_set(double, CurveClass((2,)), F(-7, 4), F(-3, 4))
    assert ws.walls == (F(-7, 4), F(-3, 2), F(-5, 4), F(-1), F(-3, 4))

    pair = conifold_pair(3, 2)
    ws = wall_set(pair, CurveClass((1, 1)), F(-3, 10), F(-1, 10))
    assert F(-1, 4) in ws.walls and F(-1, 5) in ws.walls


def test_wall_set_rejects_bad_input():
    single = conifold_single(1)
    with pytest.raises(ValueError, match="empty interval"):
        wall_set(single, CurveClass((1,)), 0, 0)
    with pytest.raises(ValueError, match="nonzero"):
        wall_set(single, CurveClass((0,)), -1, 0)
    # bad arguments, not bad model data: both raise the argument error class
    with pytest.raises(TableArgumentError, match=r"^empty interval \[1, 0\]$"):
        wall_set(single, CurveClass((1,)), 1, 0)
    with pytest.raises(TableArgumentError, match=r"^class \(1,1\) has rank 2, model has rank 1$"):
        wall_set(single, CurveClass((1, 1)), -1, 0)
    # checked in this order: interval, rank, effectivity, zero class
    for beta, k_lo, k_hi, text in (
        ((0,), 1, 0, r"^empty interval \[1, 0\]$"),
        ((-1,), 0, 0, r"^empty interval \[0, 0\]$"),
        ((0, 0), -1, 0, r"^class \(0,0\) has rank 2, model has rank 1$"),
        ((-1, 1), -1, 0, r"^class \(-1,1\) has rank 2, model has rank 1$"),
        ((-1,), -1, 0, r"^\(-1\) is not effective$"),
    ):
        for engine in (wall_set, reference_engine.wall_set):
            with pytest.raises(TableArgumentError, match=text):
                engine(single, CurveClass(beta), k_lo, k_hi)
    for query in (is_wall, next_wall_above):
        for beta, text in (
            ((0,), r"^wall set needs a nonzero class$"),
            ((0, 0), r"^class \(0,0\) has rank 2, model has rank 1$"),
            ((-1, 1), r"^class \(-1,1\) has rank 2, model has rank 1$"),
            ((-1,), r"^\(-1\) is not effective$"),
        ):
            with pytest.raises(TableArgumentError, match=text):
                query(single, CurveClass(beta), F(-1, 2))


def test_every_wall_reconstructs_as_half_integer_over_degree():
    pair = conifold_pair(3, 2)
    beta = CurveClass((1, 1))
    degs = {
        degree(pair, g) for g in effective_below(pair, beta) if not g.is_zero()
    }
    for w in wall_set(pair, beta, -1, 1).walls:
        assert any((2 * d * w).denominator == 1 for d in degs)


def test_mu_threshold_examples():
    single = conifold_single(2)
    assert mu_threshold(single, CurveClass((1,)), 5) == F(5, 2)
    double = conifold_double(1)
    assert mu_threshold(double, CurveClass((2,)), 4) == 3
    pair = conifold_pair(3, 2)
    assert mu_threshold(pair, CurveClass((1, 1)), 1) == F(1, 5)
    assert mu_threshold(pair, CurveClass((1, 1)), 2) == F(1, 2)


def test_mu_threshold_documented_discrepancy_on_the_doubled_class():
    # the defining maximum gives -3/(2d) for (2[C], -3); the narrated -2/d is
    # a weaker sufficient bound and is deliberately NOT reproduced
    double = conifold_double(1)
    assert mu_threshold(double, CurveClass((2,)), -3) == F(-3, 2)
    assert mu_threshold(double, CurveClass((2,)), 3) == 2
    assert mu_threshold(double, CurveClass((2,)), -4) == -2


def test_mu_threshold_admits_the_full_class_split():
    pair = conifold_pair(3, 2)
    beta = CurveClass((1, 1))
    for n in range(-4, 5):
        assert mu_threshold(pair, beta, n) >= F(n, 5)


def test_mu_threshold_nondecreasing_with_unit_increments():
    for model, beta in (
        (conifold_single(1), CurveClass((1,))),
        (conifold_pair(3, 2), CurveClass((1, 1))),
        (conifold_double(1), CurveClass((2,))),
    ):
        d = degree(model, beta)
        for n in range(-6, 6):
            lo = mu_threshold(model, beta, n)
            hi = mu_threshold(model, beta, n + 1)
            assert hi >= lo + 1 / d


def _brute_mu(degrees, m_table, coeffs, n):
    """mu(beta, n) from test-local splits, degrees and m bounds.

    Splits and cones are walked in (degree, coordinates) order, so a class
    without m data raises the engine's ModelDataError text.
    """
    deg = lambda g: sum(c * d for c, d in zip(g, degrees))

    def m(g2):
        box = itertools.product(*(range(math.floor(deg(g2) / d) + 1) for d in degrees))
        cone = [CurveClass(g) for g in box if any(g) and deg(g) <= deg(g2)]
        values = []
        for gamma in sorted(cone, key=lambda g: (deg(g.coeffs), g)):
            if gamma not in m_table:
                raise ModelDataError(
                    f"m_table has no entry for class {gamma} (needed for m({CurveClass(g2)}))"
                )
            values.append(m_table[gamma])
        return min(values, default=F(0))

    splits = sorted((g for g in itertools.product(*(range(c + 1) for c in coeffs)) if any(g)),
                    key=lambda g: (deg(g), g))
    return max((n - m(tuple(c - c1 for c, c1 in zip(coeffs, g1)))) / deg(g1) for g1 in splits)


def _mu_outcome(call):
    try:
        return ("ok", call())
    except ModelDataError as exc:
        return ("error", str(exc))


@st.composite
def _mu_cases(draw):
    rank = draw(st.integers(1, 3))
    degrees = [F(draw(st.integers(1, 4)), draw(st.integers(1, 4))) for _ in range(rank)]
    coeffs = draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank))
    if not any(coeffs):
        coeffs[draw(st.integers(0, rank - 1))] = draw(st.integers(1, 3))
    bound = sum(c * d for c, d in zip(coeffs, degrees))
    box = itertools.product(*(range(math.floor(bound / d) + 1) for d in degrees))
    m_values = st.sampled_from([F(-2), F(-3, 2), F(-1), F(0), F(1, 3), F(1), F(5, 2)])
    m_table = {
        CurveClass(g): draw(m_values)
        for g in box
        if any(g) and sum(c * d for c, d in zip(g, degrees)) <= bound
    }
    return degrees, m_table, tuple(coeffs), draw(st.integers(-4, 4))


@settings(max_examples=80, deadline=None)
@given(case=_mu_cases(), data=st.data())
def test_mu_threshold_matches_the_brute_force(case, data):
    degrees, m_table, coeffs, n = case
    model = NumericalThreefold(
        basis=tuple((f"C{i}", d) for i, d in enumerate(degrees)),
        omega_cubed=F(1),
        m_table=m_table,
    )
    beta = CurveClass(coeffs)
    assert mu_threshold(model, beta, n) == _brute_mu(degrees, m_table, coeffs, n)
    # one class removed: the same value when no split needs it, else the same error
    removed = data.draw(st.sampled_from(sorted(m_table)))
    m_table = {g: v for g, v in m_table.items() if g != removed}
    model = model._replace(m_table=m_table)
    expected = _mu_outcome(lambda: _brute_mu(degrees, m_table, coeffs, n))
    assert _mu_outcome(lambda: mu_threshold(model, beta, n)) == expected


def test_pt_bounds_examples():
    single = conifold_single(1)
    assert pt_bounds(single, CurveClass((1,)), 1) == (F(-1, 2), F(-1, 2))
    double = conifold_double(1)
    assert pt_bounds(double, CurveClass((2,)), 3)[0] == -1
    assert pt_bounds(double, CurveClass((2,)), 4)[0] == F(-3, 2)


def test_pt_bounds_land_on_the_wall_lattice():
    for model, beta in (
        (conifold_single(1), CurveClass((1,))),
        (conifold_pair(3, 2), CurveClass((1, 1))),
        (conifold_double(1), CurveClass((2,))),
    ):
        for n in range(-4, 5):
            k_pt, k_dual = pt_bounds(model, beta, n)
            assert is_wall(model, beta, k_pt)
            assert is_wall(model, beta, k_dual)


def _chambers(model, beta, k_lo, k_hi):
    """The chambers of beta's walls in [k_lo, k_hi], clipped to it, as chamber_table cuts them."""
    k_lo, k_hi = F(k_lo), F(k_hi)
    points = [k_lo, *(w for w in wall_set(model, beta, k_lo, k_hi).walls if k_lo < w < k_hi), k_hi]
    return [Chamber(a, b) for a, b in zip(points, points[1:])]


def test_chambers_examples():
    single = conifold_single(1)
    assert _chambers(single, CurveClass((1,)), -1, 0) == [
        Chamber(F(-1), F(-1, 2)),
        Chamber(F(-1, 2), F(0)),
    ]
    double = conifold_double(1)
    chs = _chambers(double, CurveClass((2,)), -2, F(-1, 2))
    assert Chamber(F(-3, 2), F(-5, 4)) in chs
    assert Chamber(F(-5, 4), F(-1)) in chs
    # no wall strictly inside a narrow window: one chamber spanning it
    tight = _chambers(single, CurveClass((1,)), F(-2, 5), F(-1, 10))
    assert tight == [Chamber(F(-2, 5), F(-1, 10))]


def test_next_wall_above():
    pair = conifold_pair(3, 2)
    beta = CurveClass((1, 1))
    assert next_wall_above(pair, beta, F(-1, 5)) == F(-1, 6)
    assert next_wall_above(pair, beta, F(-1, 10)) == F(0)
    single = conifold_single(1)
    assert next_wall_above(single, CurveClass((1,)), F(-1, 2)) == F(0)


def _reference_degrees(model, beta):
    return sorted({degree(model, g) for g in effective_below(model, beta) if not g.is_zero()})


@st.composite
def _grid_cases(draw):
    rank = draw(st.integers(1, 3))
    degs = [
        Fraction(draw(st.integers(1, 4)), draw(st.integers(1, 4))) for _ in range(rank)
    ]
    model = NumericalThreefold([(f"C{i}", d) for i, d in enumerate(degs)], 1)
    coeffs = draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank))
    if not any(coeffs):
        coeffs[draw(st.integers(0, rank - 1))] = draw(st.integers(1, 3))
    beta = CurveClass(coeffs)
    wall_degs = _reference_degrees(model, beta)

    def endpoint():
        if draw(st.booleans()):  # on a wall: m / (2d) for a drawn degree d
            d = draw(st.sampled_from(wall_degs))
            return Fraction(draw(st.integers(-12, 12)), 2 * d)
        return Fraction(draw(st.integers(-60, 60)), draw(st.integers(1, 12)))

    k_lo = endpoint()
    k_hi = endpoint()
    if k_hi == k_lo:
        k_hi += Fraction(1, 7)
    return model, beta, min(k_lo, k_hi), max(k_lo, k_hi)


@settings(max_examples=100, deadline=None)
@given(_grid_cases())
def test_integer_grid_matches_the_fraction_reference(case):
    model, beta, k_lo, k_hi = case
    walls = wall_set(model, beta, k_lo, k_hi)
    assert repr(walls) == repr(reference_engine.wall_set(model, beta, k_lo, k_hi))
    assert walls.interval == (k_lo, k_hi) and walls.beta == beta
    for k in (k_lo, k_hi, (k_lo + k_hi) / 2):
        assert is_wall(model, beta, k) == (k in reference_engine.walls_in(model, beta, k - 1, k + 1))
        # walls of a degree d >= 1/4 are at most 2 apart
        above = [w for w in reference_engine.walls_in(model, beta, k, k + 2) if w > k]
        assert next_wall_above(model, beta, k) == above[0]
