from fractions import Fraction

import pytest

from limitstab.errors import TableArgumentError
from limitstab.geometry import CurveClass, degree, effective_below
from limitstab.presets import conifold_double, conifold_pair, conifold_single
from limitstab.walls import (
    Chamber,
    chambers,
    is_wall,
    mu_threshold,
    next_wall_above,
    pt_bounds,
    wall_set,
)

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


def test_chambers_examples():
    single = conifold_single(1)
    assert chambers(single, CurveClass((1,)), -1, 0) == [
        Chamber(F(-1), F(-1, 2)),
        Chamber(F(-1, 2), F(0)),
    ]
    double = conifold_double(1)
    chs = chambers(double, CurveClass((2,)), -2, F(-1, 2))
    assert Chamber(F(-3, 2), F(-5, 4)) in chs
    assert Chamber(F(-5, 4), F(-1)) in chs
    # no wall strictly inside a narrow window: one chamber spanning it
    tight = chambers(single, CurveClass((1,)), F(-2, 5), F(-1, 10))
    assert tight == [Chamber(F(-2, 5), F(-1, 10))]


def test_next_wall_above():
    pair = conifold_pair(3, 2)
    beta = CurveClass((1, 1))
    assert next_wall_above(pair, beta, F(-1, 5)) == F(-1, 6)
    assert next_wall_above(pair, beta, F(-1, 10)) == F(0)
    single = conifold_single(1)
    assert next_wall_above(single, CurveClass((1,)), F(-1, 2)) == F(0)
