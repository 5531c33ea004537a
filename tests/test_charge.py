from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from limitstab.charge import (
    POINT_SLOPE,
    ChernCharacter,
    PointSlope,
    ch_of_pair,
    ch_of_points,
    ch_of_sheaf,
    dual,
    shape,
    slope,
    twisted_invariants,
)
from limitstab.errors import TableArgumentError
from limitstab.geometry import CurveClass, NumericalThreefold

from _fuzz import oracle_invariants

F = Fraction


def model(omega_cubed=6, c2_omega=0, degrees=(1,)):
    return NumericalThreefold(
        basis=tuple((f"C{i+1}", F(d)) for i, d in enumerate(degrees)),
        omega_cubed=F(omega_cubed),
        c2_omega=F(c2_omega),
    )


rational = st.fractions(min_value=F(-10), max_value=F(10), max_denominator=6)


@settings(max_examples=300, deadline=None)
# both sides of the c != 0 branch, each at k = 0 (an int, converted) and k != 0
@example(r=-1, c=0, g=(F(2), F(1, 3)), n=F(-3), k=0, w3=6, c2w=-2)
@example(r=-1, c=0, g=(F(2), F(1, 3)), n=F(-3), k=F(-5, 2), w3=6, c2w=-2)
@example(r=0, c=0, g=(F(1), F(0)), n=F(4), k=0, w3=1, c2w=12)
@example(r=0, c=0, g=(F(1), F(0)), n=F(4), k=F(7, 3), w3=1, c2w=12)
@example(r=0, c=1, g=(F(0), F(-1, 2)), n=F(1, 5), k=0, w3=4, c2w=5)
@example(r=0, c=1, g=(F(0), F(-1, 2)), n=F(1, 5), k=F(-1, 6), w3=4, c2w=5)
# r != 0 with c - k*r = 0 (no c2 term in v3), r = 2 at c = 0 (every rank term),
# and r = 0 at c != 0 with a nonzero k (the c terms but no rank term)
@example(r=1, c=1, g=(F(1), F(2)), n=F(-2), k=F(1), w3=6, c2w=7)
@example(r=2, c=0, g=(F(3), F(-1, 3)), n=F(5, 2), k=F(-3, 4), w3=5, c2w=-9)
@example(r=0, c=-3, g=(F(2), F(1)), n=F(-7), k=F(5, 2), w3=3, c2w=-11)
@given(
    r=st.integers(-2, 2),
    c=st.integers(-3, 3),
    g=st.tuples(rational, rational),
    n=rational,
    k=rational,
    w3=st.integers(1, 12),
    c2w=st.integers(-12, 12),
)
def test_twisted_invariants_match_graded_expansion(r, c, g, n, k, w3, c2w):
    X = model(w3, c2w, degrees=(1, 3))
    ch = ChernCharacter(F(r), F(c), g, n)
    got = twisted_invariants(X, ch, k)
    assert (got.v0, got.w1, got.w2, got.v3) == oracle_invariants(X, ch, k)
    assert all(type(x) is Fraction for x in got)


def test_twisted_invariants_match_the_oracle_on_the_whole_r_c_grid():
    """Every r in [-2, 2] and c in [-3, 3], at k = 0, two nonzero k and, for
    r != 0, the k = c/r at which the twisted c vanishes."""
    X = model(5, -9, degrees=(1, 3))
    for r in range(-2, 3):
        for c in range(-3, 4):
            ch = ChernCharacter(F(r), F(c), (F(3), F(-1, 3)), F(5, 2))
            for k in (0, F(-3, 4), F(7, 3)) + ((F(c, r),) if r else ()):
                got = twisted_invariants(X, ch, k)
                assert tuple(got) == oracle_invariants(X, ch, k)
                assert all(type(x) is Fraction for x in got)


def test_twisted_invariants_examples():
    X = model(6, 0)
    ch = ch_of_pair(CurveClass((1,)), 1)
    t0 = twisted_invariants(X, ch, 0)
    assert (t0.v0, t0.w1, t0.w2, t0.v3) == (-1, 0, 1, 1)
    tp = twisted_invariants(X, ch_of_points(1, 1), F(7, 3))
    assert (tp.v0, tp.w1, tp.w2, tp.v3) == (0, 0, 0, 1)
    t1 = twisted_invariants(X, ch, 1)
    assert (t1.v0, t1.w1, t1.w2, t1.v3) == (-1, 6, -2, 1)


def test_a_chern_character_keeps_its_fraction_inputs_and_converts_the_rest():
    r, c, gamma, n = F(-1), F(1, 2), (F(3), F(-1, 3)), F(5, 2)
    ch = ChernCharacter(r, c, gamma, n)
    assert ch.r is r and ch.c is c and ch.n is n
    assert all(a is b for a, b in zip(ch.gamma, gamma, strict=True))
    for converted in (ChernCharacter(-1, "1/2", (3, "-1/3"), "5/2"),
                      ChernCharacter(-1, c, [3, F(-1, 3)], 2.5)):
        assert converted == (r, c, gamma, n)
        assert {type(x) for x in (converted.r, converted.c, *converted.gamma, converted.n)} == {F}


def test_ch_of_pair_examples():
    ch = ch_of_pair(CurveClass((1,)), 1)
    assert (ch.r, ch.c, ch.gamma, ch.n) == (-1, 0, (F(1),), 1)
    ox1 = ch_of_pair(CurveClass((0,)), 0)
    assert shape(ox1) == "pair" and ox1.gamma == (F(0),) and ox1.n == 0
    ch2 = ch_of_pair(CurveClass((2,)), 4)
    assert (ch2.r, ch2.gamma, ch2.n) == (-1, (F(2),), 4)


def test_ch_of_pair_rejects_a_non_effective_class():
    with pytest.raises(TableArgumentError, match=r"^\(-1\) is not effective$"):
        ch_of_pair(CurveClass((-1,)), 1)


def test_charge_polynomial_examples():
    """The scalars give Z(m) = (-v3 + w1 m^2/2) + i (w2 m - omega^3 v0 m^3/6)."""
    X = model(6, 0)
    # a point: Z = -1
    assert twisted_invariants(X, ch_of_points(1, 1), F(5, 7)) == (0, 0, 0, 1)
    # a sheaf: Z = -1 + i m
    assert twisted_invariants(X, ch_of_sheaf(CurveClass((1,)), 1), 0) == (0, 0, 1, 1)
    # a pair: Z = -1 + i (m + m^3)
    assert twisted_invariants(X, ch_of_pair(CurveClass((1,)), 1), 0) == (-1, 0, 1, 1)


@settings(max_examples=150, deadline=None)
@given(
    n1=rational,
    n2=rational,
    g1=st.tuples(rational),
    g2=st.tuples(rational),
    k=rational,
)
def test_charge_polynomial_is_additive(n1, n2, g1, g2, k):
    """The scalars, and so Z(m), add over a sum of classes."""
    X = model(6, 2)
    a = ChernCharacter(F(-1), F(0), g1, n1)
    b = ChernCharacter(F(0), F(0), g2, n2)
    summed = zip(twisted_invariants(X, a, k), twisted_invariants(X, b, k))
    assert twisted_invariants(X, a + b, k) == tuple(x + y for x, y in summed)


def test_dual_is_an_involution_and_flips_n():
    ch = ch_of_pair(CurveClass((2,)), 3)
    assert dual(ch) == ChernCharacter(F(-1), F(0), (F(2),), F(-3))
    assert dual(dual(ch)) == ch
    sheaf = ch_of_sheaf(CurveClass((1,)), 5)
    assert dual(sheaf) == ChernCharacter(F(0), F(0), (F(1),), F(-5))


@settings(max_examples=200, deadline=None)
@given(
    r=st.integers(-2, 2),
    c=st.integers(-3, 3),
    g=st.tuples(rational),
    n=rational,
    k=rational,
)
def test_dual_charge_is_minus_conjugate(r, c, g, n, k):
    """Z at (-k) of the dual class equals -conj(Z at k): re flips, im stays,
    so w1 and v3 change sign while v0 and w2 keep theirs."""
    X = model(6, 4)
    ch = ChernCharacter(F(r), F(c), g, n)
    t = twisted_invariants(X, ch, k)
    assert twisted_invariants(X, dual(ch), -F(k)) == (t.v0, -t.w1, t.w2, -t.v3)


def test_slope_examples():
    X = model(6, 0)
    for k, want in ((0, 1), (F(0), 1), (-1, 2), (F(1, 3), F(2, 3))):
        got = slope(X, ch_of_sheaf(CurveClass((1,)), 1), k)
        assert got == want and type(got) is Fraction
    assert slope(X, ch_of_points(1, 1), 2) is POINT_SLOPE


def test_point_slope_dominates_every_rational():
    assert POINT_SLOPE > F(10**9)
    assert not POINT_SLOPE < F(10**9)
    assert POINT_SLOPE <= PointSlope()


def test_slope_rejects_bad_classes():
    X = model(6, 0)
    with pytest.raises(TableArgumentError):
        slope(X, ch_of_pair(CurveClass((1,)), 1), 0)
    with pytest.raises(TableArgumentError, match="not a nonzero sheaf class"):
        slope(X, ChernCharacter(F(0), F(0), (F(0),), F(-2)), 0)


def test_shape_classification():
    assert shape(ch_of_points(2, 3)) == "point"
    assert shape(ch_of_sheaf(CurveClass((0, 1)), -7)) == "sheaf"
    assert shape(ch_of_pair(CurveClass((0, 0)), 0)) == "pair"
    assert shape(ChernCharacter(F(0), F(0), (F(0),), F(0))) is None
    assert shape(ChernCharacter(F(2), F(0), (F(0),), F(0))) is None
    assert shape(ChernCharacter(F(0), F(0), (F(-1),), F(0))) is None
