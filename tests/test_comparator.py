import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from limitstab.charge import (
    ch_of_pair,
    ch_of_points,
    ch_of_sheaf,
    dual,
    shape,
    slope,
    twisted_invariants,
    untwisted_slope,
)
from limitstab.comparator import (
    PhaseOrder,
    compare_phases,
    compare_phases_closed,
    cross_leading_term,
    destabilizing_threshold,
    phase_limit,
)
from limitstab.errors import TableArgumentError
from limitstab.geometry import CurveClass, NumericalThreefold

from _fuzz import (
    comparator_case,
    cross_value,
    oracle_cross_leading_term,
    random_in_scope_class,
    random_k,
    random_model,
    random_pair,
    random_sheaf,
)

F = Fraction


def model(omega_cubed=6, c2_omega=0, degrees=(1,)):
    return NumericalThreefold(
        basis=tuple((f"C{i+1}", F(d)) for i, d in enumerate(degrees)),
        omega_cubed=F(omega_cubed),
        c2_omega=F(c2_omega),
    )


def test_point_succeeds_shifted_point_ideal():
    X = model()
    point = ch_of_points(1, 1)
    ix1 = ch_of_pair(CurveClass((0,)), -1)
    for k in (F(0), F(-3), F(7, 5)):
        assert compare_phases(X, point, ix1, k) is PhaseOrder.SUCCEEDS
        assert compare_phases_closed(X, point, ix1, k) is PhaseOrder.SUCCEEDS


def test_equal_on_identical_classes():
    X = model()
    e = ch_of_pair(CurveClass((1,)), 2)
    assert compare_phases(X, e, e, F(1, 3)) is PhaseOrder.EQUAL


def test_sheaf_precedes_pair_in_the_slope_case():
    X = model()
    f = ch_of_sheaf(CurveClass((1,)), 1)
    e = ch_of_pair(CurveClass((1,)), 1)
    assert compare_phases(X, f, e, -1) is PhaseOrder.PRECEDES
    # exact large-m spot check
    assert cross_value(X, f, e, -1, 10**6) > 0


def test_closed_comparison_slope_and_tie_cases():
    X = model()
    e = ch_of_pair(CurveClass((2,)), 3)
    f1 = ch_of_sheaf(CurveClass((1,)), 1)  # slope 1 < 2 = -2k at k = -1
    assert compare_phases_closed(X, f1, e, -1) is PhaseOrder.PRECEDES
    f2 = ch_of_sheaf(CurveClass((1,)), 2)  # slope 2 = -2k: tie-break
    assert compare_phases_closed(X, f2, e, -1) is PhaseOrder.PRECEDES
    assert compare_phases(X, f2, e, -1) is PhaseOrder.PRECEDES


def test_closed_comparison_rejects_wrong_shapes():
    X = model()
    e = ch_of_pair(CurveClass((1,)), 1)
    with pytest.raises(TableArgumentError):
        compare_phases_closed(X, e, e, 0)
    with pytest.raises(TableArgumentError):
        compare_phases_closed(X, ch_of_sheaf(CurveClass((1,)), 0), ch_of_sheaf(CurveClass((1,)), 1), 0)


def test_zero_class_is_rejected():
    X = model()
    zero = ch_of_points(1, 1) + ch_of_points(1, -1)
    with pytest.raises(TableArgumentError):
        compare_phases(X, zero, ch_of_pair(CurveClass((1,)), 1), 0)


def test_phase_limits():
    X = model()
    assert phase_limit(X, ch_of_points(1, 5)) == 1
    assert phase_limit(X, ch_of_sheaf(CurveClass((1,)), -3)) == F(1, 2)
    assert phase_limit(X, ch_of_pair(CurveClass((1,)), 2)) == F(1, 2)
    assert phase_limit(X, ch_of_pair(CurveClass((0,)), 0)) == F(1, 2)


def test_destabilizing_threshold_examples():
    X = model()
    assert destabilizing_threshold(X, ch_of_sheaf(CurveClass((1,)), 1)) == F(-1, 2)
    assert destabilizing_threshold(X, ch_of_sheaf(CurveClass((1,)), 2)) == F(-1)
    assert destabilizing_threshold(X, ch_of_sheaf(CurveClass((2,)), 4)) == F(-1)
    with pytest.raises(TableArgumentError):
        destabilizing_threshold(X, ch_of_points(1, 1))


def test_threshold_contract_below_threshold_always_precedes():
    X = model()
    f = ch_of_sheaf(CurveClass((1,)), 2)
    k0 = destabilizing_threshold(X, f)
    for e_n in (-3, 0, 5):
        e = ch_of_pair(CurveClass((2,)), e_n)
        for dk in (F(1, 7), F(3), F(12)):
            assert compare_phases(X, f, e, k0 - dk) is PhaseOrder.PRECEDES
        assert compare_phases(X, f, e, k0 + F(1, 9)) is PhaseOrder.SUCCEEDS


def test_fuzz_agreement_antisymmetry_and_threshold():
    rng = random.Random(20240817)
    for _ in range(2000):
        X, f, e, k = comparator_case(rng)
        order = compare_phases(X, f, e, k)
        assert order is compare_phases_closed(X, f, e, k)
        assert compare_phases(X, e, f, k) is order.reversed()
        if order is not PhaseOrder.EQUAL:
            w = cross_value(X, f, e, k, 10**6)
            assert (w > 0) == (order is PhaseOrder.PRECEDES)
        if order is not PhaseOrder.PRECEDES and f.r == 0 and any(g != 0 for g in f.gamma):
            assert k >= -untwisted_slope(X, f) / 2


# six distinct points pin a polynomial of degree <= 5, and W has degree <= 5
SIX_POINTS = (1, 2, 3, 5, F(1, 2), F(-7, 3))


def test_duality_transport_negates_the_cross_polynomial():
    # restricted to sheaf-type F: the involution keeps sheaf and pair shapes
    # in scope, while a point class dualizes to a shifted class outside them
    rng = random.Random(99)
    for _ in range(500):
        X, f, e, k = comparator_case(rng)
        if f.r != 0 or all(g == 0 for g in f.gamma):
            continue
        for m in SIX_POINTS:
            assert cross_value(X, dual(f), dual(e), -k, m) == -cross_value(X, f, e, k, m)
        degree, lead = cross_leading_term(X, f, e, k)
        assert cross_leading_term(X, dual(f), dual(e), -k) == (degree, -lead)
        assert compare_phases(X, dual(f), dual(e), -k) is compare_phases(X, f, e, k).reversed()


def _minors(X, f, e, k):
    """W's coefficients of m^5 (without its factor omega^3/12), m^3 and m."""
    tf, te = twisted_invariants(X, f, k), twisted_invariants(X, e, k)
    m5 = tf.v0 * te.w1 - tf.w1 * te.v0
    m3 = (
        X.omega_cubed / 6 * (tf.v3 * te.v0 - tf.v0 * te.v3)
        + (tf.w1 * te.w2 - tf.w2 * te.w1) / 2
    )
    m1 = tf.w2 * te.v3 - tf.v3 * te.w2
    return m5, m3, m1


def test_minors_agree_with_the_product_route_on_every_in_scope_shape():
    rng = random.Random(60606)
    shape_pairs, degrees = set(), set()
    for _ in range(3000):
        X = random_model(rng)
        f, e = random_in_scope_class(X, rng), random_in_scope_class(X, rng)
        if shape(f) is None or shape(e) is None:
            continue
        k = random_k(rng)
        m5, m3, m1 = _minors(X, f, e, k)
        assert m5 == 0
        coefficients = {5: X.omega_cubed / 12 * m5, 3: m3, 1: m1}
        for m in SIX_POINTS:
            assert cross_value(X, f, e, k, m) == sum(c * m**d for d, c in coefficients.items())
        degree, lead = next(((d, c) for d, c in coefficients.items() if c), (-1, 0))
        assert cross_leading_term(X, f, e, k) == (degree, lead)
        assert compare_phases(X, f, e, k) is PhaseOrder((lead < 0) - (lead > 0))
        shape_pairs.add(frozenset((shape(f), shape(e))))
        degrees.add(degree)
    for pair in (("pair",), ("sheaf",), ("point",), ("point", "sheaf")):
        assert frozenset(pair) in shape_pairs
    assert degrees == {3, 1, -1}


def _model_and_shapes(draw):
    """A rank 1-2 model and the strategies of its points, sheaves and pairs."""
    rank = draw(st.integers(1, 2))
    X = model(draw(st.integers(1, 12)), draw(st.integers(-6, 6)),
              draw(st.lists(st.integers(1, 5), min_size=rank, max_size=rank)))
    gammas = st.lists(st.integers(0, 3), min_size=rank, max_size=rank).map(CurveClass)
    return X, (
        st.builds(ch_of_points, st.just(rank), st.integers(1, 20)),
        st.builds(ch_of_sheaf, gammas.filter(lambda g: not g.is_zero()), st.integers(-20, 20)),
        st.builds(ch_of_pair, gammas, st.integers(-20, 20)),
    )


@st.composite
def _in_scope_case(draw):
    """(model, F, E, k): rank 1-2, F and E each a point, sheaf or pair; when F
    is a sheaf, k sits on its threshold half of the time."""
    X, shapes = _model_and_shapes(draw)
    f, e = draw(st.one_of(shapes)), draw(st.one_of(shapes))
    if shape(f) == "sheaf" and draw(st.booleans()):
        return X, f, e, destabilizing_threshold(X, f)
    return X, f, e, draw(st.fractions(min_value=-24, max_value=24, max_denominator=12))


@settings(max_examples=200, deadline=None)
@given(case=_in_scope_case())
def test_leading_term_matches_a_w_built_from_the_graded_oracle(case):
    """W multiplied out from ``oracle_invariants``, which shares no code with
    ``twisted_invariants``, has the leading term that the minors give."""
    assert cross_leading_term(*case) == oracle_cross_leading_term(*case)


@st.composite
def _tie_case(draw):
    """(model, F, E, k): rank 1-2, F a sheaf, E a pair, k = -mu0(F)/2."""
    X, (_, sheaves, pairs) = _model_and_shapes(draw)
    f = draw(sheaves)
    return X, f, draw(pairs), destabilizing_threshold(X, f)


@settings(max_examples=200, deadline=None)
@given(case=_tie_case())
def test_the_closed_tie_break_orders_w2_times_the_twisted_slope_against_v3(case):
    """On the threshold both routes order w2(E) * slope(F, k) against v3(E)."""
    X, f, e, k = case
    te = twisted_invariants(X, e, k)
    lhs = te.w2 * slope(X, f, k)
    order = PhaseOrder((lhs > te.v3) - (lhs < te.v3))
    assert compare_phases_closed(X, f, e, k) is order
    assert compare_phases(X, f, e, k) is order


def test_the_m_minor_decides_for_a_sheaf_at_its_threshold():
    rng = random.Random(7007)
    orders = set()
    for _ in range(500):
        X = random_model(rng)
        f, e = random_sheaf(X, rng), random_pair(X, rng)
        k = destabilizing_threshold(X, f)
        m5, m3, m1 = _minors(X, f, e, k)
        assert m5 == m3 == 0
        order = PhaseOrder(-((m1 > 0) - (m1 < 0)))
        assert compare_phases(X, f, e, k) is order
        assert compare_phases_closed(X, f, e, k) is order
        orders.add(order)
    assert orders == set(PhaseOrder)
