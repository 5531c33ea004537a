import itertools
import math
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from limitstab import geometry
from limitstab.errors import ModelDataError, TableArgumentError
from limitstab.geometry import (
    CurveClass,
    NumericalThreefold,
    _ConeIndex,
    _scaled_degrees,
    _split_rows,
    degree,
    effective_below,
    min_ch3,
    zero_class,
)
from limitstab.presets import conifold_double, conifold_pair, conifold_single

import reference_engine

F = Fraction


def _split_table(model, beta):
    """``_split_rows`` of beta as (beta1, deg beta1, beta2): each int degree over the scale D."""
    scale, scaled = _scaled_degrees(model)
    return tuple((b1, F(e, scale), b2) for e, b1, b2 in _split_rows(scaled, beta.coeffs))


def test_degree_examples():
    pair = conifold_pair(3, 2)
    assert degree(pair, CurveClass((1, 1))) == 5
    assert degree(pair, zero_class(2)) == 0
    assert degree(conifold_double(1), CurveClass((2,))) == 2


def test_degree_rejects_rank_mismatch():
    with pytest.raises(ValueError, match="rank"):
        degree(conifold_single(1), CurveClass((1, 0)))


def test_degree_vector_equals_the_oracle_degree_on_fraction_int_and_mixed_coordinates():
    model = NumericalThreefold(basis=[("A", F(1, 2)), ("B", 3), ("C", F(5, 3))], omega_cubed=1)
    for coeffs in [(0, 0, 0), (1, 2, 3), (4, 0, 7)]:
        expected = reference_engine.degree(model, CurveClass(coeffs))
        assert type(expected) is F
        for vector in (coeffs, tuple(map(F, coeffs)), (F(coeffs[0]), coeffs[1], F(coeffs[2]))):
            value = model.degree_vector(vector)
            assert (value, type(value)) == (expected, F)
    # a sheaf's ch2 has rational coordinates; a str coordinate is converted
    assert model.degree_vector((F(1, 3), -2, F(-7, 4))) == F(1, 6) - 6 - F(35, 12)
    assert model.degree_vector(("1/3", 0, F(0))) == F(1, 6)
    with pytest.raises(TableArgumentError, match="^rank mismatch in degree pairing$"):
        model.degree_vector((F(1), F(2)))


def test_effective_below_examples():
    single = conifold_single(1)
    assert set(effective_below(single, CurveClass((1,)))) == {
        CurveClass((0,)),
        CurveClass((1,)),
    }
    pair = conifold_pair(3, 2)
    assert set(effective_below(pair, CurveClass((1, 1)))) == {
        CurveClass((0, 0)),
        CurveClass((0, 1)),
        CurveClass((1, 0)),
        CurveClass((0, 2)),
        CurveClass((1, 1)),
    }
    double = conifold_double(1)
    assert set(effective_below(double, CurveClass((2,)))) == {
        CurveClass((0,)),
        CurveClass((1,)),
        CurveClass((2,)),
    }


def test_effective_below_rejects_non_effective():
    with pytest.raises(ValueError, match="effective"):
        effective_below(conifold_single(1), CurveClass((-1,)))


def test_effective_below_is_downward_closed():
    pair = conifold_pair(3, 2)
    cone = set(effective_below(pair, CurveClass((1, 1))))
    for gamma in cone:
        for i in range(gamma.rank):
            if gamma.coeffs[i] > 0:
                smaller = CurveClass(
                    tuple(c - (1 if j == i else 0) for j, c in enumerate(gamma.coeffs))
                )
                assert smaller in cone


def test_min_ch3_examples():
    assert min_ch3(conifold_single(1), zero_class(1)) == 0
    assert min_ch3(conifold_double(1), CurveClass((1,))) == 1
    assert min_ch3(conifold_pair(3, 2), CurveClass((0, 1))) == 1


def test_min_ch3_missing_entry_is_hard_error():
    # the double preset deliberately has no m entry for the doubled class
    with pytest.raises(ModelDataError, match=r"m_table has no entry for class \(2\)"):
        min_ch3(conifold_double(1), CurveClass((2,)))


def test_min_ch3_monotone_under_cone_inclusion():
    model = NumericalThreefold(
        basis=(("A", F(1)), ("B", F(2))),
        omega_cubed=F(6),
        m_table={
            CurveClass((a, b)): F(3 - 2 * a + b, 2)
            for a in range(5)
            for b in range(3)
            if (a, b) != (0, 0)
        },
    )
    b1, b2 = CurveClass((1, 1)), CurveClass((2, 1))
    n1 = set(effective_below(model, b1))
    n2 = set(effective_below(model, b2))
    assert n1 <= n2
    assert min_ch3(model, b1) >= min_ch3(model, b2)


def test_split_rows_examples():
    single = conifold_single(1)
    assert _split_table(single, CurveClass((1,))) == (
        (CurveClass((1,)), F(1), CurveClass((0,))),
    )
    double = conifold_double(1)
    assert set(_split_table(double, CurveClass((2,)))) == {
        (CurveClass((1,)), F(1), CurveClass((1,))),
        (CurveClass((2,)), F(2), CurveClass((0,))),
    }
    pair = conifold_pair(3, 2)
    assert set(_split_table(pair, CurveClass((1, 1)))) == {
        (CurveClass((1, 0)), F(3), CurveClass((0, 1))),
        (CurveClass((0, 1)), F(2), CurveClass((1, 0))),
        (CurveClass((1, 1)), F(5), CurveClass((0, 0))),
    }


small_classes = st.tuples(st.integers(0, 6), st.integers(0, 6)).map(CurveClass)


@given(small_classes, small_classes)
def test_degree_is_linear(g1, g2):
    pair = conifold_pair(3, 2)
    assert degree(pair, g1 + g2) == degree(pair, g1) + degree(pair, g2)


@given(small_classes)
def test_split_rows_split_degree_exactly(beta):
    pair = conifold_pair(3, 2)
    splits = _split_table(pair, beta)
    for b1, d1, b2 in splits:
        assert not b1.is_zero()
        assert b1.is_effective() and b2.is_effective()
        assert d1 == degree(pair, b1)
        assert degree(pair, b1) + degree(pair, b2) == degree(pair, beta)
    # the reference's splits, from its own cone walk, in the same order
    assert [(b1, b2) for b1, _, b2 in splits] == reference_engine._splits(pair, beta)


def _reference_cone(degrees, coeffs):
    """(degree, coeffs) of every lattice point of degree <= deg beta, sorted."""
    bound = sum(c * d for c, d in zip(coeffs, degrees))
    box = itertools.product(*(range(math.floor(bound / d) + 1) for d in degrees))
    return sorted(
        (sum(c * d for c, d in zip(g, degrees)), g)
        for g in box
        if sum(c * d for c, d in zip(g, degrees)) <= bound
    )


@st.composite
def _cone_cases(draw):
    rank = draw(st.integers(1, 3))
    degrees = [F(draw(st.integers(1, 4)), draw(st.integers(1, 4))) for _ in range(rank)]
    coeffs = tuple(draw(st.lists(st.integers(0, 3), min_size=rank, max_size=rank)))
    return degrees, coeffs


@settings(max_examples=60, deadline=None)
@given(case=_cone_cases(), data=st.data())
def test_effective_below_matches_the_sorted_box(case, data):
    degrees, coeffs = case
    reference = _reference_cone(degrees, coeffs)
    classes = [CurveClass(g) for _, g in reference if any(g)]
    m_table = {g: F(sum(g.coeffs) % 5 - 2) for g in classes}
    model = NumericalThreefold(
        basis=tuple((f"C{i}", d) for i, d in enumerate(degrees)),
        omega_cubed=F(1),
        m_table=m_table,
    )
    beta = CurveClass(coeffs)
    assert effective_below(model, beta) == [CurveClass(g) for _, g in reference]
    assert min_ch3(model, beta) == min(m_table.values(), default=F(0))
    if not classes:
        return
    # with classes removed, the error names the first absent one in cone order
    removed = data.draw(st.lists(st.sampled_from(classes), min_size=1, max_size=2))
    first = next(g for g in classes if g in removed)
    model = model._replace(m_table={g: v for g, v in m_table.items() if g not in removed})
    with pytest.raises(ModelDataError, match=f"^m_table has no entry for class {re.escape(str(first))} "):
        min_ch3(model, beta)


@settings(max_examples=60, deadline=None)
@given(case=_cone_cases())
def test_split_rows_match_the_sorted_box(case):
    degrees, coeffs = case
    model = NumericalThreefold(
        basis=tuple((f"C{i}", d) for i, d in enumerate(degrees)), omega_cubed=F(1)
    )
    # every nonzero beta1 of beta's box, with a test-local degree sum
    box = itertools.product(*(range(c + 1) for c in coeffs))
    reference = sorted(
        (sum(c * d for c, d in zip(g, degrees)), g) for g in box if any(g)
    )
    splits = _split_table(model, CurveClass(coeffs))
    assert type(_split_rows(_scaled_degrees(model)[1], coeffs)) is tuple
    assert [(d1, b1.coeffs) for b1, d1, _ in splits] == reference
    for b1, d1, b2 in splits:
        assert d1 == degree(model, b1)
        assert b1 + b2 == CurveClass(coeffs)
    expected = reference_engine._splits(model, CurveClass(coeffs))
    assert [(b1, b2) for b1, _, b2 in splits] == expected


@settings(max_examples=60, deadline=None)
@given(case=_cone_cases(), data=st.data())
def test_cone_index_growth_matches_the_sorted_box(case, data):
    # the index's degrees and running m minima, grown at once and in two steps, against the box
    degrees, coeffs = case
    reference = [(d, CurveClass(g)) for d, g in _reference_cone(degrees, coeffs) if any(g)]
    m_table = {g: F(sum(g.coeffs) % 5 - 2) for _, g in reference}
    missing = data.draw(st.sampled_from([None] + [g for _, g in reference]))
    model = NumericalThreefold(
        basis=tuple((f"C{i}", d) for i, d in enumerate(degrees)),
        omega_cubed=F(1),
        m_table={g: v for g, v in m_table.items() if g != missing},
    )
    scale = _scaled_degrees(model)[0]
    top = int(sum(c * d for c, d in zip(coeffs, degrees)) * scale)
    mins = []
    for _, g in reference[:[g for _, g in reference].index(missing) if missing else None]:
        mins.append(min(mins[-1:] + [m_table[g]]))
    at_once, in_two = _ConeIndex(model), _ConeIndex(model)
    at_once._grow(top)
    in_two._grow(data.draw(st.integers(0, top)))
    in_two._grow(top)
    for index in (at_once, in_two):
        assert index.degrees == [d * scale for d, _ in reference]
        assert (index.mins, index.missing, index.top) == (mins, missing, top)


def test_effective_below_computes_each_degree_once(monkeypatch):
    calls = []
    counted = lambda model, gamma: calls.append(gamma) or degree(model, gamma)
    monkeypatch.setattr(geometry, "degree", counted)
    rank3 = NumericalThreefold(
        basis=(("A", F(1, 2)), ("B", F(3, 4)), ("C", F(2))), omega_cubed=F(1)
    )
    for model, beta in (
        (conifold_single(1), CurveClass((3,))),
        (conifold_pair(3, 2), CurveClass((1, 1))),
        (conifold_double(1), CurveClass((2,))),
        (rank3, CurveClass((2, 1, 1))),
    ):
        bound = sum(c * d for c, d in zip(beta.coeffs, model.degrees))
        box = itertools.product(*(range(math.floor(bound / d) + 1) for d in model.degrees))
        calls.clear()
        effective_below(model, beta)
        # one call for the bound, then one per lattice point of the box
        assert calls == [beta] + [CurveClass(g) for g in box]


def test_split_rows_make_no_degree_call(monkeypatch):
    # the split degrees come from the scaled integer degrees, one Fraction each
    calls = []
    monkeypatch.setattr(geometry, "degree", lambda model, gamma: calls.append(gamma))
    rank3 = NumericalThreefold(
        basis=(("A", F(1, 2)), ("B", F(3, 4)), ("C", F(2))), omega_cubed=F(1)
    )
    for model, beta in (
        (conifold_single(1), CurveClass((3,))),
        (conifold_pair(3, 2), CurveClass((1, 1))),
        (rank3, CurveClass((2, 1, 1))),
    ):
        assert _split_table(model, beta)
    assert calls == []


def test_model_validation():
    with pytest.raises(ValueError, match="degree.*> 0"):
        NumericalThreefold(basis=(("C", F(0)),), omega_cubed=F(6))
    with pytest.raises(ValueError, match="omega_cubed"):
        NumericalThreefold(basis=(("C", F(1)),), omega_cubed=F(-1))
    with pytest.raises(ValueError, match="never stored"):
        NumericalThreefold(
            basis=(("C", F(1)),),
            omega_cubed=F(6),
            m_table={zero_class(1): F(0)},
        )


def _one_curve_model(m=F(1), n=F(1), p=F(1)):
    """One curve of degree 1 with every table set; ``m``, ``n`` and ``p`` fill m([C]),
    N(+-1,[C]), N(+-2,[C]) and P(-4..4,[C])."""
    c, cc = CurveClass((1,)), CurveClass((2,))
    return NumericalThreefold(
        basis=(("C", 1),), omega_cubed=6, m_table={c: m, cc: F(1)},
        n_table={(s * k, c): n for k in (1, 2) for s in (1, -1)}
        | {(s * k, cc): F(1) for k in (1, 2, 3) for s in (1, -1)},
        p_seed={(k, c): p for k in range(-4, 5)} | {(k, cc): F(1) for k in range(-4, 5)},
    )


@pytest.mark.parametrize("table, value, message", [
    # a str or float here used to crash, or leak floats into the entries, deep in a march
    ("m", 1.0, "m_table value 1.0 for class (1) is not an int or Fraction"),
    ("m", "1", "m_table value '1' for class (1) is not an int or Fraction"),
    ("n", "1", "n_table value '1' for (n=1, beta=(1)) is not an int or Fraction"),
    ("n", 1.0, "n_table value 1.0 for (n=1, beta=(1)) is not an int or Fraction"),
    ("p", "1", "p_seed value '1' for (n=-4, beta=(1)) is not an int or Fraction"),
    ("p", 1.0, "p_seed value 1.0 for (n=-4, beta=(1)) is not an int or Fraction"),
    ("p", True, "p_seed value True for (n=-4, beta=(1)) is not an int or Fraction"),
    ("n", None, "n_table value None for (n=1, beta=(1)) is not an int or Fraction"),
])
def test_model_tables_hold_ints_and_fractions_only(table, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        _one_curve_model(**{table: value})


def test_int_and_fraction_table_values_give_one_table():
    from limitstab.crossing import chamber_table

    beta = CurveClass((2,))
    tables = [
        chamber_table(_one_curve_model(m, n, p), beta, 2, -2, 1)
        for m, n, p in ((F(1), F(1), F(1)), (1, 1, 1), (1, F(1), 1))
    ]
    assert tables[0].merged() == ((-2, F(-1, 2), 1), (F(-1, 2), F(1, 2), 3), (F(1, 2), 1, 4))
    assert tables[1] == tables[0] == tables[2]
    assert all(type(v) is Fraction for t in tables for _, v in t.entries)


def test_value_types_are_immutable_named_tuples():
    from limitstab.charge import ChernCharacter, twisted_invariants
    from limitstab.crossing import chamber_table, pt_symmetry_check
    from limitstab.verify import run_verification
    from limitstab.walls import Chamber, wall_set

    double = conifold_double(1)
    table = chamber_table(double, CurveClass((2,)), 4, -2, 0)
    report = next(r for r in table.reports if r.terms)
    symmetry = pt_symmetry_check(double, CurveClass((1,)), 1)
    ch = ChernCharacter(-1, 0, (2,), 4)
    values = (
        CurveClass((2,)), double, ch, twisted_invariants(double, ch, -1),
        report.terms[0].datum, report.terms[0], report, table,
        table.entries[0][0], symmetry.rows[0], symmetry,
        wall_set(double, CurveClass((2,)), -1, 0), run_verification()[0],
    )
    assert len({type(v).__name__ for v in values}) == 13
    for value in values:
        assert isinstance(value, tuple)
        assert tuple(value) == tuple(getattr(value, f) for f in value._fields)
        for name in (value._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(value, name, None)

    # a class is hashed, ordered and compared as the tuple of its fields
    beta = CurveClass([F(1), 2.0])
    assert beta.coeffs == (1, 2) and all(type(c) is int for c in beta.coeffs)
    assert {CurveClass((1, 2)): "x"}[beta] == "x"
    assert hash(beta) == hash(((1, 2),)) and beta == ((1, 2),)
    assert sorted([CurveClass((1, 0)), CurveClass((0, 2)), CurveClass((0, 1))]) == [
        CurveClass((0, 1)), CurveClass((0, 2)), CurveClass((1, 0))
    ]
    lo, hi = Chamber(F(-1), F(0))
    assert (lo, hi) == (-1, 0) and Chamber(F(-1), F(0)) == (-1, 0)

    assert ch == (-1, 0, (2,), 4)
    assert all(type(x) is Fraction for x in (ch.r, ch.c, *ch.gamma, ch.n))
    with pytest.raises(ValueError, match="Invalid literal for Fraction: 'x'"):
        ChernCharacter(0, 0, (1,), "x")

    model = NumericalThreefold(basis=[("C", 2)], omega_cubed=6, c2_omega="1/2")
    assert model.basis == (("C", F(2)),) and type(model.basis[0][1]) is Fraction
    assert (model.omega_cubed, model.c2_omega) == (F(6), F(1, 2))
    for message, kwargs in (
        ("model needs at least one basis curve class", dict(basis=(), omega_cubed=-1)),
        (r"basis degree for 'C' must be > 0, got 0", dict(basis=[("C", 0)], omega_cubed=-1)),
        ("omega_cubed must be > 0", dict(basis=[("C", 1)], omega_cubed=0)),
        (r"m_table class \(1,1\) has wrong rank",
         dict(basis=[("C", 1)], omega_cubed=1, m_table={CurveClass((1, 1)): 1},
              n_table={(1, CurveClass((1, 1))): 1})),
        (r"p_seed class \(1,1\) has wrong rank",
         dict(basis=[("C", 1)], omega_cubed=1, p_seed={(1, CurveClass((1, 1))): 1})),
        (r"n_table class \(1,1\) has wrong rank",
         dict(basis=[("C", 1)], omega_cubed=1, n_table={(1, CurveClass((1, 1))): 1})),
        # the zero test comes before the rank test, and n_table before p_seed
        (r"m\(0\) = 0 is a convention, never stored",
         dict(basis=[("C", 1)], omega_cubed=1, m_table={CurveClass((0, 0)): 1})),
        (r"n_table class \(2,1\) has wrong rank",
         dict(basis=[("C", 1)], omega_cubed=1, n_table={(1, CurveClass((2, 1))): 1},
              p_seed={(1, CurveClass((1, 1))): 1})),
    ):
        with pytest.raises(ValueError, match=f"^{message}$"):
            NumericalThreefold(**kwargs)

    other = NumericalThreefold(basis=[("C", 2)], omega_cubed=6)
    for name in ("m_table", "n_table", "p_seed"):
        assert getattr(model, name) == {} and getattr(model, name) is not getattr(other, name)
