import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from limitstab import crossing
from limitstab.charge import ch_of_sheaf
from limitstab.comparator import destabilizing_threshold
from limitstab.crossing import (
    TableCache,
    WallDatum,
    chamber_table,
    cross_wall,
    enumerate_wall_data,
    hn_sort,
    invariant_value,
    l_at_wall,
    pt_symmetry_check,
)
from limitstab.errors import ModelDataError
from limitstab.geometry import CurveClass, degree
from limitstab.presets import conifold_double, conifold_pair, conifold_single
from limitstab.walls import pt_bounds

F = Fraction
C1_ = CurveClass((1,))
C2_ = CurveClass((2,))
PAIR_BETA = CurveClass((1, 1))


def test_enumerate_wall_data_examples():
    double = conifold_double(1)
    assert enumerate_wall_data(double, C2_, 3, F(-3, 2)) == []

    data = enumerate_wall_data(double, C2_, 4, F(-1))
    assert data == [
        WallDatum(F(-1), C1_, 2, C1_, 2),
        WallDatum(F(-1), C2_, 4, CurveClass((0,)), 0),
    ]

    pair = conifold_pair(3, 2)
    assert enumerate_wall_data(pair, PAIR_BETA, 2, F(-1, 4)) == [
        WallDatum(F(-1, 4), CurveClass((0, 1)), 1, CurveClass((1, 0)), 1)
    ]


def test_enumerate_skips_non_integral_slopes():
    pair = conifold_pair(3, 2)
    # mu = 1/2 at k0 = -1/4: deg-3 and deg-5 splittings would need n1 = 3/2, 5/2
    data = enumerate_wall_data(pair, PAIR_BETA, 2, F(-1, 4))
    assert all(d.beta1 == CurveClass((0, 1)) for d in data)


def test_l_at_wall_examples():
    pair = conifold_pair(3, 2)
    assert l_at_wall(pair, CurveClass((0, 0)), 0, F(7, 3)) == 1
    assert l_at_wall(pair, CurveClass((0, 0)), 2, F(-1)) == 0
    # k0 = -1/4 sits left of the deg-3 curve's only wall at -1/6
    assert l_at_wall(pair, CurveClass((1, 0)), 1, F(-1, 4)) == 1
    double = conifold_double(1)
    # -1 is the wall of ([C], 2) itself: toward-zero (right) value applies
    assert l_at_wall(double, C1_, 2, F(-1)) == 0


def test_cross_wall_examples():
    pair = conifold_pair(3, 2)
    l_plus, report = cross_wall(pair, PAIR_BETA, 2, F(-1, 4), F(-1))
    assert (l_plus, report.total) == (-2, 1)
    assert len(report.terms) == 1 and report.terms[0].contribution == 1

    double = conifold_double(1)
    l_plus, report = cross_wall(double, C2_, 4, F(-1), F(1))
    assert l_plus == 0 and report.total == 1
    contribs = {(t.datum.beta1, t.datum.n1): t.contribution for t in report.terms}
    assert contribs == {(C2_, 4): F(1), (C1_, 2): F(0)}

    l_plus, report = cross_wall(double, C2_, 3, F(-3, 2), F(-2))
    assert l_plus == -2 and report.terms == ()


def test_chamber_table_examples():
    single = conifold_single(1)
    t = chamber_table(single, C1_, 1, -1, 0)
    assert t.merged() == ((F(-1), F(-1, 2), F(1)), (F(-1, 2), F(0), F(0)))

    double = conifold_double(1)
    t = chamber_table(double, C2_, 4, -2, 0)
    assert [v for _, _, v in t.merged()] == [4, 1, 0]
    assert t.effective_walls() == (F(-3, 2), F(-1))

    pair = conifold_pair(3, 2)
    t = chamber_table(pair, PAIR_BETA, 2, F(-1, 2), 0)
    assert [v for _, _, v in t.merged()] == [-1, -2, 0]
    assert t.effective_walls() == (F(-1, 4), F(-1, 5))


def test_chamber_table_requires_seed_coverage():
    single = conifold_single(1)
    with pytest.raises(ValueError, match="below the seed bound"):
        chamber_table(single, C1_, 1, F(-1, 4), 0)
    with pytest.raises(ModelDataError, match="p_seed has no entry"):
        chamber_table(single, C1_, 7, -10, 0)


def test_telescoping_identity():
    for model, beta, n, lo, hi in (
        (conifold_single(1), C1_, 3, F(-5, 2), F(0)),
        (conifold_pair(3, 2), PAIR_BETA, 2, F(-1, 2), F(0)),
        (conifold_double(1), C2_, 4, F(-2), F(0)),
    ):
        t = chamber_table(model, beta, n, lo, hi)
        total = sum((r.total for r in t.reports), F(0))
        assert t.entries[-1][1] == t.seed - total


def test_chamber_constancy_at_interior_points():
    double = conifold_double(1)
    t = chamber_table(double, C2_, 4, -2, 0)
    cache = TableCache()
    for chamber, value in t.entries:
        span = chamber.hi - chamber.lo
        for frac in (F(1, 4), F(1, 2), F(3, 4)):
            point = chamber.lo + span * frac
            assert invariant_value(double, C2_, 4, point, cache=cache) == value


def test_endpoint_law():
    for model, beta, n in (
        (conifold_single(1), C1_, 2),
        (conifold_pair(3, 2), PAIR_BETA, 2),
        (conifold_double(1), C2_, 4),
    ):
        k_pt, k_dual = pt_bounds(model, beta, n)
        assert invariant_value(model, beta, n, k_pt - F(1, 7)) == model.p_seed[(n, beta)]
        dual_seed = model.p_seed[(-n, beta)]
        assert invariant_value(model, beta, n, k_dual + F(1, 1000)) == dual_seed


def test_recursion_strictly_shrinks_the_remainder_class():
    double = conifold_double(1)
    for k0 in (F(-3, 2), F(-1), F(-1, 2)):
        for datum in enumerate_wall_data(double, C2_, 4, k0):
            assert degree(double, datum.beta2) < degree(double, C2_)


_CACHE_TAKING_CALLS = {
    "chamber_table": lambda m, cache: chamber_table(m, C1_, 2, -2, 0, cache).entries,
    "cross_wall": lambda m, cache: cross_wall(m, C1_, 2, -1, F(-2), cache),
    "l_at_wall": lambda m, cache: l_at_wall(m, C1_, 2, F(-1, 2), cache),
    "invariant_value": lambda m, cache: invariant_value(m, C1_, 2, -1, True, cache),
    "pt_symmetry_check": lambda m, cache: pt_symmetry_check(m, C1_, 3, cache),
}


def test_cache_refuses_a_second_model(monkeypatch):
    single = conifold_single(1)
    made = []
    for name, call in _CACHE_TAKING_CALLS.items():
        cache = TableCache()
        pt_symmetry_check(single, C1_, 4, cache)
        # cache=None builds whatever class the module name TableCache holds now
        monkeypatch.setattr(crossing, "TableCache", lambda: made.append(name) or TableCache())
        assert call(single, cache) == call(single, None), name
        assert made[-1] == name
        monkeypatch.undo()
        with pytest.raises(ValueError, match="shared between models"):
            call(conifold_single(2), cache)


def test_mirror_tables_stay_exact_fractions():
    # negative n1 exercises the sign coefficient; it must stay an int, never
    # a float from a negative power of -1
    double = conifold_double(1)
    cache = TableCache()
    t = chamber_table(double, C2_, -4, F(0), F(2), cache)
    assert [v for _, _, v in t.merged()] == [0, 1, 4]
    for _, value in t.entries:
        assert type(value) is F
    for report in t.reports:
        assert type(report.total) is F
        for term in report.terms:
            assert type(term.coefficient) is int
            assert type(term.contribution) is F


def test_pt_symmetry_check_single():
    single = conifold_single(1)
    report = pt_symmetry_check(single, C1_, 4)
    for row in report.rows:
        assert row.p_plus == F((-1) ** (row.n - 1) * row.n)
        assert row.p_minus_derived == 0
        assert row.p_minus_seed == 0
        assert row.relation_defect == 0
    assert report.max_defect == 0
    assert dict(report.laurent) == {
        1: 1, -1: 0, 2: -2, -2: 0, 3: 3, -3: 0, 4: -4, -4: 0
    }


def test_dual_side_counts_vanish_for_the_double_preset():
    double = conifold_double(1)
    # dual-chamber values: the n = 3 and n = 4 tables both end at 0
    assert invariant_value(double, C2_, 3, F(1, 100)) == 0
    assert invariant_value(double, C2_, 4, F(1, 100)) == 0


def test_missing_count_is_flagged_not_fatal():
    double = conifold_double(1)
    # at k0 = -1/4 the only datum needs N(1, 2[C]), absent from the preset
    l_plus, report = cross_wall(double, C2_, 4, F(-1, 4), F(0))
    assert l_plus == 0
    assert any(t.missing_n for t in report.terms)
    assert all(t.contribution == 0 for t in report.terms)


def test_effective_walls_sit_at_comparator_thresholds():
    # the jumping walls of each table are exactly the twists at which the
    # comparator's threshold says the jump's sheaf datum starts to win
    double = conifold_double(1)
    t4 = chamber_table(double, C2_, 4, -2, 0)
    assert t4.effective_walls() == (
        destabilizing_threshold(double, ch_of_sheaf(C1_, 3)),
        destabilizing_threshold(double, ch_of_sheaf(C2_, 4)),
    )
    t3 = chamber_table(double, C2_, 3, -2, 0)
    assert t3.effective_walls() == (
        destabilizing_threshold(double, ch_of_sheaf(C1_, 2)),
    )
    pair = conifold_pair(3, 2)
    t2 = chamber_table(pair, PAIR_BETA, 2, F(-1, 2), 0)
    assert t2.effective_walls() == (
        destabilizing_threshold(pair, ch_of_sheaf(CurveClass((0, 1)), 1)),
        destabilizing_threshold(pair, ch_of_sheaf(PAIR_BETA, 2)),
    )
    single = conifold_single(1)
    for n in range(1, 5):
        t = chamber_table(single, C1_, n, F(-n, 2) - 1, 0 if n > 1 else F(1, 4))
        assert t.effective_walls() == (
            destabilizing_threshold(single, ch_of_sheaf(C1_, n)),
        )


def test_hn_sort_examples_and_properties():
    single = conifold_single(1)
    a = ch_of_sheaf(C1_, 1)
    b = ch_of_sheaf(C1_, 3)
    groups = hn_sort(single, [a, b], 0)
    assert groups == [[b], [a]]
    assert hn_sort(single, [a], 0) == [[a]]
    c = ch_of_sheaf(C1_, 2)
    d = ch_of_sheaf(C2_, 4)
    assert hn_sort(single, [c, d], 0) == [[c, d]]
    with pytest.raises(ValueError, match="sheaf-type"):
        hn_sort(single, [ch_of_sheaf(C1_, 1), ch_of_sheaf(CurveClass((0,)), 0)], 0)


@settings(max_examples=200, deadline=None)
@given(
    parts=st.lists(
        st.tuples(st.integers(1, 4), st.integers(-12, 12)), min_size=1, max_size=8
    ),
    k_num=st.integers(-12, 12),
    k_den=st.integers(1, 6),
)
def test_hn_sort_is_idempotent_and_strictly_decreasing(parts, k_num, k_den):
    single = conifold_single(1)
    k = F(k_num, k_den)
    chs = [ch_of_sheaf(CurveClass((d,)), n) for d, n in parts]
    groups = hn_sort(single, chs, k)
    slopes = [F(g[0].n, 1) / single.degree_vector(g[0].gamma) - k for g in groups]
    assert slopes == sorted(slopes, reverse=True)
    assert len(set(slopes)) == len(slopes)
    flat = [ch for g in groups for ch in g]
    assert hn_sort(single, flat, k) == groups
    # concatenating two sorted outputs and re-sorting changes nothing
    resorted = hn_sort(single, flat + flat, k)
    assert [len(g) for g in resorted] == [2 * len(g) for g in groups]
