import io
import itertools
import math
import random
import re
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from limitstab import cli, crossing, geometry, walls
from limitstab.charge import ch_of_sheaf
from limitstab.comparator import destabilizing_threshold
from limitstab.crossing import (
    SymmetryRow,
    TableCache,
    WallDatum,
    chamber_runs,
    chamber_table,
    chamber_values,
    cross_wall,
    enumerate_wall_data,
    hn_sort,
    invariant_value,
    l_at_wall,
    merge_runs,
    pt_symmetry_check,
)
from limitstab.errors import ModelDataError, TableArgumentError
from limitstab.geometry import (
    CurveClass,
    NumericalThreefold,
    _ConeIndex,
    _scaled_degrees,
    _split_rows,
    degree,
    min_ch3,
)
from limitstab.presets import conifold_double, conifold_pair, conifold_single
from limitstab.verify import reference_tables
from limitstab.walls import _grid_of, _wall_grid, mu_threshold, next_wall_above, pt_bounds, wall_set

import reference_engine
from test_synthetic_model import _replaced, heavy_curve_model

F = Fraction
cone_m = _ConeIndex.m
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
    with pytest.raises(TableArgumentError, match="below the seed bound"):
        chamber_table(single, C1_, 1, F(-1, 4), 0)
    for beta, text in ((CurveClass((0,)), "chamber tables need a nonzero effective class"),
                       (CurveClass((-1,)), "(-1) is not effective")):
        with pytest.raises(TableArgumentError, match=f"^{re.escape(text)}$"):
            chamber_table(single, beta, 1, -1, 0)
    with pytest.raises(ModelDataError, match="p_seed has no entry"):
        chamber_table(single, C1_, 7, -10, 0)


def test_chamber_table_rejects_an_empty_interval_before_its_other_checks():
    single = conifold_single(1)  # k_pt = -1/2 for n = 1, and a seed exists
    for k_lo, k_hi in ((F(-1), F(-1)), (F(-1), F(-2)), (F(-3, 4), F(-5, 4))):
        with pytest.raises(TableArgumentError, match=rf"^empty interval \[{k_lo}, {k_hi}\]$"):
            chamber_table(single, C1_, 1, k_lo, k_hi)
    # the interval is checked first: before the class, the seed bound and the seed
    for beta, n, k_lo, k_hi in ((C1_, 1, 0, -1), (C1_, 7, -10, -11), (CurveClass((-1,)), 1, 0, -1),
                                (CurveClass((0,)), 1, 0, -1), (CurveClass((1, 1)), 1, 0, -1)):
        with pytest.raises(TableArgumentError, match=rf"^empty interval \[{k_lo}, {k_hi}\]$"):
            chamber_table(single, beta, n, k_lo, k_hi)
    # then the rank and effectivity of the class, its zero class, the seed bound, the seed
    for beta, n, k_lo, text in (
        (CurveClass((0, 0)), 1, 0, "class (0,0) has rank 2, model has rank 1"),
        (CurveClass((-1,)), 7, 0, "(-1) is not effective"),
        (CurveClass((0,)), 7, 0, "chamber tables need a nonzero effective class"),
        (C1_, 7, 0, "interval must start below the seed bound k_pt = -7/2, got k_lo = 0"),
    ):
        with pytest.raises(TableArgumentError, match=f"^{re.escape(text)}$"):
            chamber_table(single, beta, n, k_lo, 1)
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
        with pytest.raises(TableArgumentError, match="shared between models"):
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


def test_pt_symmetry_check_reads_right_of_a_positive_k_dual():
    # m([C]) = -2: the split ([C], [C]) gives mu(2[C], -1) = (-1 + 2)/1 = 1,
    # so k_dual = 1/2 lies right of 0, unlike on every preset
    model = NumericalThreefold(
        basis=[("C", 1)],
        omega_cubed=1,
        m_table={C1_: F(-2), C2_: F(-2)},
        n_table={(1, C1_): F(1), (-1, C1_): F(1)},
        p_seed={**{(n, C1_): F(1) for n in range(-3, 4)}, (1, C2_): F(0)},
    )
    k_dual = pt_bounds(model, C2_, 1)[1]
    assert (k_dual, next_wall_above(model, C2_, k_dual)) == (F(1, 2), F(3, 4))
    (row,) = pt_symmetry_check(model, C2_, 1).rows
    assert row.p_minus_derived == invariant_value(model, C2_, 1, F(5, 8)) == 0
    # the chamber (-1/2, 1/2) below k_dual holds another value
    assert chamber_table(model, C2_, 1, -2, 1).merged() == (
        (F(-2), F(-1, 2), F(0)), (F(-1, 2), F(1, 2), F(-1)), (F(1, 2), F(1), F(0))
    )
    assert (row.p_plus, row.relation_defect) == (0, 0)


def _symmetry_rows_from(fill, model, beta, n_max, cache=None):
    """``pt_symmetry_check``'s rows as its route through ``fill`` built them, ``chamber_values``
    or ``chamber_runs`` on ``cache``: each n's first and last value, the last as a Fraction, from
    k_pt - 1 to midway between k_dual and the next wall above it."""
    rows = []
    for n in range(1, n_max + 1):
        k_pt, k_dual = pt_bounds(model, beta, n)
        # the wall -n / (2 deg beta) lies in [k_pt, k_dual], so no window has one chamber only
        assert k_pt <= -n / (2 * degree(model, beta)) <= k_dual
        right = (k_dual + next_wall_above(model, beta, k_dual)) / 2
        values = fill(model, beta, n, k_pt - 1, right, cache)
        p_plus, p_minus = values[0][-1], F(values[-1][-1])
        n_value = model.n_table.get((n, beta))
        defect = (p_plus - p_minus) - (-1) ** (n - 1) * n * (n_value or F(0))
        rows.append(SymmetryRow(n, p_plus, p_minus, model.p_seed.get((-n, beta)), n_value, defect))
    return tuple(rows)


def _ladder_models():
    """The seed-1 ladder models of perfbench, each with the (beta, n_max) of its rung's queries:
    the model is built by running those series, so it holds every seed that they read."""
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
    try:
        import ladder
    finally:
        sys.path.pop(0)
    out = []
    for rung in [rung for rung, _ in ladder.SESSION_LADDER] + list(ladder.LADDER):
        pairs = [(CurveClass(beta), n) for beta, n in rung.queries]
        run = lambda model, pairs=pairs: [pt_symmetry_check(model, *pair) for pair in pairs]
        out.append((ladder.build_model(rung, 1, run), pairs))
    return out


def test_symmetry_rows_read_from_the_runs_equal_the_expanded_chambers(monkeypatch):
    double = conifold_double(1)
    ints = _replaced(double, p_seed={key: int(v) for key, v in double.p_seed.items()})
    # no count at all: every table keeps its int seed to its last chamber, as a Fraction there
    flat = NumericalThreefold(
        basis=[("C", 1)], omega_cubed=1, m_table={C1_: F(1), C2_: F(1)},
        p_seed={(n, b): n * n for n in range(-3, 4) for b in (C1_, C2_)},
    )
    cases = [
        (conifold_single(1), [(C1_, 4)]),
        (conifold_pair(3, 2), [(PAIR_BETA, 2)]),
        (double, [(C1_, 3), (C2_, 4)]),  # (2[C], 1) has no seed: both routes raise it
        (ints, [(C1_, 3), (C2_, 4)]),
        (flat, [(C1_, 3), (C2_, 3)]),
        *_ladder_models(),
    ]
    bounded, mu_ints = [], crossing._mu_ints
    spy = lambda beta, n, cache: bounded.append((beta, n)) or mu_ints(beta, n, cache)
    monkeypatch.setattr(crossing, "_mu_ints", spy)
    for model, pairs in cases:
        cache, runs_cache = TableCache(), TableCache()
        for beta, n_max in pairs:
            bounded.clear()
            rows = _outcome(lambda: repr(pt_symmetry_check(model, beta, n_max, cache).rows))
            # two bounds of beta per n, up to an error; every other bound is a sub-table's
            own = [read for read in bounded if read[0] == beta]
            pinned = [(beta, signed) for n in range(1, n_max + 1) for signed in (n, -n)]
            assert own == (pinned if rows[0] == "ok" else pinned[:len(own)])
            for fill, shared in ((chamber_values, None), (chamber_runs, runs_cache)):
                route = lambda: repr(_symmetry_rows_from(fill, model, beta, n_max, shared))
                assert rows == _outcome(route)
    (row,) = pt_symmetry_check(flat, C2_, 1).rows
    assert (repr(row.p_plus), repr(row.p_minus_derived)) == ("1", "Fraction(1, 1)")


def test_the_symmetry_defect_subtracts_a_nonzero_dual_seed():
    # every preset stores P(-n) = 0, so p_plus - p_minus and p_plus + p_minus agree there
    model = NumericalThreefold(
        basis=[("C", 1)],
        omega_cubed=6,
        m_table={C1_: F(1)},
        n_table={(1, C1_): F(1), (-1, C1_): F(1)},
        p_seed={(1, C1_): F(3), (-1, C1_): F(2)},
    )
    (row,) = pt_symmetry_check(model, C1_, 1).rows
    assert (row.p_plus, row.p_minus_derived, row.p_minus_seed, row.count) == (3, 2, 2, 1)
    # (3 - 2) - 1 * 1 = 0, where (3 + 2) - 1 would give 4
    assert row.relation_defect == 0


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


def test_zero_count_skips_the_recursive_factor():
    # m = 1 on (1) and (2), no seeds: at k0 = -1/2 the datum beta1 = (1),
    # n1 = 1 would need the absent seed P(1, (1)) if its zero count recursed
    one, two = CurveClass((1,)), CurveClass((2,))
    bare = dict(basis=[("C", 1)], omega_cubed=1, m_table={one: F(1), two: F(1)})
    zero = NumericalThreefold(**bare, n_table={(1, one): F(0)})
    l_plus, report = cross_wall(zero, two, 2, F(-1, 2), F(0))
    assert (l_plus, report.total) == (0, 0)
    term = next(t for t in report.terms if t.datum.beta1 == one)
    assert (term.n_value, term.missing_n, term.l_value, term.contribution) == (0, False, None, 0)
    # an absent count gives the same total, flagged as missing
    assert cross_wall(NumericalThreefold(**bare), two, 2, F(-1, 2), F(0))[0] == 0


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


def test_hn_sort_rejects_a_non_sheaf_class_as_an_argument_error():
    with pytest.raises(
        TableArgumentError, match=r"^hn_sort takes sheaf-type classes only, got 0,0,\(0\),0$"
    ):
        hn_sort(conifold_single(1), [ch_of_sheaf(CurveClass((0,)), 0)], 0)


def test_value_at_a_wall_or_outside_the_interval_is_an_argument_error():
    table = chamber_table(conifold_single(1), C1_, 1, -2, 1)
    assert table.value_at(F(-3, 4)) == 1
    for k in (F(-1, 2), F(-2), F(5, 2)):
        with pytest.raises(
            TableArgumentError, match=rf"^k = {k} is a wall or outside the tabulated interval$"
        ):
            table.value_at(k)


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


def test_l_at_wall_checks_the_class_on_either_side_of_zero():
    # the wall test runs only right of zero; the class check must not depend on it
    pair = conifold_pair(3, 2)
    for k0 in (F(-1, 2), F(0), F(1, 2)):
        with pytest.raises(ValueError, match=r"^class \(1\) has rank 1, model has rank 2$"):
            l_at_wall(pair, CurveClass((1,)), 1, k0)
        with pytest.raises(ValueError, match=r"^\(-1,1\) is not effective$"):
            l_at_wall(pair, CurveClass((-1, 1)), 1, k0)
        # the zero class short-circuits before any check, as it always has
        assert l_at_wall(pair, CurveClass((0,)), 0, k0) == 1


def test_invariant_value_reports_a_bad_class_as_an_argument_error():
    # the class is checked on a memo miss before its seed lookup, so the error
    # is the one chamber_table gives, not a missing p_seed entry; the model
    # checks only the rank of a seed class, so a seeded bad class fails alike
    seeded = conifold_single(1)
    seeded = seeded._replace(p_seed={**seeded.p_seed, (1, CurveClass((-1,))): F(1)})
    for model in (conifold_single(1), conifold_double(1), seeded):
        for beta, text in (
            (CurveClass((-1,)), r"^\(-1\) is not effective$"),
            (CurveClass((1, 1)), r"^class \(1,1\) has rank 2, model has rank 1$"),
        ):
            for k, from_right in ((F(-1), False), (F(-1, 2), True), (F(1), False)):
                with pytest.raises(TableArgumentError, match=text):
                    invariant_value(model, beta, 1, k, from_right)
                with pytest.raises(TableArgumentError, match=text):
                    l_at_wall(model, beta, 1, k)
    # a good class without a seed is still missing model data
    with pytest.raises(ModelDataError, match=r"^p_seed has no entry for \(n=7, beta=\(1\)\)$"):
        invariant_value(conifold_single(1), C1_, 7, -10)
    # the zero class keeps its delta_{n,0} short-cut, whatever its rank
    for n, expected in ((0, 1), (2, 0)):
        assert invariant_value(conifold_single(1), CurveClass((0, 0)), n, F(-1)) == expected


class _SeedEverywhere(dict):
    """A p_seed table with a deterministic value for every (n, class)."""

    def __missing__(self, key):
        n, beta = key
        return F((3 * n + 5 * sum(beta.coeffs)) % 7 - 3)


def _reference_wall_data(model, beta, n, k0):
    """The jump-law data at k0 from a test-local split of beta's box.

    The degrees are plain sums over the basis and m(beta2) is the minimum
    of m_table over the nonzero lattice points of degree <= deg beta2, so no
    engine enumeration (decompositions, degree, min_ch3) is consulted.
    """
    deg = lambda coeffs: sum(c * d for c, d in zip(coeffs, model.degrees))

    def m(coeffs):
        box = itertools.product(*(range(int(deg(coeffs) / d) + 1) for d in model.degrees))
        cone = [g for g in box if any(g) and deg(g) <= deg(coeffs)]
        return min((model.m_table[CurveClass(g)] for g in cone), default=F(0))

    out = []
    box = itertools.product(*(range(c + 1) for c in beta.coeffs))
    for g1 in sorted((g for g in box if any(g)), key=lambda g: (deg(g), g)):
        n1 = -2 * k0 * deg(g1)
        if n1.denominator != 1:
            continue
        g2 = tuple(c - c1 for c, c1 in zip(beta.coeffs, g1))
        n2 = n - int(n1)
        if n2 >= m(g2) or (any(g2) and n2 <= -m(g2)):
            out.append(WallDatum(k0, CurveClass(g1), int(n1), CurveClass(g2), n2))
    return out


def _outcome(call):
    try:
        return ("ok", call())
    except (ValueError, ModelDataError) as exc:
        return ("error", type(exc), str(exc))


@st.composite
def _split_cases(draw):
    rank = draw(st.integers(1, 3))
    degrees = [F(draw(st.integers(1, 3)), draw(st.integers(1, 2))) for _ in range(rank)]
    coeffs = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank))
    assume(any(coeffs))
    beta = CurveClass(coeffs)
    bound = sum(c * d for c, d in zip(coeffs, degrees))
    classes = [
        CurveClass(g)
        for g in itertools.product(*(range(int(bound / d) + 1) for d in degrees))
        if any(g) and sum(c * d for c, d in zip(g, degrees)) <= bound
    ]
    m_values = st.integers(-2, 3).map(F)
    n_values = st.sampled_from([F(0), F(1), F(-2), F(1, 2)])
    model = NumericalThreefold(
        basis=tuple((f"C{i}", d) for i, d in enumerate(degrees)),
        omega_cubed=F(6),
        m_table={g: draw(m_values) for g in classes},
        n_table={(n1, g): draw(n_values) for g in classes for n1 in range(-4, 5) if n1},
        p_seed=_SeedEverywhere(),
    )
    n = draw(st.integers(-4, 4))
    k0 = F(draw(st.integers(-8, 8)), 2 * draw(st.integers(1, 6)))
    return model, beta, n, k0


@settings(max_examples=60, deadline=None)
@given(case=_split_cases())
def test_split_table_matches_the_cone_enumeration(case):
    model, beta, n, k0 = case
    reference = _reference_wall_data(model, beta, n, k0)
    assert enumerate_wall_data(model, beta, n, k0, TableCache()) == reference
    assert enumerate_wall_data(model, beta, n, k0) == reference
    # a cache that other tables of the same model have already filled: the
    # classes below beta and up to four others of its own degree
    shared = TableCache()
    below = [CurveClass(g) for g in itertools.product(*(range(c + 1) for c in beta.coeffs))]
    level = [g for g in model.m_table if degree(model, g) == degree(model, beta)]
    for other in below + level[:4]:
        if not other.is_zero() and other != beta:
            enumerate_wall_data(model, other, n + 1, k0, shared)
    _outcome(lambda: chamber_table(model, beta, -n, F(-5), F(-4), shared))
    enumerate_wall_data(model, beta, n - 1, k0 - F(1, 2), shared)
    assert enumerate_wall_data(model, beta, n, k0, shared) == reference
    # determinism under cache sharing: the same table, entries and reports included
    k_pt = -mu_threshold(model, beta, n) / 2
    table = lambda cache: chamber_table(model, beta, n, k_pt - F(1, 4), k_pt + F(1, 2), cache)
    assert _outcome(lambda: table(shared)) == _outcome(lambda: table(None))


@st.composite
def _synthetic_tables(draw):
    """(model, beta): rank 1 to 3, m covering the cone below beta, sparse counts."""
    rank = draw(st.integers(1, 3))
    degrees = [draw(st.sampled_from([F(1), F(2), F(1, 2), F(3, 2)])) for _ in range(rank)]
    coeffs = draw(st.lists(st.integers(0, 3 - rank // 2), min_size=rank, max_size=rank).filter(any))
    deg = lambda g: sum(c * d for c, d in zip(g, degrees))
    cone = [g for g in itertools.product(*(range(int(deg(coeffs) / d) + 1) for d in degrees))
            if any(g) and deg(g) <= deg(coeffs)]
    box = [g for g in itertools.product(*(range(c + 1) for c in coeffs)) if any(g)]
    counts = st.sampled_from([None, F(0), F(1), F(-1, 2), F(2)])
    n_table = {(n1, CurveClass(g)): draw(counts) for g in box for n1 in range(-4, 5) if n1}
    m_values = st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(2)])
    model = NumericalThreefold(
        basis=tuple((f"C{i}", d) for i, d in enumerate(degrees)),
        omega_cubed=F(6),
        m_table={CurveClass(g): draw(m_values) for g in cone},
        n_table={key: v for key, v in n_table.items() if v is not None},
        p_seed=_SeedEverywhere(),
    )
    return model, CurveClass(coeffs)


def _query_pool(model, beta):
    """Table, point, wall-value and crossing queries on beta for n = -2..2, on
    every class below it and on the remainder classes of its wall data, each
    a (function name, arguments after the model) of the engine's API."""
    box = itertools.product(*(range(c + 1) for c in beta.coeffs))
    below = [CurveClass(g) for g in box if any(g)]
    out = []
    for n in range(-2, 3):
        k_pt = pt_bounds(model, beta, n)[0]
        walls = wall_set(model, beta, k_pt - 1, k_pt + 2).walls[:12]
        for name in ("chamber_table", "chamber_values"):
            out.append((name, (beta, n, k_pt - 1, k_pt + 2)))
        for k in walls + tuple((a + b) / 2 for a, b in zip(walls, walls[1:])):
            out += [("invariant_value", (beta, n, k, side)) for side in (False, True)]
        for b, k in itertools.product(below, walls[::3]):
            out.append(("invariant_value", (b, n, k, True)))
        for k0 in walls:
            out.append(("cross_wall", (beta, n, k0, F(3))))
            for d in enumerate_wall_data(model, beta, n, k0):
                out.append(("l_at_wall", (d.beta2, d.n2, d.k0)))
    return out


def _ask(module, model, query, *cache):
    name, args = query
    return getattr(module, name)(model, *args, *cache)


_POOL_CASES = st.sampled_from([
    (conifold_single(1), C1_),
    (conifold_pair(3, 2), PAIR_BETA),
    (conifold_double(1), C2_),
]) | _synthetic_tables()


@settings(max_examples=40, deadline=None)
@given(case=_POOL_CASES, data=st.data())
def test_a_shared_cache_answers_every_query_as_a_fresh_one(case, data):
    """A shuffled run of queries on one cache, which fills its wall grids,
    splits and m bounds in that order, gives each query's values, reports
    and errors from a fresh cache, and leaves each class's own entries."""
    model, beta = case
    pool = _query_pool(model, beta)
    order = data.draw(st.permutations(range(len(pool))))[:30]
    cache = TableCache()
    for i in order:
        assert _outcome(lambda: _ask(crossing, model, pool[i], cache)) == (
            _outcome(lambda: _ask(crossing, model, pool[i], None))
        )
    for b, grid in cache.grids.items():
        assert grid == _wall_grid(model, b)
    for b, splits in cache.splits.items():
        # each row's int degree e over the cache's scale D is deg beta1, in the reference's order
        assert [(b1, b2) for _, b1, b2 in splits] == reference_engine._splits(model, b)
        assert all(F(e, cache._cone.scale) == degree(model, b1) for e, b1, _ in splits)
    for b, (m, ceiling) in cache.m.items():
        assert (m, ceiling) == (min_ch3(model, b), math.ceil(m))
    for (b, n, num, den), total in cache.jumps.items():
        assert total == cross_wall(model, b, n, F(num, den), 0)[1].total


@settings(max_examples=30, deadline=None)
@given(case=_POOL_CASES, data=st.data())
def test_every_query_matches_the_reference_march(case, data):
    """Each query, on a fresh cache and on one cache shared in a drawn order,
    gives the reference march's value or error text; the reprs compare the
    value types of every entry and report too."""
    model, beta = case
    pool = _query_pool(model, beta)
    order = data.draw(st.permutations(range(len(pool))))[:15]
    cache = TableCache()
    for i in order:
        expected = _outcome(lambda: repr(_ask(reference_engine, model, pool[i])))
        assert _outcome(lambda: repr(_ask(crossing, model, pool[i], None))) == expected
        assert _outcome(lambda: repr(_ask(crossing, model, pool[i], cache))) == expected


@st.composite
def _slope_cases(draw):
    rank = draw(st.integers(1, 3))
    degrees = [F(draw(st.integers(1, 4)), draw(st.integers(1, 4))) for _ in range(rank)]
    coeffs = draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank))
    assume(any(coeffs))
    bound = sum(c * d for c, d in zip(coeffs, degrees))
    classes = [
        CurveClass(g)
        for g in itertools.product(*(range(int(bound / d) + 1) for d in degrees))
        if any(g) and sum(c * d for c, d in zip(g, degrees)) <= bound
    ]
    model = NumericalThreefold(
        basis=tuple((f"C{i}", d) for i, d in enumerate(degrees)),
        omega_cubed=F(6),
        # half-integral m too, where the int bounds ceil(m) and floor(-m) differ from m
        m_table={g: draw(st.integers(-4, 6).map(lambda h: F(h, 2))) for g in classes},
    )
    return model, CurveClass(coeffs), draw(st.integers(-4, 4))


@settings(max_examples=40, deadline=None)
@given(case=_slope_cases())
def test_integer_slope_test_matches_the_fraction_reference(case):
    model, beta, n = case
    walls = wall_set(model, beta, F(-1, 2), F(1, 2)).walls
    assert F(0) in walls  # k0 = 0: every split has n1 = 0
    # every wall in the window, and a point strictly between each pair of them
    off_walls = [(a + b) / 2 for a, b in zip(walls, walls[1:])]
    cache = TableCache()
    for k0 in walls + tuple(off_walls):
        reference = _reference_wall_data(model, beta, n, k0)
        assert enumerate_wall_data(model, beta, n, k0, cache) == reference
        assert enumerate_wall_data(model, beta, -n, -k0, cache) == _reference_wall_data(
            model, beta, -n, -k0
        )
    for k0 in off_walls:
        # off the wall set no split has an integral n1
        assert enumerate_wall_data(model, beta, n, k0, cache) == []


def _sparse_m_model():
    # degrees A = 1, B = 2; m_table holds only A, so m(B) cannot be computed
    a, b, ab = CurveClass((1, 0)), CurveClass((0, 1)), CurveClass((1, 1))
    return NumericalThreefold(
        basis=(("A", F(1)), ("B", F(2))),
        omega_cubed=F(6),
        m_table={a: F(1)},
        n_table={(1, b): F(1), (1, a): F(2)},
        p_seed={(1, a): F(3), (2, ab): F(5)},
    )


def test_m_bounds_are_computed_only_where_a_split_needs_them():
    model = _sparse_m_model()
    a, b, ab = CurveClass((1, 0)), CurveClass((0, 1)), CurveClass((1, 1))
    cache = TableCache()
    # at k0 = -1/4 (slope 1/2) only beta1 = B has integral n1; the split
    # beta1 = A, whose remainder B lacks m data, is skipped before m is read
    l_plus, report = cross_wall(model, ab, 2, F(-1, 4), F(5), cache)
    assert (l_plus, report.total) == (4, 1)
    assert [(t.datum.beta1, t.datum.beta2) for t in report.terms] == [(b, a)]
    assert b not in cache.m
    # at k0 = -1/2 the split beta1 = A is integral and needs m(B)
    for _ in range(2):
        with pytest.raises(
            ModelDataError,
            match=r"^m_table has no entry for class \(0,1\) \(needed for m\(\(0,1\)\)\)$",
        ):
            cross_wall(model, ab, 2, F(-1, 2), F(5), cache)
        assert b not in cache.m  # a failing call is not memoized


def test_each_class_is_split_once_per_cache(monkeypatch):
    double = conifold_double(1)
    expected = chamber_table(double, C2_, 4, -2, 0)
    split, bounded, scaled = [], [], []
    monkeypatch.setattr(crossing, "_split_rows", lambda degrees, coeffs: (
        split.append(CurveClass(coeffs)) or _split_rows(degrees, coeffs)
    ))
    # every m bound is a read of the cache's cone index
    monkeypatch.setattr(_ConeIndex, "m", lambda index, b: bounded.append(b) or cone_m(index, b))
    for mod in (geometry, walls):
        monkeypatch.setattr(mod, "_scaled_degrees", lambda m: scaled.append(m) or _scaled_degrees(m))
    cache = TableCache()
    assert chamber_table(double, C2_, 4, -2, 0, cache) == expected
    assert sorted(split) == sorted(set(split)) == sorted(cache.splits) == [C1_, C2_]
    assert sorted(bounded) == sorted(set(bounded)) == sorted(cache.m)
    remainders = {beta2 for splits in cache.splits.values() for _, _, beta2 in splits}
    assert set(bounded) <= remainders
    # the scaled degrees are computed once, when the cache binds, and each
    # split row's int degree e over their scale D is deg beta1
    assert scaled == [double] and cache._cone.scale == 1
    for beta, splits in cache.splits.items():
        assert [(b1, b2) for _, b1, b2 in splits] == reference_engine._splits(double, beta)
        assert all(e == degree(double, b1) for e, b1, _ in splits)
    # a second table on the same cache splits and bounds nothing new
    before = len(split), len(bounded), len(scaled)
    chamber_table(double, C2_, 3, -2, 0, cache)
    assert (len(split), len(bounded), len(scaled)) == before


def test_each_wall_grid_is_built_once_per_cache(monkeypatch):
    double = conifold_double(1)
    expected = chamber_table(double, C2_, 4, -2, 0)
    built = []
    counted = lambda *args: built.append(CurveClass(args[-1])) or _grid_of(*args)
    for module in (crossing, walls):
        monkeypatch.setattr(module, "_grid_of", counted)
    cache = TableCache()
    assert chamber_table(double, C2_, 4, -2, 0, cache) == expected
    # the table's class and the class of the sub-table marched at k0 = -1
    assert sorted(built) == sorted(set(built)) == sorted(cache.grids) == [C1_, C2_]
    # more tables and point queries on the same cache build no grid
    chamber_table(double, C2_, 3, -2, 0, cache)
    invariant_value(double, C1_, 2, F(1, 3), True, cache)
    l_at_wall(double, C2_, 4, F(-1, 2), cache)
    assert sorted(built) == [C1_, C2_]
    monkeypatch.undo()
    assert all(grid == _wall_grid(double, beta) for beta, grid in cache.grids.items())


@st.composite
def _cone_index_cases(draw):
    rank = draw(st.integers(1, 3))
    degrees = [F(draw(st.integers(1, 3)), draw(st.integers(1, 3))) for _ in range(rank)]
    deg = lambda g: sum(c * d for c, d in zip(g, degrees))
    box = [CurveClass(g) for g in itertools.product(range(3 if rank < 3 else 2), repeat=rank)]
    top = max(deg(g.coeffs) for g in box)
    cone = [
        CurveClass(g)
        for g in itertools.product(*(range(int(top / d) + 1) for d in degrees))
        if any(g) and deg(g) <= top
    ]
    m_table = {g: F(draw(st.integers(-2, 2))) for g in cone}
    removed = draw(st.sampled_from(cone))
    del m_table[removed]
    model = NumericalThreefold(
        basis=tuple((f"C{i}", d) for i, d in enumerate(degrees)), omega_cubed=F(6), m_table=m_table
    )
    return model, removed, draw(st.permutations(box))


@settings(max_examples=60, deadline=None)
@given(case=_cone_index_cases())
def test_cone_index_bounds_equal_the_cone_walk(case):
    model, removed, order = case
    index = _ConeIndex(model)
    for beta in order:  # one index, grown in the drawn order
        outcome = _outcome(lambda: index.m(beta))
        assert outcome == _outcome(lambda: min_ch3(model, beta))
        if degree(model, beta) < degree(model, removed):
            assert outcome[0] == "ok"  # the class without m data lies above beta
    assert _outcome(lambda: index.m(removed)) == ("error", ModelDataError, (
        f"m_table has no entry for class {removed} (needed for m({removed}))"
    ))


def _bounds_or_error(model, beta, ns, bounds_of=reference_engine.pt_bounds):
    """``bounds_of``, the reference's pt_bounds by default, for each n in turn, up to the
    first error."""
    bounds = []
    for n in ns:
        try:
            bounds.append(bounds_of(model, beta, n))
        except (TableArgumentError, ModelDataError) as exc:
            return bounds, ("error", type(exc), str(exc))
    return bounds, None


@settings(max_examples=40, deadline=None)
@given(case=_cone_index_cases())
def test_table_seed_bounds_equal_pt_bounds(case):
    model, _, order = case
    classes = [beta for beta in order if not beta.is_zero()]
    cache = TableCache()
    for beta in classes:
        for n in (1, -2, 0, 2, -1):
            bounds, error = _bounds_or_error(model, beta, [n])
            assert _bounds_or_error(model, beta, [n], pt_bounds) == (bounds, error)
            # k_pt, as chamber_table states it when the interval starts above it
            expected = error or ("error", TableArgumentError, (
                f"interval must start below the seed bound k_pt = {bounds[0][0]}, got k_lo = 99"
            ))
            assert _outcome(lambda: chamber_table(model, beta, n, 99, 100, cache)) == expected
    # pt_symmetry_check's bounds, windows and seeds, read off the calls it makes: the drawn
    # model has no seed, so its first n's seed read raises; the copy has seeds at n = 1, 2 only
    seeded = _replaced(model, p_seed={(n, beta): F(n) for n in (1, 2) for beta in order})
    seen, bounded, mu_ints = [], [], crossing._mu_ints
    jump_runs = lambda model, beta, n, cache, *window: seen.append(window) or ([], [window[-1]])
    spy = lambda beta, n, cache: bounded.append((beta, n)) or mu_ints(beta, n, cache)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(crossing, "_jump_runs", jump_runs)
        patch.setattr(crossing, "_mu_ints", spy)
        for copy in (model, seeded):
            shared = TableCache()
            for beta in order:  # the zero class included
                seen.clear()
                bounded.clear()
                outcome = _outcome(lambda: pt_symmetry_check(copy, beta, 3, shared))
                reads, windows, error = _symmetry_reads(copy, beta, 3)
                assert (bounded, seen) == (reads, windows)
                assert outcome[0] == "ok" if error is None else outcome == error


def _symmetry_reads(model, beta, n_max):
    """What ``pt_symmetry_check`` reads, by the reference, in order up to its first error: the
    (beta, n) of each bound, two per n; each n's window, from k_pt - 1 to midway between k_dual
    and the next wall above it (a strictly increasing function of k_dual), with k_pt and the
    seed; and the error, or None."""
    bounded, windows = [], []
    try:
        for n in range(1, n_max + 1):
            mu = []
            for signed in (n, -n):
                bounded.append((beta, signed))
                mu.append(reference_engine.mu_threshold(model, beta, signed))
            k_pt, k_dual = -mu[0] / 2, mu[1] / 2
            right = (k_dual + next_wall_above(model, beta, k_dual)) / 2
            windows.append((k_pt - 1, right, k_pt, reference_engine._seed(model, beta, n)))
    except (TableArgumentError, ModelDataError) as exc:
        return bounded, windows, ("error", type(exc), str(exc))
    return bounded, windows, None


_NON_INTEGERS = [F(p, q) for q in (2, 3, 4) for p in range(-2 * q, 3 * q) if math.gcd(p, q) == 1]


@st.composite
def _mu_cases(draw):
    """A rank 1-3 model whose basis degrees and m values have denominators 2 to 4,
    sometimes with one cone class left without m data."""
    rank = draw(st.integers(1, 3))
    degrees = [draw(st.sampled_from([d for d in _NON_INTEGERS if d > 0])) for _ in range(rank)]
    box = [CurveClass(g) for g in itertools.product(range(3 if rank < 3 else 2), repeat=rank)]
    deg = lambda g: sum(c * d for c, d in zip(g, degrees))
    top = max(deg(g.coeffs) for g in box)
    cone = [
        CurveClass(g)
        for g in itertools.product(*(range(int(top / d) + 1) for d in degrees))
        if any(g) and deg(g) <= top
    ]
    m_table = {g: draw(st.sampled_from(_NON_INTEGERS)) for g in cone}
    removed = draw(st.sampled_from([None, *cone]))
    m_table.pop(removed, None)
    model = NumericalThreefold(
        basis=tuple((f"C{i}", d) for i, d in enumerate(degrees)), omega_cubed=F(6), m_table=m_table
    )
    return model, removed, [g for g in box if not g.is_zero()], draw(st.sampled_from(_NON_INTEGERS))


@settings(max_examples=60, deadline=None)
@given(case=_mu_cases())
def test_mu_from_the_split_ints_equals_mu_threshold(case):
    model, removed, classes, fraction_n = case
    cache = TableCache()
    cache.bind(model)
    for beta in classes:
        for n in [*range(-4, 5), fraction_n]:
            outcome = _outcome(lambda: crossing._mu(beta, n, cache))
            assert outcome == _outcome(lambda: mu_threshold(model, beta, n))
            if outcome[0] == "ok":
                assert type(outcome[1]) is Fraction
            else:  # the class without m data, named as min_ch3 names it
                assert outcome[1] is ModelDataError
                assert outcome[2].startswith(f"m_table has no entry for class {removed} (needed for m(")


def test_mu_on_a_warm_cache_builds_one_fraction_and_does_no_fraction_arithmetic(monkeypatch):
    pair = NumericalThreefold(
        basis=(("A", F(3, 2)), ("B", F(2, 3))), omega_cubed=F(6),
        m_table={g: F(g.coeffs[0] - 2 * g.coeffs[1], 3) or F(1, 2) for g in (
            CurveClass((a, b)) for a in range(4) for b in range(8) if a or b)},
    )
    cache, beta = TableCache(), CurveClass((2, 3))
    cache.bind(pair)
    points = [(beta, n) for n in range(-4, 5)] + [(CurveClass((1, 0)), 1), (CurveClass((0, 2)), -3)]
    warm = [crossing._mu(b, n, cache) for b, n in points]
    assert warm == [mu_threshold(pair, b, n) for b, n in points]
    names = ("__hash__", "__eq__", "__lt__", "__le__", "__gt__", "__ge__", "__add__", "__sub__",
             "__rsub__", "__mul__", "__truediv__", "__rtruediv__", "__neg__")
    counts = _count_fraction_work(monkeypatch, names)
    again = [crossing._mu(b, n, cache) for b, n in points]
    assert counts == {"__new__": len(points), **dict.fromkeys(names, 0)}
    monkeypatch.undo()
    assert again == warm


@st.composite
def _permuted_cases(draw):
    rank = draw(st.integers(2, 3))
    basis_degrees = st.sampled_from([F(1), F(2), F(3), F(1, 2), F(3, 2), F(2, 3)])
    degrees = [draw(basis_degrees) for _ in range(rank)]
    # at least two positive coefficients and a non-identity permutation, drawn
    # directly: filtering them out made the health check fail at some seeds
    positive = draw(st.sets(st.integers(0, rank - 1), min_size=2))
    coeffs = [draw(st.integers(1, 3 - rank + 1)) if i in positive else 0 for i in range(rank)]
    bound = sum(c * d for c, d in zip(coeffs, degrees))
    cone = [
        g for g in itertools.product(*(range(int(bound / d) + 1) for d in degrees))
        if any(g) and sum(c * d for c, d in zip(g, degrees)) <= bound
    ]
    box = [g for g in itertools.product(*(range(c + 1) for c in coeffs)) if any(g)]
    m_values = st.sampled_from([F(-1), F(0), F(1, 2), F(1), F(2)])
    n_values = st.sampled_from([None, None, F(0), F(1), F(-1, 2), F(2)])
    n_counts = {(n1, g): draw(n_values) for g in box for n1 in range(-4, 5) if n1}
    tables = dict(
        m_table={g: draw(m_values) for g in cone},
        n_table={key: v for key, v in n_counts.items() if v is not None},
        # an asymmetric formula, so a mislabelled class reads a different seed
        p_seed={(n, g): F((3 * n + 5 * g[0] + 2 * g[1] + 4 * g[-1]) % 7 - 3)
                for g in box for n in range(-24, 25)},
    )
    perm = draw(st.sampled_from(list(itertools.permutations(range(rank)))[1:]))
    return degrees, tables, coeffs, perm, draw(st.integers(-3, 3))


@settings(max_examples=25, deadline=None)
@given(case=_permuted_cases())
def test_tables_do_not_depend_on_the_basis_order(case):
    """Permuting the basis, with every table remapped, relabels the reports and
    changes no value, no wall and no wall total."""
    degrees, tables, coeffs, perm, n = case
    relabel = lambda g: CurveClass(g.coeffs[i] for i in perm)
    models = []
    for order, move in ((range(len(degrees)), lambda g: g), (perm, relabel)):
        models.append(NumericalThreefold(
            basis=tuple((f"C{i}", degrees[i]) for i in order),
            omega_cubed=F(6),
            m_table={move(CurveClass(g)): v for g, v in tables["m_table"].items()},
            n_table={(n1, move(CurveClass(g))): v for (n1, g), v in tables["n_table"].items()},
            p_seed={(n2, move(CurveClass(g))): v for (n2, g), v in tables["p_seed"].items()},
        ))
    beta = CurveClass(coeffs)
    k_pt = -mu_threshold(models[0], beta, n) / 2
    assert -mu_threshold(models[1], relabel(beta), n) / 2 == k_pt
    # start between k_pt and the wall below it, so no chamber but the first is under k_pt
    below = wall_set(models[0], beta, k_pt - 1, k_pt).walls
    k_lo = (k_pt + max((w for w in below if w < k_pt), default=k_pt - 1)) / 2
    original, permuted = (
        chamber_table(model, b, n, k_lo, k_pt + 2)
        for model, b in zip(models, (beta, relabel(beta)))
    )
    assert permuted.merged() == original.merged()
    assert permuted.entries == original.entries
    assert permuted.effective_walls() == original.effective_walls()
    totals = lambda table: [(r.k0, r.total) for r in table.reports]
    assert totals(permuted) == totals(original)

    def terms(report, move):
        return sorted(
            ((move(t.datum.beta1), t.datum.n1, move(t.datum.beta2), t.datum.n2) + tuple(t[1:])
             for t in report.terms),
            key=lambda row: row[0],
        )

    for a, b in zip(original.reports, permuted.reports):
        assert terms(a, relabel) == terms(b, lambda g: g)


@settings(max_examples=25, deadline=None)
@given(case=_permuted_cases(), c=st.sampled_from([F(3), F(2, 5), F(7, 3)]))
def test_scaling_every_basis_degree_by_c_divides_every_wall_by_c(case, c):
    """Multiplying every basis degree by c maps k_pt and every wall k0 to k0/c and
    changes no value, no wall total and no datum but its k0."""
    degrees, tables, coeffs, _, n = case
    models = [
        NumericalThreefold(
            basis=tuple((f"C{i}", scale * d) for i, d in enumerate(degrees)),
            omega_cubed=F(6),
            m_table={CurveClass(g): v for g, v in tables["m_table"].items()},
            n_table={(n1, CurveClass(g)): v for (n1, g), v in tables["n_table"].items()},
            p_seed={(n2, CurveClass(g)): v for (n2, g), v in tables["p_seed"].items()},
        )
        for scale in (1, c)
    ]
    beta = CurveClass(coeffs)
    k_pt = -mu_threshold(models[0], beta, n) / 2
    assert -mu_threshold(models[1], beta, n) / 2 == k_pt / c
    below = wall_set(models[0], beta, k_pt - 1, k_pt).walls
    k_lo = (k_pt + max((w for w in below if w < k_pt), default=k_pt - 1)) / 2
    original, scaled = (
        chamber_table(model, beta, n, k_lo / scale, (k_pt + 2) / scale)
        for model, scale in zip(models, (1, c))
    )
    assert wall_set(models[1], beta, k_lo / c, (k_pt + 2) / c).walls == tuple(
        w / c for w in wall_set(models[0], beta, k_lo, k_pt + 2).walls
    )
    over_c = lambda k: None if k is None else k / c
    assert scaled.entries == tuple(
        ((over_c(ch.lo), over_c(ch.hi)), value) for ch, value in original.entries
    )
    assert scaled.merged() == tuple((lo / c, hi / c, v) for lo, hi, v in original.merged())
    assert [(r.k0, r.total) for r in scaled.reports] == [
        (r.k0 / c, r.total) for r in original.reports
    ]
    for a, b in zip(original.reports, scaled.reports):
        assert [(t.datum._replace(k0=t.datum.k0 / c),) + tuple(t[1:]) for t in a.terms] == [
            tuple(t) for t in b.terms
        ]


def _linearized(counts, n, k):
    """[q^n Q^k](exp(A) - 1) / ((-1)^(n-1) n) for A = sum (-1)^(n'-1) n' N(n', k') q^n' Q^k'.

    ``counts`` maps (n', k') to N(n', k') for the multiples k'[C] of one curve.
    """
    a = {key: (1 if key[0] % 2 else -1) * key[0] * value for key, value in counts.items()}
    power, total = {(0, 0): F(1)}, F(0)
    for j in range(1, k + 1):  # every k' >= 1, so the powers A^j with j > k have no Q^k
        step = {}
        for (n1, k1), c1 in power.items():
            for (n2, k2), c2 in a.items():
                step[(n1 + n2, k1 + k2)] = step.get((n1 + n2, k1 + k2), 0) + c1 * c2 / j
        power = step  # A^j / j!
        total += power.get((n, k), 0)
    return total / ((1 if n % 2 else -1) * n)


def test_double_preset_counts_are_linearized_wall_coefficients():
    # the paper's counts on the wall k = -1/d: N(2, [C]) = 1 and N(4, 2[C]) = 1/4
    assert _linearized({(2, 1): F(1), (4, 2): F(1, 4)}, 4, 2) == F(-1, 4)
    # on the wall -1/(2d): N(1, [C]) = 1 and N(2, 2[C]) = 1/4 linearize to 0
    assert _linearized({(1, 1): F(1), (2, 2): F(1, 4)}, 2, 2) == 0
    n_table = conifold_double(1).n_table
    assert n_table[(4, C2_)] == n_table[(-4, C2_)] == F(-1, 4)
    assert (2, C2_) not in n_table and (-2, C2_) not in n_table


def _count_fraction_work(monkeypatch, names=("__hash__", "__eq__")):
    """Count calls of Fraction's constructor and of the methods ``names`` from now on."""
    counts = dict.fromkeys(("__new__", *names), 0)

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted("__new__", Fraction.__new__)))
    for name in names:
        monkeypatch.setattr(Fraction, name, counted(name, getattr(Fraction, name)))
    return counts


def test_the_wall_data_fill_on_a_warm_split_table_does_no_fraction_work(monkeypatch):
    double, pair = conifold_double(1), conifold_pair(3, 2)
    on_double, on_pair = TableCache(), TableCache()
    double_points = (F(-3, 2), F(-1), F(-1, 4), F(0), F(1))
    points = [(double, C2_, n, k0, on_double) for n in (-4, 0, 3, 4) for k0 in double_points]
    points += [(pair, PAIR_BETA, 2, k0, on_pair) for k0 in (F(-1, 4), F(-1, 5), F(-1, 2), F(1, 3))]
    warm = [enumerate_wall_data(*point) for point in points]
    assert sum(map(len, warm)) >= 10
    names = ("__hash__", "__eq__", "__lt__", "__le__", "__ge__")
    counts = _count_fraction_work(monkeypatch, names)
    again = [enumerate_wall_data(*point) for point in points]
    assert counts == dict.fromkeys(("__new__", *names), 0)
    monkeypatch.undo()
    assert again == warm


def test_a_memo_hit_does_no_fraction_work(monkeypatch):
    double, cache = conifold_double(1), TableCache()
    at, wall, right, one = F(-7, 8), F(-1), F(1, 2), F(1)
    calls = [
        lambda: invariant_value(double, C2_, 4, at, cache=cache),
        lambda: invariant_value(double, C2_, 4, wall, True, cache),
        lambda: l_at_wall(double, C2_, 4, wall, cache),
        lambda: l_at_wall(double, C1_, 2, right, cache),
    ]
    warm = [call() for call in calls]
    l_plus, report = cross_wall(double, C2_, 4, wall, one, cache)
    counts = _count_fraction_work(monkeypatch)
    # the argument check runs on a memo miss only
    checks = []
    monkeypatch.setattr(crossing, "check_effective", lambda *args: checks.append(args))
    assert [call() for call in calls] == warm
    assert counts == {"__new__": 0, "__hash__": 0, "__eq__": 0}
    assert checks == []
    # the result l_minus - total is one new Fraction; nothing else is built
    again = cross_wall(double, C2_, 4, wall, one, cache)
    assert counts["__new__"] <= 1 and (counts["__hash__"], counts["__eq__"]) == (0, 0)
    assert again[1] is report and again[0] == l_plus


def test_a_warm_point_query_makes_no_helper_call(monkeypatch):
    # a memo hit is two inline guards and one probe of cache.values
    double, cache = conifold_double(1), TableCache()
    calls = [
        lambda: invariant_value(double, C2_, 4, F(-7, 8), cache=cache),
        lambda: invariant_value(double, C2_, 4, -1, True, cache),
        lambda: l_at_wall(double, C2_, 4, F(-1), cache),
        lambda: l_at_wall(double, C1_, 2, "1/2", cache),
    ]
    warm = [call() for call in calls]
    helpers = []
    for name in ("_bound_cache", "_as_fraction", "_march"):
        monkeypatch.setattr(crossing, name, lambda *args, name=name: helpers.append(name))
    assert [call() for call in calls] == warm
    assert helpers == []


def test_a_point_query_still_binds_and_checks_its_cache():
    double, cache = conifold_double(1), TableCache()
    value = invariant_value(double, C2_, 4, F(-7, 8), cache=cache)
    assert invariant_value(double, C2_, 4, F(-7, 8)) == value
    assert l_at_wall(double, C2_, 4, -1) == invariant_value(double, C2_, 4, -1, True)
    # a cache bound to another model refuses it, on a memo hit as on a miss
    for other in (conifold_double(1), conifold_single(1)):
        with pytest.raises(TableArgumentError, match="cannot be shared"):
            invariant_value(other, C2_, 4, F(-7, 8), cache=cache)
        with pytest.raises(TableArgumentError, match="cannot be shared"):
            l_at_wall(other, C2_, 4, F(-1), cache)
    # the zero class reads shared constants, never a memo entry
    zero, size = CurveClass((0,)), len(cache.values)
    assert invariant_value(double, zero, 0, 1, cache=cache) is l_at_wall(double, zero, 0, 2, cache)
    assert invariant_value(double, zero, 3, 1, cache=cache) is invariant_value(double, zero, -1, 0)
    assert (invariant_value(double, zero, 0, 1), invariant_value(double, zero, 3, 1)) == (1, 0)
    assert len(cache.values) == size


def _count_mu_threshold(monkeypatch):
    """Record every ``walls.mu_threshold`` call as (beta, n), in each module that binds it."""
    calls = []
    counted = lambda model, beta, n: calls.append((beta, n)) or mu_threshold(model, beta, n)
    for module in (crossing, walls):
        monkeypatch.setattr(module, "mu_threshold", counted)
    return calls


def _series_model():
    # rank 1 with 2[C] above [C], m = 1 and N(+-1, [C]) only, so no datum lies below k_pt
    c, cc = CurveClass((1,)), CurveClass((2,))
    return NumericalThreefold(
        basis=(("C", F(1)),),
        omega_cubed=F(6),
        m_table={c: F(1), cc: F(1)},
        n_table={(1, c): F(1), (-1, c): F(2)},
        p_seed={(n, b): F(n) for n in range(-3, 4) for b in (c, cc)},
    )


def test_a_table_reads_every_seed_bound_from_its_cache(monkeypatch):
    # the sub-tables that a fill reads at a wall march from the cached splits
    # and m bounds, so no table walks the cone for a bound
    double, pair, series = conifold_double(1), conifold_pair(3, 2), _series_model()
    argv = ["table", "--preset", "conifold_double:1", "--beta", "2", "--n", "4", "--range", "-2:0"]

    def cli_table():
        out = io.StringIO()
        return cli.main(argv, out=out), out.getvalue()

    calls = [
        lambda: chamber_table(double, C2_, 4, -2, 0),
        lambda: chamber_table(pair, PAIR_BETA, 2, F(-1, 2), 0),
        lambda: cross_wall(double, C2_, 4, -1, 1),
        lambda: cross_wall(pair, PAIR_BETA, 2, F(-1, 4), 5),
        lambda: pt_symmetry_check(series, C2_, 2),
        lambda: pt_symmetry_check(conifold_single(1), C1_, 4),
        cli_table,
    ]
    expected = [call() for call in calls]
    walked = _count_mu_threshold(monkeypatch)
    # each call on a fresh cache of its own
    assert [call() for call in calls] == expected
    assert walked == []
    # the series of _series_model reads the sub-table L([C], 1) at the wall -1/2
    cache = TableCache()
    pt_symmetry_check(series, C2_, 2, cache)
    assert {key[:2] for key in cache.values} == {(C1_, 1)}


def test_a_point_query_walks_the_cone_for_its_own_bound_only(monkeypatch):
    double, cache = conifold_double(1), TableCache()
    expected = invariant_value(double, C2_, 4, F(-1, 2))
    walked = _count_mu_threshold(monkeypatch)
    # the march up to -1/2 reads L([C], 2) at the wall -1 with the cache's bound
    assert invariant_value(double, C2_, 4, F(-1, 2), cache=cache) == expected
    assert walked == [(C2_, 4)]
    assert (C1_, 2, -1, 1, True) in cache.values
    # a hit walks nothing, and neither does a fill read of a new sub-table
    assert invariant_value(double, C2_, 4, F(-1, 2), cache=cache) == expected
    fill = l_at_wall(double, C1_, 3, F(-1, 2), cache)
    assert walked == [(C2_, 4)]
    # the same point asked for directly walks for its own (beta, n)
    assert invariant_value(double, C1_, 3, F(-1, 2), True) == fill
    assert walked == [(C2_, 4), (C1_, 3)]


@settings(max_examples=25, deadline=None)
@given(case=_synthetic_tables(), n=st.integers(-2, 2))
def test_a_fill_takes_its_seed_bound_once_per_ledger(case, n):
    # the table's own bound, then one per (beta, n) ledger that its fills make: a later
    # miss on a ledger, at another wall, reads the ledger's reach and takes no bound
    for model, beta, n in ((conifold_double(1), C2_, 4), (*case, n)):
        calls, cache, bound = [], TableCache(), crossing._mu_ints
        k_pt, k_dual = pt_bounds(model, beta, n)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(crossing, "_mu_ints", lambda *args: calls.append(args[:2]) or bound(*args))
            _outcome(lambda: chamber_table(model, beta, n, k_pt - 1, k_dual + 1, cache))
        assert len(calls) == len(cache.ledgers) + 1
        assert sorted(map(repr, calls)) == sorted(map(repr, [(beta, n), *cache.ledgers]))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_a_fill_read_equals_the_point_query_on_its_side(data):
    # fresh caches: the fill read's cached bound against mu_threshold's, errors included
    model = data.draw(st.sampled_from(_FILL_MODELS))
    rank = model.rank
    beta = CurveClass(data.draw(st.lists(st.integers(0, 2), min_size=rank, max_size=rank)))
    n = data.draw(st.integers(-5, 5))
    k0 = F(data.draw(st.integers(-12, 12)), data.draw(st.sampled_from([1, 2, 4, 6, 10])))
    fill = _outcome(lambda: l_at_wall(model, beta, n, k0))
    assert fill == _outcome(lambda: invariant_value(model, beta, n, k0, from_right=k0 <= 0))


def _missing_m_model():
    # degrees A = 1, B = 2: m(B) is missing, and m(A + B) needs it
    a, b, ab = CurveClass((1, 0)), CurveClass((0, 1)), CurveClass((1, 1))
    return NumericalThreefold(
        basis=(("A", F(1)), ("B", F(2))),
        omega_cubed=F(6),
        m_table={a: F(1), ab: F(1)},
        n_table={(1, b): F(1), (1, a): F(1)},
        p_seed={(1, ab): F(1), (1, a): F(1), (2, ab): F(1)},
    )


_FILL_MODELS = [
    conifold_single(1), conifold_double(1), conifold_pair(3, 2),
    _series_model(), _sparse_m_model(), _missing_m_model(),
]


def test_a_missing_m_entry_below_a_sub_table_names_the_same_class():
    # at k0 = -1/4 the first split with an integral n1 is (B | A+B), and m(A+B) needs m(B)
    model, abb = _missing_m_model(), CurveClass((1, 2))
    message = r"^m_table has no entry for class \(0,1\) \(needed for m\(\(1,1\)\)\)$"
    for cache in (None, TableCache()):
        with pytest.raises(ModelDataError, match=message):
            cross_wall(model, abb, 2, F(-1, 4), F(1), cache)


def test_every_spelling_of_k_reads_one_memo_entry():
    double, cache = conifold_double(1), TableCache()
    spellings = [-1, F(-1), F(-2, 2), "-1", -1.0]
    values, sizes = [], []
    for k in spellings:
        values.append(invariant_value(double, C2_, 4, k, cache=cache))
        sizes.append(len(cache.values))
    assert len(set(values)) == 1 and len(set(sizes)) == 1
    data = enumerate_wall_data(double, C2_, 4, -1)
    assert data and all(type(d.k0) is Fraction for d in data)
    l_plus, report = cross_wall(double, C2_, 4, -1, 1)
    assert type(report.k0) is Fraction and type(l_plus) is Fraction
    assert (l_plus, report) == cross_wall(double, C2_, 4, F(-1), F(1))


def test_every_memo_key_starts_with_its_class_and_n():
    # perfbench's lazy seed derivation drops the stale entries of one (beta, n)
    # by the first two items of each key
    double, cache = conifold_double(1), TableCache()
    chamber_table(double, C2_, 4, -2, 0, cache)
    for k in (F(-7, 8), F(-1), F(-1, 3), F(1, 4)):
        invariant_value(double, C2_, 3, k, cache=cache)
        invariant_value(double, C1_, 1, k, True, cache)
    marched = {(C1_, 1), (C1_, 2), (C1_, 3), (C2_, 3)}
    assert {key[:2] for key in cache.values} == marched
    # only the table fills reports; each march sums the jumps of the walls it
    # crosses and keeps one ledger
    assert {key[:2] for key in cache.reports} == {(C2_, 4)}
    assert {key[:2] for key in cache.jumps} == set(cache.ledgers) == marched
    for (beta, n, num, den, from_right), value in cache.values.items():
        assert value == invariant_value(double, beta, n, F(num, den), from_right)
    for (beta, n, num, den), report in cache.reports.items():
        assert report.k0 == F(num, den)
        assert report == cross_wall(double, beta, n, F(num, den), F(0))[1]
    for (beta, n, num, den), total in cache.jumps.items():
        assert total == cross_wall(double, beta, n, F(num, den), F(0))[1].total
    # a ledger holds no seed: its sums are the running sums of its walls' nonzero jumps
    for (beta, n), (reach, js, sums) in cache.ledgers.items():
        jumps = [cache.jumps[(beta, n, *F(j, cache.grids[beta][0]).as_integer_ratio())] for j in js]
        assert all(jumps) and js == sorted(js) and js[-1] < reach
        assert sums == list(itertools.accumulate(jumps))


class _LazySeeds(dict):
    """A seed map that derives P(n > 0, beta) on its first read, as the ladder
    generator of perfbench does: from a march with the placeholder seed 0, so
    that the table's far-right value is 0, after which only that (beta, n)'s
    chamber values are dropped from the cache."""

    def __init__(self):
        super().__init__()
        self.model, self.cache = None, TableCache()

    def __missing__(self, key):
        n, beta = key
        self[key] = F(0)
        if n > 0:
            _, k_dual = pt_bounds(self.model, beta, n)
            right = (k_dual + next_wall_above(self.model, beta, k_dual)) / 2
            self[key] = -invariant_value(self.model, beta, n, right, cache=self.cache)
            for stale in [key for key in self.cache.values if key[:2] == (beta, n)]:
                del self.cache.values[stale]
        return self[key]


def test_lazily_derived_seeds_give_the_tables_of_the_frozen_model():
    # rank 2 with basis degrees 2 and 1, m = 1 on the cone, symmetric counts
    cone = [g for g in itertools.product(range(4), range(7)) if any(g) and 2 * g[0] + g[1] <= 6]
    counts = {(1, 0): {1: 1, 2: 1, 3: 1, 4: 1}, (0, 1): {1: 1, 2: 1, 3: 1, 4: 1},
              (1, 1): {2: 2, 3: -1}, (0, 2): {3: 1}, (1, 2): {1: -1, 4: 1}}
    fields = dict(
        basis=(("C1", F(2)), ("C2", F(1))),
        omega_cubed=F(6),
        m_table={CurveClass(g): F(1) for g in cone},
        n_table={(s * n, CurveClass(g)): F(v) for g, row in counts.items()
                 for n, v in row.items() for s in (1, -1)},
    )
    seeds = _LazySeeds()
    seeds.model = NumericalThreefold(p_seed=seeds, **fields)
    windows = []
    for beta, n in itertools.product([(1, 1), (2, 1), (1, 2), (2, 2)], (1, 2, 3)):
        k_pt, k_dual = pt_bounds(seeds.model, CurveClass(beta), n)
        beta = CurveClass(beta)
        windows += [(beta, n, k_pt - 1, k_dual + 1), (beta, -n, -k_dual - 1, 1 - k_pt)]
    # the tables are asked on the seed map's own cache, where every derivation marched
    tables = [chamber_table(seeds.model, *window, seeds.cache) for window in windows]
    assert all(table.entries[-1][1] == 0 for table in tables if table.n > 0)
    assert any(table.seed != 0 for table in tables)
    frozen = NumericalThreefold(p_seed=dict(seeds), **fields)
    assert tables == [chamber_table(frozen, *window) for window in windows]


def _half_degree_model():
    # basis degrees 1/2 and 3/2, m = 1 on the cone of (1,1), counts at a few n1 only
    cone = [(a, 0) for a in range(1, 5)] + [(0, 1), (1, 1)]
    counts = (((1, 0), range(1, 5), 1), ((0, 1), range(1, 4), 1), ((2, 0), (1, 3), -1),
              ((1, 1), (2, 4), 2))
    return NumericalThreefold(
        basis=(("C1", F(1, 2)), ("C2", F(3, 2))),
        omega_cubed=F(6),
        m_table={CurveClass(g): F(1) for g in cone},
        n_table={(s * n, CurveClass(g)): F(v) for g, ns, v in counts for n in ns for s in (1, -1)},
        p_seed=_SeedEverywhere(),
    )


def test_the_march_reads_the_reports_its_table_filled():
    # the walls of (1,1) sit on the grid G = 24, but each report is keyed by
    # its wall reduced to denominator 1, 2, 3 or 4
    model, cache = _half_degree_model(), TableCache()
    tables = [chamber_table(model, PAIR_BETA, n, -n, 3 - n, cache) for n in (2, 3)]
    assert cache.grids[PAIR_BETA][0] == 24
    walls = [chamber.hi for table in tables for chamber, _ in table.entries[:-1]]
    assert {w.denominator for w in walls} == {1, 2, 3, 4}
    assert all(len(set(v for _, v in table.entries)) > 2 for table in tables)
    size = len(cache.reports)
    for table in tables:
        for (left, left_value), (_, right_value) in zip(table.entries, table.entries[1:]):
            w = left.hi
            assert invariant_value(model, PAIR_BETA, table.n, w, False, cache) == left_value
            assert invariant_value(model, PAIR_BETA, table.n, w, True, cache) == right_value
    assert len(cache.reports) == size


def _has_a_count(model, beta, k0):
    """Whether some split (beta1, beta2) of beta has n1 = -2 * k0 * deg beta1 a nonzero integer
    with a nonzero N(n1, beta1), from the reference's splits and degrees."""
    for beta1, _ in reference_engine._splits(model, beta):
        n1 = -2 * k0 * degree(model, beta1)
        if n1 and n1.denominator == 1 and model.n_table.get((int(n1), beta1)):
            return True
    return False


def test_jumps_are_summed_only_where_a_count_can_jump_and_a_cli_table_fills_no_report(
    monkeypatch,
):
    # a grid walk would also sum the jumps of L((1,1), 2)'s sub-tables at walls without a count
    double, pair, half = conifold_double(1), conifold_pair(3, 2), _half_degree_model()
    for model, beta, n, lo, hi in ((double, C2_, -4, 0, 2), (pair, PAIR_BETA, 2, F(-1, 2), 0),
                                   (half, PAIR_BETA, 2, -2, 1), (half, PAIR_BETA, 3, -3, 0)):
        cache = TableCache()
        entries = crossing.chamber_values(model, beta, n, lo, hi, cache)
        assert entries == chamber_table(model, beta, n, lo, hi).entries and not cache.reports
        assert cache.jumps and all(
            _has_a_count(model, b, F(num, den)) for b, _, num, den in cache.jumps
        )
    # the table command prints the merged values and fills no report; cross still fills its own
    runs = chamber_table(double, C2_, 4, -2, 0).merged()
    filled, wall_total = [], crossing._wall_total
    monkeypatch.setattr(
        crossing, "_wall_total", lambda *args: filled.append(args[1:4]) or wall_total(*args)
    )
    preset = ["--preset", "conifold_double:1", "--beta", "2", "--n", "4"]
    out = io.StringIO()
    assert cli.main(["table", *preset, "--range", "-2:0"], out=out) == 0
    assert out.getvalue() == "".join(f"{lo}\t{hi}\t{value}\n" for lo, hi, value in runs)
    assert filled == []
    assert cli.main(["cross", *preset, "--k", "-1"], out=io.StringIO()) == 0
    assert filled == [(C2_, 4, F(-1))]


def _run_windows(model, beta, n):
    """Windows of L(beta, n): k_pt - 1 to k_pt + 2; one from the last wall w below k_pt; and the
    chamber above w with no interior wall, from w or its middle to the next wall or its middle."""
    outcome = _outcome(lambda: reference_engine.pt_bounds(model, beta, n)[0])
    if outcome[0] == "error":
        return [(F(-1), F(1))]  # every path must raise the reference's error
    k_pt = outcome[1]
    w = max((v for v in reference_engine.walls_in(model, beta, k_pt - 2, k_pt) if v < k_pt), default=None)
    if w is None:
        return [(k_pt - 1, k_pt + 2)]
    above = min(v for v in reference_engine.walls_in(model, beta, w, w + 3) if v > w)
    middle = (w + above) / 2
    return [(k_pt - 1, k_pt + 2), (w, k_pt + 1), (w, above), (middle, above), (w, middle)]


def _assert_runs_agree(model, beta, n, lo, hi, cache):
    """``chamber_runs``, on ``cache`` and on a fresh one, equals ``merge_runs`` of the entries of
    ``chamber_values``, ``chamber_table`` and the reference march, in value, type and error; and
    those entries agree by repr."""
    runs = _outcome(lambda: repr(chamber_runs(model, beta, n, lo, hi, cache)))
    assert runs == _outcome(lambda: repr(chamber_runs(model, beta, n, lo, hi)))
    reference = _outcome(lambda: reference_engine.chamber_values(model, beta, n, lo, hi))
    for entries in (_outcome(lambda: chamber_values(model, beta, n, lo, hi)),
                    _outcome(lambda: chamber_table(model, beta, n, lo, hi).entries), reference):
        assert repr(entries) == repr(reference)
        assert runs == (entries if entries[0] == "error" else ("ok", repr(merge_runs(entries[1]))))


def test_runs_equal_the_merged_chambers_on_the_reference_windows():
    for model, beta, _, rows in reference_tables():
        # and with every integral seed stored as an int
        ints = _replaced(model, p_seed={k: int(v) for k, v in model.p_seed.items()
                                        if v.denominator == 1})
        for variant in (model, ints):
            cache = TableCache()
            for n, lo, hi, *_ in rows:
                for n, lo, hi in ((n, lo, hi), (-n, -hi, -lo)):
                    for lo, hi in [(lo, hi)] + _run_windows(variant, beta, n):
                        _assert_runs_agree(variant, beta, n, lo, hi, cache)


def test_runs_equal_the_merged_chambers_on_the_heavy_curve_models():
    model, c, cc = heavy_curve_model(), C1_, C2_
    ints = _replaced(model, p_seed={k: int(v) for k, v in model.p_seed.items() if v.denominator == 1})
    violating = heavy_curve_model(p3_minus=F(-8), p3_plus=F(1))
    both = _replaced(violating, dropped={(-2, c)})
    for variant in (model, ints, violating, both):
        cache = TableCache()
        for beta, ns in ((cc, (5, -5)), (c, (2, -2, 3, -3))):
            for n in ns:
                for lo, hi in [(F(-1), F(1)), (F(0), F(1))] + _run_windows(variant, beta, n):
                    _assert_runs_agree(variant, beta, n, lo, hi, cache)
    # an int seed stays an int in the first run, whatever walls the run spans
    assert [type(v) for _, _, v in chamber_runs(ints, cc, 5, F(-1), F(0))] == [int, F, F]
    assert repr(chamber_runs(ints, c, 2, F(-2), F(-1, 2))) == repr(((F(-2), F(-1, 2), -4),))


@settings(max_examples=30, deadline=None)
@given(case=_synthetic_tables(), n=st.integers(-2, 2), data=st.data())
def test_runs_equal_the_merged_chambers_on_drawn_models(case, n, data):
    model, beta = case
    lo, hi = data.draw(st.sampled_from(_run_windows(model, beta, n)))
    _assert_runs_agree(model, beta, n, lo, hi, TableCache())


_HALVES_AND_THIRDS = [v for v in _NON_INTEGERS if v.denominator < 4]


@st.composite
def _fractional_m_tables(draw):
    """(model, beta): rank 1 or 2, every m a half or a third, so that k_pt = -mu/2 is often no
    wall of beta; sparse counts and a seed everywhere.  beta has a split (beta1, beta2) with
    beta2 != 0, and rank 2 often has equal basis degrees: that is where a wall below k_pt jumps."""
    rank = draw(st.integers(1, 2))
    degrees = [draw(st.sampled_from([F(1), F(2), F(1, 2)]))]
    degrees += [draw(st.sampled_from([degrees[0], F(1), F(2), F(1, 2)])) for _ in range(rank - 1)]
    coeffs = [draw(st.integers(3 - rank, 4 - rank)) for _ in range(rank)]
    deg = lambda g: sum(c * d for c, d in zip(g, degrees))
    cone = [g for g in itertools.product(*(range(int(deg(coeffs) / d) + 1) for d in degrees))
            if any(g) and deg(g) <= deg(coeffs)]
    box = [g for g in itertools.product(*(range(c + 1) for c in coeffs)) if any(g)]
    counts = st.sampled_from([None, F(1), F(-1, 2), F(2)])
    n_table = {(n1, CurveClass(g)): draw(counts) for g in box for n1 in range(-4, 5) if n1}
    model = NumericalThreefold(
        basis=tuple((f"C{i}", d) for i, d in enumerate(degrees)),
        omega_cubed=F(6),
        m_table={CurveClass(g): draw(st.sampled_from(_HALVES_AND_THIRDS)) for g in cone},
        n_table={key: v for key, v in n_table.items() if v is not None},
        p_seed=_SeedEverywhere(),
    )
    return model, CurveClass(coeffs)


@settings(max_examples=60, deadline=None)
@given(case=_fractional_m_tables())
def test_a_table_that_stands_holds_the_point_values_where_k_pt_is_no_wall(case):
    # a table refuses every jump below k_pt, where the march of a point query starts, so each
    # chamber of a table that does not raise holds the point value at its middle
    model, top = case
    shared = TableCache()
    box = itertools.product(*(range(c + 1) for c in top.coeffs))
    for beta, n in itertools.product([CurveClass(g) for g in box if any(g)], range(-2, 3)):
        k_pt = pt_bounds(model, beta, n)[0]
        for cache in (None, shared):
            table = _outcome(lambda: chamber_table(model, beta, n, k_pt - 1, k_pt + 2, cache))
            if table[0] == "error":
                assert table[2].startswith("model data violate the seed law: chamber ")
                continue
            for chamber, value in table[1].entries:
                middle = (chamber.lo + chamber.hi) / 2
                assert invariant_value(model, beta, n, middle, False, cache) == value
