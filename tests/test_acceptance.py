"""Acceptance suite: the frozen reference numbers and the property gates.

Each test prints one pass line when its criterion holds; tolerances are
exact (Fraction equality) throughout, and the fuzz counts are the full
contract sizes.  Run `pytest -s tests/test_acceptance.py` to see the lines.
"""

import random
from fractions import Fraction

import pytest

from limitstab.charge import ch_of_sheaf, untwisted_slope
from limitstab.comparator import PhaseOrder, compare_phases, compare_phases_closed
from limitstab.crossing import (
    TableCache,
    chamber_table,
    enumerate_wall_data,
    hn_sort,
    pt_symmetry_check,
)
from limitstab.geometry import CurveClass
from limitstab.presets import conifold_double, conifold_pair, conifold_single

from _fuzz import (
    central_charge,
    comparator_case,
    cross_value,
    random_in_scope_class,
    random_model,
)

F = Fraction
C1_ = CurveClass((1,))
C2_ = CurveClass((2,))
PAIR_BETA = CurveClass((1, 1))


def _report(n, text):
    print(f"ACCEPTANCE {n}: PASS - {text}")


def test_criterion_01_pair_n1_table():
    pair = conifold_pair(3, 2)
    table = chamber_table(pair, PAIR_BETA, 1, F(-1, 2), F(0))
    assert [v for _, _, v in table.merged()] == [1, 0]
    assert table.effective_walls() == (F(-1, 10),)
    assert table.value_at(F(-1, 7)) == 1 and table.value_at(F(-1, 13)) == 0
    _report(1, "pair class n=1 table is 1 | -1/10 | 0")


def test_criterion_02_pair_n2_table_and_report():
    pair = conifold_pair(3, 2)
    table = chamber_table(pair, PAIR_BETA, 2, F(-1, 2), F(0))
    assert [v for _, _, v in table.merged()] == [-1, -2, 0]
    assert table.effective_walls() == (F(-1, 4), F(-1, 5))
    report = next(r for r in table.reports if r.k0 == F(-1, 4))
    assert len(report.terms) == 1
    term = report.terms[0]
    assert term.datum.beta1 == CurveClass((0, 1)) and term.datum.n1 == 1
    assert term.datum.beta2 == CurveClass((1, 0)) and term.datum.n2 == 1
    assert term.contribution == 1
    _report(2, "pair class n=2 table is -1 | -1/4 | -2 | -1/5 | 0 with the single 1-datum")


def test_criterion_03_double_n3_table_and_empty_wall():
    double = conifold_double(1)
    table = chamber_table(double, C2_, 3, F(-2), F(0))
    assert [v for _, _, v in table.merged()] == [-2, 0]
    assert table.effective_walls() == (F(-1),)
    assert enumerate_wall_data(double, C2_, 3, F(-3, 2)) == []
    _report(3, "doubled class n=3 table is -2 | -1 | 0 and -3/2 admits no datum")


def test_criterion_04_double_n4_table_and_wall_report():
    double = conifold_double(1)
    table = chamber_table(double, C2_, 4, F(-2), F(0))
    assert [v for _, _, v in table.merged()] == [4, 1, 0]
    assert table.effective_walls() == (F(-3, 2), F(-1))
    report = next(r for r in table.reports if r.k0 == F(-1))
    contribs = {(t.datum.beta1, t.datum.n1): t for t in report.terms}
    big = contribs[(C2_, 4)]
    assert big.n_value == F(-1, 4) and big.contribution == 1
    small = contribs[(C1_, 2)]
    assert small.l_value == 0 and small.contribution == 0
    _report(4, "doubled class n=4 table is 4 | -3/2 | 1 | -1 | 0 with the -1/4-count datum")


def test_criterion_05_single_dual_count_relation():
    single = conifold_single(1)
    report = pt_symmetry_check(single, C1_, 4)
    assert len(report.rows) == 4
    for row in report.rows:
        assert row.p_plus == F((-1) ** (row.n - 1) * row.n)
        assert row.p_minus_derived == 0
        assert row.relation_defect == 0
    _report(5, "single-curve dual counts vanish and the sign relation has zero defect")


def test_criterion_06_comparator_oracle_equivalence():
    rng = random.Random(1718)
    mismatches = 0
    for _ in range(10_000):
        model, ch_f, ch_e, k = comparator_case(rng)
        order = compare_phases(model, ch_f, ch_e, k)
        if order is not compare_phases_closed(model, ch_f, ch_e, k):
            mismatches += 1
            continue
        if order is not PhaseOrder.EQUAL:
            w = cross_value(model, ch_f, ch_e, k, 10**6)
            if (w > 0) != (order is PhaseOrder.PRECEDES):
                mismatches += 1
    assert mismatches == 0
    _report(6, "10^4 fuzz cases: both comparators agree and match sign W(10^6)")


def test_criterion_07_duality_symmetry_of_tables():
    tabulated = (
        (conifold_single(1), C1_, [(n, F(-n, 2) - 1, F(1, 4) if n == 1 else F(0)) for n in (1, 2, 3, 4)]),
        (conifold_pair(3, 2), PAIR_BETA, [(1, F(-1, 2), F(0)), (2, F(-1, 2), F(0))]),
        (conifold_double(1), C2_, [(3, F(-2), F(0)), (4, F(-2), F(0))]),
    )
    checked = 0
    for model, beta, windows in tabulated:
        cache = TableCache()
        for n, lo, hi in windows:
            plus = chamber_table(model, beta, n, lo, hi, cache)
            minus = chamber_table(model, beta, -n, -hi, -lo, cache)
            for chamber, value in plus.entries:
                span = chamber.hi - chamber.lo
                for t in (F(1, 4), F(1, 2), F(3, 4)):
                    point = chamber.lo + span * t
                    assert minus.value_at(-point) == value
                    checked += 1
    assert checked > 0
    _report(7, f"tables mirror under (n, k) -> (-n, -k) at {checked} interior points")


def test_criterion_08_threshold_direction():
    rng = random.Random(2829)
    violations = 0
    for _ in range(10_000):
        model, ch_f, ch_e, k = comparator_case(rng)
        if ch_f.r != 0 or all(g == 0 for g in ch_f.gamma):
            continue  # point-type F has no finite threshold
        order = compare_phases(model, ch_f, ch_e, k)
        if order in (PhaseOrder.SUCCEEDS, PhaseOrder.EQUAL):
            if k < -untwisted_slope(model, ch_f) / 2:
                violations += 1
    assert violations == 0
    _report(8, "no fuzz case succeeds or ties below the destabilizing threshold")


def test_criterion_09_phase_window():
    rng = random.Random(3940)
    violations = 0
    for _ in range(1000):
        model = random_model(rng)
        ch = random_in_scope_class(model, rng)
        k = F(rng.randint(-24, 24), rng.randint(1, 12))
        re, im = central_charge(model, ch, k, 10**6)
        # arg in (pi/4, 5pi/4) is the open half-plane Im(z * e^{-i pi/4}) > 0,
        # i.e. exactly im > re; exact sign test, no floats
        if not im > re:
            violations += 1
    assert violations == 0
    _report(9, "10^3 random in-scope classes land in the open phase window at m = 10^6")


def test_criterion_10_hn_sort_properties():
    rng = random.Random(5051)
    single = conifold_single(1)
    violations = 0
    for _ in range(1000):
        parts = [
            ch_of_sheaf(CurveClass((rng.randint(1, 4),)), rng.randint(-12, 12))
            for _ in range(rng.randint(1, 8))
        ]
        k = F(rng.randint(-12, 12), rng.randint(1, 6))
        groups = hn_sort(single, parts, k)
        slopes = [untwisted_slope(single, g[0]) - k for g in groups]
        if slopes != sorted(slopes, reverse=True) or len(set(slopes)) != len(slopes):
            violations += 1
        flat = [ch for g in groups for ch in g]
        if hn_sort(single, flat, k) != groups:
            violations += 1
        if len(groups) > 1:
            # merge two equal-slope parts: group count must not change
            g0 = groups[0]
            merged = g0[0] + g0[0]
            remaining = flat + [merged]
            if len(hn_sort(single, remaining, k)) != len(groups):
                violations += 1
    assert violations == 0
    _report(10, "10^3 random multisets: strict slopes, idempotence, see-saw grouping")
