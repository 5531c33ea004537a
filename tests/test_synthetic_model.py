"""Engine coherence on geometries the presets do not cover.

The expected numbers were marched by hand from the jump law for a degree-2
curve with m([C]) = 2, counts N(+-2,[C]) = 2, N(+-3,[C]) = 3,
N(+-5,2[C]) = 1/2, and seeds chosen mutually consistent, meaning every
dual-side seed equals the derived far-side value (P(-n) = P(n) - jumps):

* sub-table ([C],2): jump -2*2*1 = -4 at -1/2, so P(-2,[C]) = 0 needs
  P(2,[C]) = -4;
* sub-table ([C],3): jump 3*3*1 = 9 at -3/4, so P(-3,[C]) = 0 needs
  P(3,[C]) = 9;
* main table (2[C],5) with P(5,2[C]) = 7: k_pt = -3/4; contributions
  3*3*(-4) = -36 at -3/4 and 5*(1/2)*1 = 5/2 at -5/8; the would-be datum
  at -1/2 carries the factor L([C],3) = P(-3,[C]) = 0 and contributes
  nothing.  Table: 7 | -3/4 | 43 | -5/8 | 81/2, so P(-5,2[C]) = 81/2.

The mirror table for n = -5 must reproduce those values reflected through
k = 0.  An inconsistent variant (a nonzero dual-side sub-seed that creates
a jump above the dual bound) must be refused by the seed-law guard.  A
rank-2 model with a negative m entry checks the sign handling of the
remainder bound: with m(beta2) <= 0 the bound and its involution image
overlap, so every slope-integral splitting is admissible and only the
count table decides.
"""

import io
import re
from fractions import Fraction

import pytest

from limitstab import cli
from limitstab.crossing import (
    TableCache, chamber_runs, chamber_table, chamber_values, enumerate_wall_data, invariant_value,
    l_at_wall,
)
from limitstab.errors import ModelDataError
from limitstab.geometry import CurveClass, NumericalThreefold, min_ch3
from limitstab.modelio import serialize_model
from limitstab.walls import mu_threshold

F = Fraction


def heavy_curve_model(p3_minus=F(0), p3_plus=F(9)):
    c, cc = CurveClass((1,)), CurveClass((2,))
    return NumericalThreefold(
        basis=(("C", F(2)),),
        omega_cubed=F(6),
        c2_omega=F(8),
        m_table={c: F(2), cc: F(3)},
        n_table={
            (2, c): F(2),
            (-2, c): F(2),
            (3, c): F(3),
            (-3, c): F(3),
            (5, cc): F(1, 2),
            (-5, cc): F(1, 2),
        },
        p_seed={
            (2, c): F(-4),
            (-2, c): F(0),
            (3, c): p3_plus,
            (-3, c): p3_minus,
            (5, cc): F(7),
            (-5, cc): F(81, 2),
        },
        name="heavy_curve",
    )


def test_heavy_curve_forward_table():
    model = heavy_curve_model()
    cc = CurveClass((2,))
    table = chamber_table(model, cc, 5, F(-1), F(0))
    assert table.merged() == (
        (F(-1), F(-3, 4), F(7)),
        (F(-3, 4), F(-5, 8), F(43)),
        (F(-5, 8), F(0), F(81, 2)),
    )
    at_34 = next(r for r in table.reports if r.k0 == F(-3, 4))
    assert at_34.total == -36
    assert at_34.terms[0].l_value == -4
    # the -1/2 datum is admissible but its recursive factor vanishes
    at_12 = next(r for r in table.reports if r.k0 == F(-1, 2))
    assert at_12.total == 0
    assert any(t.l_value == 0 for t in at_12.terms)


def test_heavy_curve_mirror_table_matches_exactly():
    model = heavy_curve_model()
    cc = CurveClass((2,))
    cache = TableCache()
    plus = chamber_table(model, cc, 5, F(-1), F(0), cache)
    minus = chamber_table(model, cc, -5, F(0), F(1), cache)
    assert minus.merged() == (
        (F(0), F(5, 8), F(81, 2)),
        (F(5, 8), F(3, 4), F(43)),
        (F(3, 4), F(1), F(7)),
    )
    for chamber, value in plus.entries:
        span = chamber.hi - chamber.lo
        for t in (F(1, 4), F(1, 2), F(3, 4)):
            assert minus.value_at(-(chamber.lo + span * t)) == value


def test_inconsistent_seeds_trip_the_seed_law_guard():
    # P(3,[C]) = 1 makes the derived dual value -8; declaring P(-3,[C]) = -8
    # is then self-consistent for [C] but creates a jump in the (2[C],-5)
    # march below its seed bound, which the guard must refuse
    model = heavy_curve_model(p3_minus=F(-8), p3_plus=F(1))
    cc = CurveClass((2,))
    with pytest.raises(ModelDataError, match=re.escape(
        "model data violate the seed law: chamber (1/2, 5/8) below k_pt = 5/8 carries 145/2 != seed 81/2"
    )):
        chamber_table(model, cc, -5, F(0), F(1))


def _replaced(model, n_table=(), p_seed=(), dropped=()):
    """``model`` with counts and seeds added or replaced, and the seeds ``dropped`` removed."""
    seeds = {key: v for key, v in {**model.p_seed, **dict(p_seed)}.items() if key not in dropped}
    return NumericalThreefold(*model[:4], {**model.n_table, **dict(n_table)}, seeds, model.name)


def test_the_seed_law_guard_names_the_first_violating_chamber():
    # N(-1,[C]) = 1 and P(-4,[C]) = 1 add a jump of -1 at 1/4, below the one at 1/2
    c = CurveClass((1,))
    model = _replaced(
        heavy_curve_model(p3_minus=F(-8), p3_plus=F(1)), n_table={(-1, c): F(1)}, p_seed={(-4, c): F(1)}
    )
    with pytest.raises(ModelDataError, match=re.escape(
        "model data violate the seed law: chamber (1/4, 3/8) below k_pt = 5/8 carries 83/2 != seed 81/2"
    )):
        chamber_table(model, CurveClass((2,)), -5, F(0), F(1))


def test_a_missing_sub_table_seed_at_a_later_wall_is_reported_before_the_seed_law():
    # the fill at 3/4, above k_pt = 5/8, reads L([C], -2); every report is filled first
    model = _replaced(heavy_curve_model(p3_minus=F(-8), p3_plus=F(1)), dropped={(-2, CurveClass((1,)))})
    with pytest.raises(ModelDataError, match=re.escape("p_seed has no entry for (n=-2, beta=(1))")):
        chamber_table(model, CurveClass((2,)), -5, F(0), F(1))


@pytest.mark.parametrize("changes, message", [
    ({}, "model data violate the seed law: chamber (1/2, 5/8) below k_pt = 5/8 carries 145/2 != seed 81/2"),
    (dict(n_table={(-1, CurveClass((1,))): F(1)}, p_seed={(-4, CurveClass((1,))): F(1)}),
     "model data violate the seed law: chamber (1/4, 3/8) below k_pt = 5/8 carries 83/2 != seed 81/2"),
    # a seed-law violation and a missing deeper seed: the fill's error wins
    (dict(dropped={(-2, CurveClass((1,)))}), "p_seed has no entry for (n=-2, beta=(1))"),
    (dict(n_table={(-1, CurveClass((1,))): F(1)}, p_seed={(-4, CurveClass((1,))): F(1)},
          dropped={(-2, CurveClass((1,)))}), "p_seed has no entry for (n=-2, beta=(1))"),
])
def test_every_table_path_raises_the_seed_law_and_fill_errors_alike(changes, message, tmp_path, capsys):
    model = _replaced(heavy_curve_model(p3_minus=F(-8), p3_plus=F(1)), **changes)
    cc = CurveClass((2,))
    for table in (chamber_table, chamber_values, chamber_runs):
        with pytest.raises(ModelDataError, match=f"^{re.escape(message)}$"):
            table(model, cc, -5, F(0), F(1))
    # the table command prints its runs only once all of them stand
    path = tmp_path / "inconsistent.model"
    path.write_text(serialize_model(model))
    out = io.StringIO()
    argv = ["table", "--model", str(path), "--beta", "2", "--n", "-5", "--range", "0:1"]
    assert cli.main(argv, out=out) == 1
    assert (out.getvalue(), capsys.readouterr()) == ("", ("", f"error: {message}\n"))


def test_an_int_seeded_table_keeps_its_value_types():
    # the first entry is the seed as stored; every later one is seed minus a Fraction total
    model = heavy_curve_model()
    ints = _replaced(model, p_seed={k: int(v) for k, v in model.p_seed.items() if v.denominator == 1})
    cc = CurveClass((2,))
    for n, lo, hi in ((5, F(-1), F(0)), (-5, F(0), F(1))):
        table, reference = chamber_table(ints, cc, n, lo, hi), chamber_table(model, cc, n, lo, hi)
        assert table == reference
        seed_type = type(ints.p_seed[(n, cc)])
        assert [type(v) for _, v in table.entries] == [seed_type] + [Fraction] * (len(table.entries) - 1)
    assert type(ints.p_seed[(5, cc)]) is int and type(ints.p_seed[(-5, cc)]) is Fraction
    # every wall of ([C], 2) below k_pt = -1/2 carries a zero jump: the int seed is still
    # converted at the first wall, and a zero jump makes no new value after that
    table = chamber_table(ints, CurveClass((1,)), 2, F(-2), F(-1, 2))
    assert len(table.reports) == 5 and not any(r.total for r in table.reports)
    assert [repr(v) for _, v in table.entries] == ["-4"] + ["Fraction(-4, 1)"] * 5
    assert all(v is table.entries[1][1] for _, v in table.entries[1:])
    assert table.merged() == ((F(-2), F(-1, 2), F(-4)),) and table.effective_walls() == ()


def test_a_point_query_on_an_int_seed_returns_a_fraction():
    # no jump of ([C], 2) lies below k = -1 < k_pt = -1/2: the answer is the seed, as a Fraction
    model = heavy_curve_model()
    ints = _replaced(model, p_seed={k: int(v) for k, v in model.p_seed.items() if v.denominator == 1})
    c = CurveClass((1,))
    assert type(ints.p_seed[(2, c)]) is int
    table = chamber_table(ints, c, 2, -2, F(-1, 2))
    for value in (invariant_value(ints, c, 2, -1), l_at_wall(ints, c, 2, -1)):
        assert repr(value) == "Fraction(-4, 1)" == repr(table.value_at(F(-9, 8)))


def negative_m_model():
    a, b = CurveClass((1, 0)), CurveClass((0, 1))
    return NumericalThreefold(
        basis=(("A", F(1)), ("B", F(2))),
        omega_cubed=F(6),
        m_table={
            a: F(-1),
            b: F(5),
            CurveClass((2, 0)): F(0),
        },
        name="negative_m",
    )


def test_negative_m_entries_flow_through_bounds():
    model = negative_m_model()
    a, b = CurveClass((1, 0)), CurveClass((0, 1))
    beta = CurveClass((1, 1))
    # N(A) = {A}; N(B) also holds A and 2A, whose m values undercut m(B)
    assert min_ch3(model, a) == -1
    assert min_ch3(model, b) == -1
    assert mu_threshold(model, beta, 1) == (1 - min_ch3(model, b)) / 1
    assert mu_threshold(model, beta, 1) == 2
    data = enumerate_wall_data(model, beta, 1, F(-1))
    assert [(d.beta1, d.n1, d.beta2, d.n2) for d in data] == [
        (a, 2, b, -1),   # remainder bound: -1 >= m(B-complement) = -1
        (b, 4, a, -3),   # involution image: -3 <= -m(A) = 1
    ]
