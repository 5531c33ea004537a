"""The three presets against their full tables, written out entry by entry.

An independent oracle: every table is a literal here, with no helper shared
with ``limitstab.presets``, and each model is compared with ``==``.  The
tables do not depend on the degrees, so each preset's m, N and P are written
once and checked at every degree below, together with that degree's basis
and name.
"""

from fractions import Fraction

import pytest

from limitstab.geometry import CurveClass
from limitstab.presets import build_preset, conifold_double, conifold_pair, conifold_single

F = Fraction
C = CurveClass((1,))
CC = CurveClass((2,))
C1, C2, B = CurveClass((1, 0)), CurveClass((0, 1)), CurveClass((1, 1))

SINGLE = dict(
    m_table={C: F(1)},
    n_table={
        (1, C): F(1), (-1, C): F(1), (2, C): F(1), (-2, C): F(1),
        (3, C): F(1), (-3, C): F(1), (4, C): F(1), (-4, C): F(1),
    },
    p_seed={
        (1, C): F(1), (-1, C): F(0), (2, C): F(-2), (-2, C): F(0),
        (3, C): F(3), (-3, C): F(0), (4, C): F(-4), (-4, C): F(0),
    },
)

PAIR = dict(
    m_table={C1: F(1), C2: F(1)},
    n_table={
        (1, C1): F(1), (-1, C1): F(1), (1, C2): F(1), (-1, C2): F(1),
        (1, B): F(1), (-1, B): F(1), (2, B): F(1), (-2, B): F(1),
    },
    p_seed={
        (1, C1): F(1), (-1, C1): F(0), (1, C2): F(1), (-1, C2): F(0),
        (1, B): F(1), (-1, B): F(0), (2, B): F(-1), (-2, B): F(0),
    },
)

DOUBLE = dict(
    m_table={C: F(1)},
    n_table={
        (1, C): F(1), (-1, C): F(1), (2, C): F(1), (-2, C): F(1),
        (3, C): F(1), (-3, C): F(1), (4, CC): F(-1, 4), (-4, CC): F(-1, 4),
    },
    p_seed={
        (1, C): F(1), (-1, C): F(0), (2, C): F(-2), (-2, C): F(0),
        (3, C): F(3), (-3, C): F(0),
        (3, CC): F(-2), (-3, CC): F(0), (4, CC): F(4), (-4, CC): F(0),
    },
)

CASES = [
    (conifold_single, (), (("C", F(1)),), SINGLE, "conifold_single(d=1)"),
    (conifold_single, (1,), (("C", F(1)),), SINGLE, "conifold_single(d=1)"),
    (conifold_single, (2,), (("C", F(2)),), SINGLE, "conifold_single(d=2)"),
    (conifold_single, (F(1, 2),), (("C", F(1, 2)),), SINGLE, "conifold_single(d=1/2)"),
    (conifold_single, (F(7, 3),), (("C", F(7, 3)),), SINGLE, "conifold_single(d=7/3)"),
    (conifold_double, (), (("C", F(1)),), DOUBLE, "conifold_double(d=1)"),
    (conifold_double, (1,), (("C", F(1)),), DOUBLE, "conifold_double(d=1)"),
    (conifold_double, (2,), (("C", F(2)),), DOUBLE, "conifold_double(d=2)"),
    (conifold_double, (F(1, 2),), (("C", F(1, 2)),), DOUBLE, "conifold_double(d=1/2)"),
    (conifold_double, (F(7, 3),), (("C", F(7, 3)),), DOUBLE, "conifold_double(d=7/3)"),
    (conifold_pair, (), (("C1", F(3)), ("C2", F(2))), PAIR, "conifold_pair(d1=3,d2=2)"),
    (conifold_pair, (3, 2), (("C1", F(3)), ("C2", F(2))), PAIR, "conifold_pair(d1=3,d2=2)"),
    (conifold_pair, (5, 1), (("C1", F(5)), ("C2", F(1))), PAIR, "conifold_pair(d1=5,d2=1)"),
    (conifold_pair, (F(5, 2), F(1, 3)), (("C1", F(5, 2)), ("C2", F(1, 3))), PAIR,
     "conifold_pair(d1=5/2,d2=1/3)"),
]


@pytest.mark.parametrize("make, args, basis, tables, name", CASES)
def test_preset_tables_in_full(make, args, basis, tables, name):
    model = make(*args)
    assert model.basis == basis
    assert (model.omega_cubed, model.c2_omega) == (F(6), F(0))
    assert model.m_table == tables["m_table"]
    assert model.n_table == tables["n_table"]
    assert model.p_seed == tables["p_seed"]
    assert model.name == name
    # every number is an exact Fraction, never an int or a float
    values = [d for _, d in model.basis] + [model.omega_cubed, model.c2_omega]
    for table in (model.m_table, model.n_table, model.p_seed):
        values += table.values()
    assert all(type(v) is F for v in values)
    # the CLI route builds the same model from Fraction arguments
    assert build_preset(make.__name__, tuple(F(a) for a in args)) == model
