"""Edge cases of the chamber march: the side taken at a wall, a wall at k_pt,
the at-wall rule of l_at_wall, and the order of queries on a shared cache.

The reference tables of ``limitstab verify`` and their (n, k) -> (-n, -k)
mirrors give the models, classes and windows.  Every value read at a wall
is checked against the table's chamber on the matching side, sampled at a
point strictly inside that chamber.
"""

from fractions import Fraction

from hypothesis import given, settings, strategies as st

from limitstab.crossing import (
    TableCache,
    chamber_table,
    cross_wall,
    enumerate_wall_data,
    invariant_value,
    l_at_wall,
)
from limitstab.geometry import CurveClass
from limitstab.presets import conifold_single
from limitstab.verify import reference_tables
from limitstab.walls import is_wall, next_wall_above, pt_bounds

F = Fraction


REFERENCE = reference_tables()
MODELS = [model for model, *_ in REFERENCE]


def _tables():
    """(model index, model, beta, n, table) for each reference table and its mirror."""
    out = []
    for index, (model, beta, _, rows) in enumerate(REFERENCE):
        for n, lo, hi, *_ in rows:
            for sign in (1, -1):
                window = sorted((sign * lo, sign * hi))
                out.append((index, model, beta, sign * n, chamber_table(model, beta, sign * n, *window)))
    return out


TABLES = _tables()


def _inside(chamber):
    return (chamber.lo + chamber.hi) / 2


def _walls(table):
    return [chamber.lo for chamber, _ in table.entries[1:]]


def test_a_wall_reads_the_chamber_on_the_asked_side():
    for _, model, beta, n, table in TABLES:
        assert len(table.entries) >= 2
        for (left, _), (right, _) in zip(table.entries, table.entries[1:]):
            w = left.hi
            assert invariant_value(model, beta, n, w, False) == table.value_at(_inside(left))
            assert invariant_value(model, beta, n, w) == table.value_at(_inside(left))
            assert invariant_value(model, beta, n, w, True) == table.value_at(_inside(right))


def test_a_wall_at_k_pt_reads_the_seed_on_its_left():
    checked = []
    for _, model, beta, n, _ in TABLES:
        k_pt = pt_bounds(model, beta, n)[0]
        if not is_wall(model, beta, k_pt):
            continue
        right = (k_pt + next_wall_above(model, beta, k_pt)) / 2
        seed = model.p_seed[(n, beta)]
        assert invariant_value(model, beta, n, k_pt, False) == seed
        assert invariant_value(model, beta, n, k_pt, True) == invariant_value(model, beta, n, right)
        assert invariant_value(model, beta, n, k_pt - F(1, 1000)) == seed
        checked.append((model.name, beta, n, k_pt))
    # conifold_single(1), n = 1: k_pt = -1/2 is the wall where the seed 1 drops to 0
    single = conifold_single(1)
    assert (single.name, CurveClass((1,)), 1, F(-1, 2)) in checked
    assert invariant_value(single, CurveClass((1,)), 1, F(-1, 2), True) == 0
    # without a side, a wall reads its left chamber
    assert invariant_value(single, CurveClass((1,)), 1, F(-1, 2)) == 1


def _at_wall_points():
    """(model, beta, n, k0): each table's class at its walls and at points
    between them, and every remainder class of the data at those walls."""
    out = []
    for _, model, beta, n, table in TABLES:
        walls = _walls(table)
        for k0 in walls + [_inside(chamber) for chamber, _ in table.entries]:
            out.append((model, beta, n, k0))
        for k0 in walls:
            out += [(model, d.beta2, d.n2, k0) for d in enumerate_wall_data(model, beta, n, k0)]
    return out


def test_l_at_wall_takes_the_side_toward_zero():
    points = _at_wall_points()
    assert any(k0 > 0 for *_, k0 in points) and any(k0 == 0 for *_, k0 in points)
    assert any(beta.is_zero() for _, beta, _, _ in points)
    for model, beta, n, k0 in points:
        assert l_at_wall(model, beta, n, k0) == invariant_value(model, beta, n, k0, k0 <= 0)


def _queries():
    """Each query is (model index, call(model, cache)); a pool over every window."""
    out = []
    for index, model, beta, n, table in TABLES:
        walls = _walls(table)
        k_pt = pt_bounds(model, beta, n)[0]
        out.append((index, lambda m, c, b=beta, n=n, w=table.interval: chamber_table(m, b, n, *w, c)))
        for k in walls + [k_pt, k_pt - 1] + [_inside(chamber) for chamber, _ in table.entries]:
            for side in (False, True):
                out.append((index, lambda m, c, b=beta, n=n, k=k, s=side:
                            invariant_value(m, b, n, k, s, c)))
        for k0 in walls:
            out.append((index, lambda m, c, b=beta, n=n, k0=k0: l_at_wall(m, b, n, k0, c)))
            out.append((index, lambda m, c, b=beta, n=n, k0=k0: cross_wall(m, b, n, k0, F(3), c)))
            for d in enumerate_wall_data(model, beta, n, k0):
                out.append((index, lambda m, c, d=d: l_at_wall(m, d.beta2, d.n2, d.k0, c)))
    return out


QUERIES = _queries()
FRESH = [call(MODELS[index], None) for index, call in QUERIES]


@settings(max_examples=150, deadline=None)
@given(order=st.lists(st.integers(0, len(QUERIES) - 1), min_size=1, max_size=25))
def test_query_order_on_a_shared_cache_changes_no_value(order):
    caches = [TableCache() for _ in MODELS]
    for i in order:
        index, call = QUERIES[i]
        assert call(MODELS[index], caches[index]) == FRESH[i]
