"""Consistent-by-construction ladder models and the query plans run on them.

A ladder model is drawn from a seed; the engine only ever sees the frozen
model text.  The recipe:

* every nonzero class of the degree-bounded cone gets the ``m_table`` entry
  m = 1 (rigid rational curves).  The engine's m(beta) is the minimum over
  all nonzero classes of degree <= deg(beta), and that set always holds a
  basis curve of minimal degree, so other values would change only the
  model text, never m(beta) = 1;
* ``n_table`` is symmetric, N(n) = N(-n): every basis curve carries N = 1 for
  1 <= |n| <= 4, and a fixed share of the remaining (|n|, class) slots gets
  a small nonzero count;
* dual-side seeds are P(n <= 0) = 0, and each pair-side seed P(n > 0, beta')
  is derived so that the far-right value of the table (beta', n) is 0.
  Seeds are derived lazily for exactly the (beta', n') the workload's own
  queries reach; then the model is frozen with ``serialize_model``.

Which count slots are nonzero depends on the rung alone, and m(beta) = 1, so
every seed hands the engine the same recursion; the seed draws the values.
Runs at different seeds therefore time the same work.

This module runs only in the input-generation step, never while timing.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Tuple

from limitstab import presets
from limitstab.crossing import (
    TableCache,
    chamber_table,
    cross_wall,
    invariant_value,
    pt_symmetry_check,
)
from limitstab.geometry import CurveClass, NumericalThreefold
from limitstab.modelio import format_rational, serialize_model
from limitstab.walls import next_wall_above, pt_bounds
from workloads import POINT_FRACTIONS

# share of the non-basis (|n|, class) count slots that are nonzero
N_DENSITY = Fraction(1, 8)
N_VALUES = (1, 1, 2, -1)
BASIS_N_MAX = 4
VERIFY_OPS = 2  # `limitstab verify` ops per ladder_cold pass

Query = Tuple[Tuple[int, ...], int]


@dataclass(frozen=True)
class Rung:
    """One ladder model: basis degrees and the (beta, n > 0) tables queried.

    Every table in ``queries`` is also queried at -n on the mirrored range;
    the tables in ``one_sided`` are queried at n only.
    """

    name: str
    degrees: Tuple[int, ...]
    queries: Tuple[Query, ...]
    one_sided: Tuple[Query, ...] = ()


def _grid(classes, ns) -> Tuple[Query, ...]:
    return tuple((beta, n) for beta in classes for n in ns)


# ladder_cold: rank 1 to 3, class degree up to 12.  The rank-2 (3,3) n=4 and
# rank-3 (2,1,1) n=3 tables are the reference points for engine speed.  The
# small tables keep p50 and p90 inside dense stretches of the op costs, where
# they do not hinge on one table.  A pass takes about 2 s, so a run times
# every op about a dozen times; (3,3) is timed at n=4 only, because its
# n=-4 mirror alone takes 1.8 s and would make ops_per_s follow one op's
# noise (see README.md).
LADDER = (
    Rung(
        "r1",
        (1,),
        _grid([(1,), (2,), (3,), (4,), (5,), (6,), (7,), (8,), (10,), (12,)], (1,))
        + _grid([(2,), (3,), (4,), (5,)], (2,))
        + _grid([(2,), (3,), (4,)], (3,))
        + _grid([(2,), (3,)], (4,))
        + (((2,), 5),),
    ),
    Rung(
        "r2",
        (2, 1),
        _grid([(1, 0), (0, 1), (1, 1), (2, 1), (1, 2), (2, 2), (3, 1)], (1,))
        + _grid([(1, 0), (0, 1), (1, 1), (2, 0), (1, 2), (2, 1), (0, 3)], (2,))
        + _grid([(1, 1), (2, 1)], (3,))
        + (((1, 1), 4),),
        one_sided=(((3, 3), 4),),
    ),
    Rung(
        "r3",
        (1, 1, 1),
        _grid([(1, 0, 0), (1, 1, 0), (1, 1, 1), (2, 1, 1), (0, 1, 1), (1, 0, 1), (1, 0, 2)], (1,))
        + _grid([(1, 0, 0), (1, 1, 0), (1, 1, 1), (1, 0, 1)], (2,))
        + _grid([(1, 1, 0), (2, 1, 1)], (3,))
        + (((0, 1, 2), 2),),
    ),
)

F = Fraction
# session_warm: (preset, args, series (beta, n_max), [(beta, n, lo, hi)]); the
# windows are those of the reference tables, each also queried at -n on the
# mirrored range.  The doubled class has no n = 1, 2 seeds, so the double
# preset's series check runs on the simple class.
SESSION_PRESETS = (
    ("conifold_single", (1,), ((1,), 4),
     [((1,), n, F(-n, 2) - 1, F(1, 4) if n == 1 else F(0)) for n in range(1, 5)]),
    ("conifold_pair", (3, 2), ((1, 1), 2),
     [((1, 1), 1, F(-1, 2), F(0)), ((1, 1), 2, F(-1, 2), F(0))]),
    ("conifold_double", (1,), ((1,), 3), [((2,), 3, F(-2), F(0)), ((2,), 4, F(-2), F(0))]),
)
# two ladder models next to the presets: (rung, series (beta, n_max))
SESSION_LADDER = (
    (Rung("s2", (2, 1), (((2, 1), 2), ((2, 2), 2), ((1, 2), 3))), ((2, 1), 3)),
    (Rung("s3", (1, 1, 1), (((1, 1, 1), 2), ((1, 0, 1), 3))), ((1, 1, 1), 2)),
)


def _cone(degrees: Tuple[int, ...], bound: int) -> List[CurveClass]:
    ranges = [range(bound // d + 1) for d in degrees]
    return [
        CurveClass(c)
        for c in itertools.product(*ranges)
        if any(c) and sum(a * d for a, d in zip(c, degrees)) <= bound
    ]


class _LazySeeds(dict):
    """Seed map that derives a missing entry the first time the engine asks."""

    def __init__(self):
        super().__init__()
        self.model = None
        self.cache = TableCache()

    def __missing__(self, key):
        n, beta = key
        self[key] = Fraction(0)
        if n > 0:
            # march with seed 0: the far-right value is then minus the sum of
            # all jumps, and the seed that makes it 0 is that sum
            _, k_dual = pt_bounds(self.model, beta, n)
            right = (k_dual + next_wall_above(self.model, beta, k_dual)) / 2
            self[key] = -invariant_value(self.model, beta, n, right, cache=self.cache)
            # chamber values of (beta, n) were marched from the placeholder seed
            stale = [v for v in self.cache.values if v[0] == beta and v[1] == n]
            for vkey in stale:
                del self.cache.values[vkey]
        return self[key]


def build_model(
    rung: Rung, seed: int, run_queries: Callable[[NumericalThreefold], None]
) -> NumericalThreefold:
    """Draw the model of one rung; ``run_queries`` reaches every seed it needs."""
    shape = random.Random(f"ladder-shape:{rung.name}")
    rng = random.Random(f"ladder:{seed}:{rung.name}")
    rank = len(rung.degrees)
    bound = max(sum(a * d for a, d in zip(beta, rung.degrees)) for beta, _ in rung.queries + rung.one_sided)
    cone = _cone(rung.degrees, bound)
    basis = [CurveClass(tuple(int(i == j) for j in range(rank))) for i in range(rank)]
    m_table = {g: Fraction(1) for g in cone}
    n_table: Dict[Tuple[int, CurveClass], Fraction] = {}
    for g in basis:
        for n in range(1, BASIS_N_MAX + 1):
            n_table[(n, g)] = n_table[(-n, g)] = Fraction(1)
    slots = [(n, g) for g in cone for n in range(1, 2 * bound + 1) if (n, g) not in n_table]
    for n, g in shape.sample(slots, round(len(slots) * N_DENSITY)):
        n_table[(n, g)] = n_table[(-n, g)] = Fraction(rng.choice(N_VALUES))
    seeds = _LazySeeds()
    fields = dict(
        basis=tuple((f"C{i + 1}", Fraction(d)) for i, d in enumerate(rung.degrees)),
        omega_cubed=Fraction(6),
        m_table=m_table,
        n_table=n_table,
        name=rung.name,
    )
    seeds.model = NumericalThreefold(p_seed=seeds, **fields)
    run_queries(seeds.model)
    return NumericalThreefold(p_seed=dict(seeds), **fields)


def _windows(model, queries, mirror=True) -> List[Tuple[CurveClass, int, Fraction, Fraction]]:
    """Each (beta, n) on [lo, hi] with lo below k_pt and hi above k_dual, then,
    with ``mirror``, (beta, -n) on [-hi, -lo]; lo and hi sit on the
    half-integer grid."""
    out = []
    for beta, n in queries:
        beta = CurveClass(beta)
        k_pt, k_dual = pt_bounds(model, beta, n)
        lo, hi = Fraction(math.ceil(2 * k_pt) - 1, 2), Fraction(math.floor(2 * k_dual) + 1, 2)
        out += [(beta, n, lo, hi), (beta, -n, -hi, -lo)] if mirror else [(beta, n, lo, hi)]
    return out


def _class_text(beta: CurveClass) -> str:
    return ",".join(str(c) for c in beta.coeffs)


def ladder_cold_plan(seed: int) -> Tuple[Dict[str, str], List[dict]]:
    """Model texts by rung name, and the ladder_cold op list."""
    models, ops = {}, []
    for rung in LADDER:
        tables = []

        def run(model, rung=rung, tables=tables):
            cache = TableCache()
            for beta, n, lo, hi in _windows(model, rung.queries) + _windows(model, rung.one_sided, False):
                chamber_table(model, beta, n, lo, hi, cache)
                tables.append((beta, n, lo, hi))

        model = build_model(rung, seed, run)
        models[rung.name] = serialize_model(model)
        for beta, n, lo, hi in tables:
            ops.append(
                {
                    "kind": "table",
                    "model": rung.name,
                    "beta": _class_text(beta),
                    "n": n,
                    "range": f"{format_rational(lo)}:{format_rational(hi)}",
                    "p_left": format_rational(model.p_seed[(n, beta)]),
                    "p_right": format_rational(model.p_seed.get((-n, beta), Fraction(0))),
                }
            )
    step = len(ops) // (VERIFY_OPS + 1)
    for i in range(VERIFY_OPS, 0, -1):
        ops.insert(i * step, {"kind": "verify"})
    return models, ops


def _session(model, series, windows, plan: dict) -> None:
    """Run one session's queries on one cache and record them in ``plan``.

    The series check comes first, then the tables, then three interior points
    of every chamber, then the crossing report at every wall.
    """
    cache = TableCache()
    beta, n_max = CurveClass(series[0]), series[1]
    pt_symmetry_check(model, beta, n_max, cache)
    plan["series"] = [_class_text(beta), n_max]
    plan["tables"], plan["points"], plan["walls"] = [], [], []
    tables = []
    for beta, n, lo, hi in windows:
        tables.append(chamber_table(model, beta, n, lo, hi, cache))
        plan["tables"].append(
            {"beta": _class_text(beta), "n": n, "lo": format_rational(lo), "hi": format_rational(hi)}
        )
    for t, table in enumerate(tables):
        for chamber, _ in table.entries:
            for frac in POINT_FRACTIONS:
                k = chamber.lo + (chamber.hi - chamber.lo) * frac
                invariant_value(model, table.beta, table.n, k, cache=cache)
                plan["points"].append([t, format_rational(k)])
    for t, table in enumerate(tables):
        for (left, l_minus), _ in zip(table.entries, table.entries[1:]):
            cross_wall(model, table.beta, table.n, left.hi, l_minus, cache)
            plan["walls"].append([t, format_rational(left.hi), format_rational(l_minus)])


def session_warm_plan(seed: int) -> Tuple[Dict[str, str], List[dict]]:
    """Model texts of the ladder sessions, and one plan per session."""
    models, sessions = {}, []
    for name, args, series, windows in SESSION_PRESETS:
        model = presets.build_preset(name, tuple(Fraction(a) for a in args))
        mirrored = []
        for beta, n, lo, hi in windows:
            mirrored += [(CurveClass(beta), n, lo, hi), (CurveClass(beta), -n, -hi, -lo)]
        plan = {"preset": name, "args": list(args)}
        _session(model, series, mirrored, plan)
        sessions.append(plan)
    for rung, series in SESSION_LADDER:
        plan = {"model": rung.name}

        def run(model, rung=rung, series=series, plan=plan):
            _session(model, series, _windows(model, rung.queries), plan)

        models[rung.name] = serialize_model(build_model(rung, seed, run))
        sessions.append(plan)
    return models, sessions
