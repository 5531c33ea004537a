"""End-to-end verification of the three presets against the bundled tables.

Every check recomputes a published chamber table, crossing report, or
dual-count relation from the seeds alone and diffs it against the frozen
expected values.  Exact comparison, no tolerances.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List

from .crossing import TableCache, chamber_table, enumerate_wall_data, pt_symmetry_check
from .geometry import CurveClass
from .presets import conifold_double, conifold_pair, conifold_single

F = Fraction


@dataclass(frozen=True)
class CheckResult:
    name: str
    ok: bool
    detail: str = ""


def _datum_at_quarter(model, table) -> bool:
    quarter = [r for r in table.reports if r.k0 == F(-1, 4)]
    if len(quarter) != 1 or len(quarter[0].terms) != 1:
        return False
    term = quarter[0].terms[0]
    d = term.datum
    return (d.beta1, d.n1, d.beta2, d.n2, term.contribution) == (
        CurveClass((0, 1)), 1, CurveClass((1, 0)), 1, 1
    )


def _no_data_at_three_halves(model, table) -> bool:
    return enumerate_wall_data(model, table.beta, table.n, F(-3, 2)) == []


def _contributions_at_minus_one(model, table) -> bool:
    at_minus_1 = [r for r in table.reports if r.k0 == F(-1)][0]
    by_datum = {(t.datum.beta1, t.datum.n1): t.contribution for t in at_minus_1.terms}
    return by_datum.get((table.beta, 4)) == 1 and by_datum.get((CurveClass((1,)), 2)) == 0


def reference_tables():
    """The published tables, one ``(model, beta, n_max, rows)`` per preset class.

    A row is ``(n, k_lo, k_hi, merged values, jump walls, extra)``: the table
    L(beta, n) on [k_lo, k_hi], and ``extra`` either None or a
    ``(label, predicate(model, table))`` check of that table.  A set
    ``n_max`` adds the dual-count check for 1 <= n <= n_max after the rows.
    """
    single_rows = [
        (n, F(-n, 2) - 1, F(1, 4) if n == 1 else F(0), (F((-1) ** (n - 1) * n), F(0)),
         (F(-n, 2),), None)
        for n in range(1, 5)
    ]
    return (
        (conifold_single(1), CurveClass((1,)), 4, single_rows),
        (conifold_pair(3, 2), CurveClass((1, 1)), None, [
            (1, F(-1, 2), F(0), (F(1), F(0)), (F(-1, 10),), None),
            (2, F(-1, 2), F(0), (F(-1), F(-2), F(0)), (F(-1, 4), F(-1, 5)),
             ("crossing datum at -1/4", _datum_at_quarter)),
        ]),
        (conifold_double(1), CurveClass((2,)), None, [
            (3, F(-2), F(0), (F(-2), F(0)), (F(-1),),
             ("no admissible data at -3/2 for n=3", _no_data_at_three_halves)),
            (4, F(-2), F(0), (F(4), F(1), F(0)), (F(-3, 2), F(-1)),
             ("contributions at the -1 crossing", _contributions_at_minus_one)),
        ]),
    )


def run_verification() -> List[CheckResult]:
    results: List[CheckResult] = []
    tables = reference_tables()
    for model, beta, n_max, rows in tables:
        for n, lo, hi, values, walls, extra in rows:
            table = chamber_table(model, beta, n, lo, hi)
            got_values = tuple(v for _, _, v in table.merged())
            got_walls = table.effective_walls()
            results.append(
                CheckResult(
                    f"{model.name}: table beta={beta} n={n}",
                    got_values == values and got_walls == walls,
                    f"values {tuple(map(str, got_values))} walls {tuple(map(str, got_walls))}",
                )
            )
            if extra:
                label, holds = extra
                results.append(CheckResult(f"{model.name}: {label}", holds(model, table)))
        if n_max:
            report = pt_symmetry_check(model, beta, n_max)
            ok = all(r.p_minus_derived == 0 and r.relation_defect == 0 for r in report.rows)
            results.append(
                CheckResult(f"{model.name}: dual counts vanish with zero defect", ok)
            )

    for model, beta, _, rows in tables:
        cache = TableCache()
        ok = True
        for n, lo, hi, *_ in rows:
            plus = chamber_table(model, beta, n, lo, hi, cache)
            minus = chamber_table(model, beta, -n, -hi, -lo, cache)
            for chamber, value in plus.entries:
                span = chamber.hi - chamber.lo
                for t in (F(1, 4), F(1, 2), F(3, 4)):
                    point = chamber.lo + span * t
                    if minus.value_at(-point) != value:
                        ok = False
        results.append(CheckResult(f"{model.name}: tables mirror under (n,k) -> (-n,-k)", ok))
    return results
