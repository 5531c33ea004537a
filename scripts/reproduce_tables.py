#!/usr/bin/env python3
"""Recompute every bundled chamber table from its seeds and print the results.

Walks the reference tables that ``limitstab verify`` checks, marches the
crossing recursion over each tabulated (beta, n), and prints the merged
tables, the crossing rows of every wall with a jump or a missing count (in
the TSV form of ``limitstab cross``), and the dual-count relation rows.
Everything is exact; the output is deterministic and suitable for diffing.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from limitstab.crossing import TableCache, chamber_table, pt_symmetry_check
from limitstab.modelio import format_rational as fr
from limitstab.render import render_report, render_text
from limitstab.verify import reference_tables


def main() -> int:
    for model, beta, n_max, rows in reference_tables():
        print("=" * 72)
        print(f"model {model.name}, beta = {beta}")
        cache = TableCache()
        for n, lo, hi, *_ in rows:
            table = chamber_table(model, beta, n, lo, hi, cache)
            print()
            print(render_text(table), end="")
            for report in table.reports:
                if report.total == 0 and not any(t.missing_n for t in report.terms):
                    continue
                print(f"  crossing at k = {fr(report.k0)} (jump {fr(report.total)}):")
                print(render_report(report), end="")
        if n_max:
            print()
            print(f"dual-count relation up to n = {n_max}:")
            rep = pt_symmetry_check(model, beta, n_max, cache)
            for row in rep.rows:
                print(
                    f"  n={row.n}  P={fr(row.p_plus)}  P_dual={fr(row.p_minus_derived)}"
                    f"  defect={fr(row.relation_defect)}"
                )
            series = " + ".join(
                f"({fr(c)})q^{n}" for n, c in rep.laurent if c != 0
            )
            print(f"  truncated series: {series}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
