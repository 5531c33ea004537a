"""Chamber-diagram rendering: plain text and static SVG, and crossing-report rows.

The diagram renderers are pure functions of a ChamberTable.  The SVG uses a fixed
1000x200 viewport: one horizontal axis, a vertical line per wall labeled
with the exact rational, and the constant value per chamber.
"""

from __future__ import annotations

from fractions import Fraction
from typing import List

from .crossing import ChamberTable, WallReport
from .modelio import format_rational


def render_text(table: ChamberTable) -> str:
    runs = table.merged()
    pieces = [format_rational(runs[0][0])]
    for lo, hi, value in runs:
        pieces.append(f"--[{format_rational(value)}]--")
        pieces.append(format_rational(hi))
    lines = [
        f"L(beta={table.beta}, n={table.n}) on [{format_rational(table.interval[0])}, "
        f"{format_rational(table.interval[1])}]",
        " ".join(pieces),
    ]
    eff = table.effective_walls()
    lines.append(
        "walls with a jump: " + (" ".join(format_rational(w) for w in eff) if eff else "none")
    )
    return "\n".join(lines) + "\n"


def render_report(report: WallReport) -> str:
    """One TSV row per datum: datum, coeff=, N= (or missing), L0=, contribution=."""
    lines = []
    for t in report.terms:
        if t.missing_n:
            n_txt = "missing"
        elif t.n_value is None:
            n_txt = "-"
        else:
            n_txt = format_rational(t.n_value)
        l_txt = "-" if t.l_value is None else format_rational(t.l_value)
        lines.append(
            f"datum\t{t.datum}\tcoeff={t.coefficient}\tN={n_txt}\tL0={l_txt}"
            f"\tcontribution={format_rational(t.contribution)}\n"
        )
    return "".join(lines)


def _x(k: Fraction, lo: Fraction, hi: Fraction) -> float:
    # margin 40 px each side of the 1000-wide viewport
    return 40.0 + 920.0 * float((k - lo) / (hi - lo))


def render_svg(table: ChamberTable) -> str:
    lo, hi = table.interval
    parts: List[str] = [
        '<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 1000 200" '
        'width="1000" height="200">',
        '<rect x="0" y="0" width="1000" height="200" fill="white"/>',
        '<line x1="40" y1="120" x2="960" y2="120" stroke="black" stroke-width="2"/>',
    ]
    walls = [w for w in (c.hi for c, _ in table.entries[:-1])]
    effective = set(table.effective_walls())
    for w in walls:
        x = _x(w, lo, hi)
        color = "black" if w in effective else "#999999"
        parts.append(
            f'<line x1="{x:.1f}" y1="60" x2="{x:.1f}" y2="160" '
            f'stroke="{color}" stroke-width="{2 if w in effective else 1}"/>'
        )
        parts.append(
            f'<text x="{x:.1f}" y="180" font-size="14" text-anchor="middle">'
            f"{format_rational(w)}</text>"
        )
    for run_lo, run_hi, value in table.merged():
        x = (_x(run_lo, lo, hi) + _x(run_hi, lo, hi)) / 2
        parts.append(
            f'<text x="{x:.1f}" y="100" font-size="18" text-anchor="middle">'
            f"{format_rational(value)}</text>"
        )
    for k, anchor in ((lo, "start"), (hi, "end")):
        x = _x(k, lo, hi)
        parts.append(
            f'<text x="{x:.1f}" y="45" font-size="14" text-anchor="{anchor}">'
            f"k = {format_rational(k)}</text>"
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
