"""Command-line interface: batch queries against a model or preset.

Subcommands
-----------
walls    walls inside a k-interval, one per line:  wall<TAB>p/q
mu       slope threshold and chamber bounds for (beta, n)
compare  asymptotic phase order of two classes, with both decision routes
cross    crossing report at one wall: every datum and its contribution
table    chamber table, merged runs:  k_lo<TAB>k_hi<TAB>L
series   dual-count relation report and truncated series coefficients
verify   recompute the bundled reference tables; exit 1 on any mismatch
render   chamber diagram as text or SVG

The model comes from --preset name[:args] or --model path (default taken
from the LIMITSTAB_MODEL environment variable).  Rationals print as p/q in
lowest terms, never as decimals.  Output ordering is deterministic: walls
ascend, crossing data sort by (deg beta1, n1).
"""

from __future__ import annotations

import argparse
import functools
import os
import re
import sys
from fractions import Fraction
from typing import List, Optional, Tuple

from .charge import ChernCharacter, shape, slope, twisted_invariants, untwisted_slope
from .comparator import compare_phases, compare_phases_closed, cross_polynomial
from .crossing import (
    TableCache,
    chamber_table,
    cross_wall,
    invariant_value,
    pt_symmetry_check,
)
from .errors import LimitStabError
from .geometry import CurveClass
from .modelio import format_rational, load_model, parse_class, parse_rational
from .poly import degree as poly_degree, leading
from .presets import PRESET_NAMES, build_preset
from .render import render_report, render_svg, render_text
from .verify import run_verification
from .walls import mu_threshold, pt_bounds, wall_set


class UsageError(Exception):
    pass


def _parse_rational_arg(text: str) -> Fraction:
    try:
        return parse_rational(text)
    except LimitStabError as exc:
        raise UsageError(str(exc)) from None


def _parse_range(text: str) -> Tuple[Fraction, Fraction]:
    if ":" not in text:
        raise UsageError(f"range must be lo:hi, got {text!r}")
    lo, _, hi = text.partition(":")
    return _parse_rational_arg(lo), _parse_rational_arg(hi)


def _parse_beta(text: str) -> CurveClass:
    try:
        return parse_class(text)
    except LimitStabError as exc:
        raise UsageError(str(exc)) from None


def _parse_chern(text: str) -> ChernCharacter:
    """Parse 'r,c,(g1,g2,...),n' with rational entries."""
    m = re.fullmatch(r"\s*([^,()]+),([^,()]+),\(([^()]*)\),([^,()]+)\s*", text)
    if not m:
        raise UsageError(
            f"class must look like 'r,c,(g1,...),n', got {text!r}"
        )
    gamma = tuple(
        _parse_rational_arg(p) for p in m.group(3).split(",") if p.strip() != ""
    )
    return ChernCharacter(
        _parse_rational_arg(m.group(1)),
        _parse_rational_arg(m.group(2)),
        gamma,
        _parse_rational_arg(m.group(4)),
    )


def _resolve_model(args):
    """Build the preset or read the model file that the arguments name.

    Without --preset and --model the path comes from $LIMITSTAB_MODEL.
    """
    name, path = None, args.model
    if args.preset:
        name, _, argtext = args.preset.partition(":")
        name = name.strip()
        params = tuple(
            _parse_rational_arg(p) for p in argtext.split(",") if p.strip() != ""
        )
    elif not path:
        path = os.environ.get("LIMITSTAB_MODEL")
    if name and path:
        raise UsageError("--preset and --model are mutually exclusive")
    if name:
        try:
            return build_preset(name, params)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
    if path:
        try:
            return load_model(path)
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise UsageError(f"cannot read model file {path}: {reason}") from None
    raise UsageError("no model: pass --preset or --model, or set LIMITSTAB_MODEL")


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument(
        "--preset",
        help="preset geometry, e.g. conifold_single:1, conifold_pair:3,2, "
        f"conifold_double:1 (names: {', '.join(PRESET_NAMES)})",
    )
    p.add_argument("--model", help="path to a model file (default: $LIMITSTAB_MODEL)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="limitstab",
        description="exact wall-and-chamber engine for limit-stability counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "walls",
        help="walls inside a k-interval (TSV: wall<TAB>p/q)",
        description="Walls of the class inside [lo, hi]. One TSV row per wall: "
        "wall<TAB>p/q, ascending.",
    )
    _add_model_args(p)
    p.add_argument("--beta", required=True, help="curve class, e.g. 2 or 1,1")
    p.add_argument("--range", required=True, help="k interval lo:hi, e.g. -2:0")

    p = sub.add_parser(
        "mu",
        help="slope threshold and chamber bounds (TSV)",
        description="TSV rows mu, k_pt, k_dual: the slope threshold of (beta, n), "
        "the bound below which the table equals the pair seed, and the bound "
        "above which it equals the dual seed.",
    )
    _add_model_args(p)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", required=True, type=int)

    p = sub.add_parser("compare", help="asymptotic phase order of two classes")
    _add_model_args(p)
    p.add_argument("--f", required=True, help="subobject class 'r,c,(g..),n'")
    p.add_argument("--e", required=True, help="ambient class 'r,c,(g..),n'")
    p.add_argument("--k", required=True, help="twist parameter, rational")

    p = sub.add_parser(
        "cross",
        help="crossing report at one wall",
        description="Rows: wall<TAB>k0; one datum row per admissible splitting "
        "with its coefficient, count N (or missing), recursive factor L0 and "
        "contribution; then total, L_minus, L_plus.",
    )
    _add_model_args(p)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--k", required=True, help="wall position k0")

    p = sub.add_parser(
        "table",
        help="chamber table (TSV: k_lo<TAB>k_hi<TAB>L)",
        description="Merged chamber table of L(beta, n) on [lo, hi]. One TSV row "
        "per constant run: k_lo<TAB>k_hi<TAB>L, ascending.",
    )
    _add_model_args(p)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--range", required=True, help="k interval lo:hi")

    p = sub.add_parser(
        "series",
        help="dual-count relation and series coefficients",
        description="Header n<TAB>P<TAB>P_dual<TAB>defect, one row per n; then "
        "coefficient<TAB>n<TAB>p/q rows of the truncated series.",
    )
    _add_model_args(p)
    p.add_argument("--beta", required=True)
    p.add_argument("--n-max", required=True, type=int)

    p = sub.add_parser("verify", help="recompute the bundled reference tables")

    p = sub.add_parser("render", help="chamber diagram (text or SVG)")
    _add_model_args(p)
    p.add_argument("--beta", required=True)
    p.add_argument("--n", required=True, type=int)
    p.add_argument("--range", required=True)
    p.add_argument("--format", choices=("text", "svg"), default="text")
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """The parser of ``main``, built once per process: parsing leaves it unchanged."""
    return build_parser()


def _cmd_walls(args, out) -> int:
    model = _resolve_model(args)
    lo, hi = _parse_range(args.range)
    ws = wall_set(model, _parse_beta(args.beta), lo, hi)
    for w in ws.walls:
        out.write(f"wall\t{format_rational(w)}\n")
    return 0


def _cmd_mu(args, out) -> int:
    model = _resolve_model(args)
    beta = _parse_beta(args.beta)
    mu = mu_threshold(model, beta, args.n)
    k_pt, k_dual = pt_bounds(model, beta, args.n)
    out.write(f"mu\t{format_rational(mu)}\n")
    out.write(f"k_pt\t{format_rational(k_pt)}\n")
    out.write(f"k_dual\t{format_rational(k_dual)}\n")
    return 0


def _cmd_compare(args, out) -> int:
    model = _resolve_model(args)
    ch_f, ch_e = _parse_chern(args.f), _parse_chern(args.e)
    k = _parse_rational_arg(args.k)
    for label, ch in (("F", ch_f), ("E", ch_e)):
        if shape(ch) is None:
            raise UsageError(f"{label} class {ch} is zero or out of scope")
    order = compare_phases(model, ch_f, ch_e, k)
    w = cross_polynomial(model, ch_f, ch_e, k)
    out.write(f"order\t{order.name.capitalize()}\n")
    out.write(f"W_degree\t{poly_degree(w)}\n")
    out.write(f"W_leading\t{format_rational(leading(w))}\n")
    if shape(ch_f) in ("sheaf", "point") and shape(ch_e) == "pair":
        closed = compare_phases_closed(model, ch_f, ch_e, k)
        out.write(f"closed_order\t{closed.name.capitalize()}\n")
        if shape(ch_f) == "sheaf":
            mu_f = slope(model, ch_f, k)
            te = twisted_invariants(model, ch_e, k)
            out.write(f"slope_lhs\t{format_rational(untwisted_slope(model, ch_f))}\n")
            out.write(f"slope_rhs\t{format_rational(-2 * k)}\n")
            out.write(f"tie_lhs\t{format_rational(te.w2 * mu_f)}\n")
            out.write(f"tie_rhs\t{format_rational(te.v3)}\n")
        else:
            out.write("slope_lhs\tpoint\n")
    return 0


def _cmd_cross(args, out) -> int:
    model = _resolve_model(args)
    beta = _parse_beta(args.beta)
    k0 = _parse_rational_arg(args.k)
    cache = TableCache()
    l_minus = invariant_value(model, beta, args.n, k0, from_right=False, cache=cache)
    l_plus, report = cross_wall(model, beta, args.n, k0, l_minus, cache)
    out.write(f"wall\t{format_rational(report.k0)}\n")
    out.write(render_report(report))
    out.write(f"total\t{format_rational(report.total)}\n")
    out.write(f"L_minus\t{format_rational(l_minus)}\n")
    out.write(f"L_plus\t{format_rational(l_plus)}\n")
    return 0


def _make_table(args):
    model = _resolve_model(args)
    lo, hi = _parse_range(args.range)
    return chamber_table(model, _parse_beta(args.beta), args.n, lo, hi)


def _cmd_table(args, out) -> int:
    table = _make_table(args)
    for lo, hi, value in table.merged():
        out.write(
            f"{format_rational(lo)}\t{format_rational(hi)}\t{format_rational(value)}\n"
        )
    return 0


def _cmd_series(args, out) -> int:
    model = _resolve_model(args)
    report = pt_symmetry_check(model, _parse_beta(args.beta), args.n_max)
    out.write("n\tP\tP_dual\tdefect\n")
    for row in report.rows:
        out.write(
            f"{row.n}\t{format_rational(row.p_plus)}\t"
            f"{format_rational(row.p_minus_derived)}\t"
            f"{format_rational(row.relation_defect)}\n"
        )
    for n, coeff in report.laurent:
        out.write(f"coefficient\t{n}\t{format_rational(coeff)}\n")
    return 0


def _cmd_verify(args, out) -> int:
    results = run_verification()
    failed = 0
    for r in results:
        if r.ok:
            out.write(f"ok\t{r.name}\n")
        else:
            failed += 1
            out.write(f"FAIL\t{r.name}\t{r.detail}\n")
    out.write(f"{'FAILED' if failed else 'passed'}\t{len(results) - failed}/{len(results)}\n")
    return 1 if failed else 0


def _cmd_render(args, out) -> int:
    table = _make_table(args)
    out.write(render_svg(table) if args.format == "svg" else render_text(table))
    return 0


_COMMANDS = {
    "walls": _cmd_walls,
    "mu": _cmd_mu,
    "compare": _cmd_compare,
    "cross": _cmd_cross,
    "table": _cmd_table,
    "series": _cmd_series,
    "verify": _cmd_verify,
    "render": _cmd_render,
}


_VALUE_OPTIONS = {
    "--preset", "--model", "--beta", "--range", "--k", "--f", "--e",
    "--n", "--n-max", "--format",
}


def _merge_option_values(argv: List[str]) -> List[str]:
    """Rewrite ['--k', '-3/2'] as ['--k=-3/2'] so argparse accepts dash-leading values."""
    out, i = [], 0
    while i < len(argv):
        tok = argv[i]
        if tok in _VALUE_OPTIONS and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = _parser().parse_args(_merge_option_values(
        list(sys.argv[1:] if argv is None else argv)
    ))
    try:
        return _COMMANDS[args.command](args, out)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (LimitStabError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
