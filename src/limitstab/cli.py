"""Command-line interface: batch queries against a model or preset.

The subcommands are declared in ``_COMMANDS`` and their options, each once,
in ``_OPTIONS``; ``limitstab <command> --help`` describes them.  The model
comes from --preset name[:args] or --model path (default taken from the
LIMITSTAB_MODEL environment variable).  Rationals print as p/q in lowest
terms, never as decimals.  Output ordering is deterministic: walls
ascend, crossing data sort by (deg beta1, coordinates of beta1).

``main`` parses with the named command's own parser, built on its first use.
The full parser of ``build_parser`` parses only an argv that names no command
or leaves arguments over, so every usage line, help text and error is its own.
``argparse``, ``render`` and ``verify`` load on first use, so importing this
module costs only the engine: ``argparse`` loads with the first parser,
``render`` with the ``cross`` and ``render`` commands, ``verify`` with ``verify``.
"""

from __future__ import annotations

import functools
import os
import re
import sys
from fractions import Fraction
from typing import TYPE_CHECKING, List, Optional, Tuple

from .charge import ChernCharacter, shape, slope, twisted_invariants, untwisted_slope
from .comparator import compare_phases, compare_phases_closed, cross_leading_term
from .crossing import (
    TableCache,
    chamber_runs,
    chamber_table,
    cross_wall,
    invariant_value,
    pt_symmetry_check,
)
from .errors import LimitStabError, TableArgumentError
from .modelio import format_rational, load_model, parse_class, parse_int
from .modelio import parse_rational, parse_rational_list
from .presets import PRESET_NAMES, build_preset
from .walls import is_wall, pt_bounds, wall_set

if TYPE_CHECKING:
    import argparse


class UsageError(Exception):
    pass


def _usage(parse, error=UsageError):
    """``parse`` with the errors it raises reported as ``error``s, usage errors by default."""
    def convert(text: str):
        try:
            return parse(text)
        except LimitStabError as exc:
            raise error(str(exc)) from None
    return convert


_parse_rational_arg = _usage(parse_rational)
_parse_rational_list = _usage(parse_rational_list)
_parse_beta = _usage(parse_class)


def _parse_int_arg(text: str) -> int:
    """argparse's type of --n and --n-max: a malformed integer is its ArgumentTypeError."""
    import argparse

    return _usage(parse_int, argparse.ArgumentTypeError)(text)


def _parse_range(text: str) -> Tuple[Fraction, Fraction]:
    if ":" not in text:
        raise UsageError(f"range must be lo:hi, got {text!r}")
    lo, _, hi = text.partition(":")
    return _parse_rational_arg(lo), _parse_rational_arg(hi)


def _parse_chern(text: str) -> ChernCharacter:
    """Parse 'r,c,(g1,g2,...),n' with rational entries."""
    m = re.fullmatch(r"\s*([^,()]+),([^,()]+),\(([^()]*)\),([^,()]+)\s*", text)
    if not m:
        raise UsageError(f"class must look like 'r,c,(g1,...),n', got {text!r}")
    r, c, gamma, n = m.groups()
    gamma = _parse_rational_list(gamma)  # read first, so its errors come before r's
    return ChernCharacter(*map(_parse_rational_arg, (r, c)), gamma, _parse_rational_arg(n))


def _resolve_model(args):
    """Build the preset or read the model file that the arguments name.

    Without --preset and --model the path comes from $LIMITSTAB_MODEL.
    """
    if args.preset is not None:
        name, _, argtext = args.preset.partition(":")
        params = _parse_rational_list(argtext)
        if args.model:
            raise UsageError("--preset and --model are mutually exclusive")
        return build_preset(name.strip(), params)
    path = args.model or os.environ.get("LIMITSTAB_MODEL")
    if path:
        try:
            return load_model(path)
        except (OSError, UnicodeDecodeError) as exc:
            reason = getattr(exc, "strerror", None) or exc
            raise UsageError(f"cannot read model file {path}: {reason}") from None
    raise UsageError("no model: pass --preset or --model, or set LIMITSTAB_MODEL")


# Each handler gets the model (None for verify), the arguments with every
# option converted, and the output stream; it returns an exit code only when
# that is not 0.

def _cmd_walls(model, args, out):
    for w in wall_set(model, args.beta, *args.range).walls:
        out.write(f"wall\t{format_rational(w)}\n")


def _cmd_mu(model, args, out):
    k_pt, k_dual = pt_bounds(model, args.beta, args.n)
    out.write(f"mu\t{format_rational(-2 * k_pt)}\n")
    out.write(f"k_pt\t{format_rational(k_pt)}\n")
    out.write(f"k_dual\t{format_rational(k_dual)}\n")


def _cmd_compare(model, args, out):
    ch_f, ch_e, k = args.f, args.e, args.k
    order = compare_phases(model, ch_f, ch_e, k)
    w_degree, w_leading = cross_leading_term(model, ch_f, ch_e, k)
    out.write(f"order\t{order.name.capitalize()}\n")
    out.write(f"W_degree\t{w_degree}\n")
    out.write(f"W_leading\t{format_rational(w_leading)}\n")
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


def _cmd_cross(model, args, out):
    from .render import render_report

    # L(0, n) has no walls, yet its crossing report stays allowed
    if not args.beta.is_zero() and not is_wall(model, args.beta, args.k):
        raise UsageError(f"k0 = {format_rational(args.k)} is not a wall of {args.beta}")
    cache = TableCache()
    l_minus = invariant_value(model, args.beta, args.n, args.k, from_right=False, cache=cache)
    l_plus, report = cross_wall(model, args.beta, args.n, args.k, l_minus, cache)
    out.write(f"wall\t{format_rational(report.k0)}\n")
    out.write(render_report(report))
    out.write(f"total\t{format_rational(report.total)}\n")
    out.write(f"L_minus\t{format_rational(l_minus)}\n")
    out.write(f"L_plus\t{format_rational(l_plus)}\n")


def _cmd_table(model, args, out):
    for lo, hi, value in chamber_runs(model, args.beta, args.n, *args.range):
        out.write(
            f"{format_rational(lo)}\t{format_rational(hi)}\t{format_rational(value)}\n"
        )


def _cmd_series(model, args, out):
    report = pt_symmetry_check(model, args.beta, args.n_max)
    out.write("n\tP\tP_dual\tdefect\n")
    for row in report.rows:
        out.write(
            f"{row.n}\t{format_rational(row.p_plus)}\t"
            f"{format_rational(row.p_minus_derived)}\t"
            f"{format_rational(row.relation_defect)}\n"
        )
    for n, coeff in report.laurent:
        out.write(f"coefficient\t{n}\t{format_rational(coeff)}\n")


def _cmd_verify(model, args, out):
    from .verify import run_verification

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


def _cmd_render(model, args, out):
    from .render import render_svg, render_text

    table = chamber_table(model, args.beta, args.n, *args.range)
    out.write(render_svg(table) if args.format == "svg" else render_text(table))


# Every option, declared once: its add_argument keywords and the converter
# that main applies to its string (argparse converts --n and --n-max).  main
# converts in this order, after resolving the model, so the order decides
# which of two malformed arguments is reported; the engine then checks the
# values (an empty --range, the rank and effectivity of --beta) in its own
# order.
_OPTIONS = {
    "--preset": (dict(
        help="preset geometry, e.g. conifold_single:1, conifold_pair:3,2, "
        f"conifold_double:1 (names: {', '.join(PRESET_NAMES)})",
    ), None),
    "--model": (dict(help="path to a model file (default: $LIMITSTAB_MODEL)"), None),
    "--range": (dict(required=True, help="k interval lo:hi, e.g. -2:0"), _parse_range),
    "--beta": (dict(required=True, help="curve class, e.g. 2 or 1,1"), _parse_beta),
    "--f": (dict(required=True, help="subobject class 'r,c,(g..),n'"), _parse_chern),
    "--e": (dict(required=True, help="ambient class 'r,c,(g..),n'"), _parse_chern),
    "--k": (dict(
        required=True, help="rational twist parameter (compare) or wall position k0 (cross)",
    ), _parse_rational_arg),
    "--n": (dict(required=True, type=_parse_int_arg), None),
    "--n-max": (dict(required=True, type=_parse_int_arg), None),
    "--format": (dict(choices=("text", "svg"), default="text"), None),
}

# every option takes a value; a flag added to _OPTIONS must be left out here
_VALUE_OPTIONS = frozenset(_OPTIONS)

_MODEL_OPTIONS = ("--preset", "--model")

# command: (handler, options in usage order, help, description); a command
# that takes --model reads a model
_COMMANDS = {
    "walls": (
        _cmd_walls, _MODEL_OPTIONS + ("--beta", "--range"),
        "walls inside a k-interval (TSV: wall<TAB>p/q)",
        "Walls of the class inside [lo, hi]. One TSV row per wall: wall<TAB>p/q, ascending.",
    ),
    "mu": (
        _cmd_mu, _MODEL_OPTIONS + ("--beta", "--n"),
        "slope threshold and chamber bounds (TSV)",
        "TSV rows mu, k_pt, k_dual: the slope threshold of (beta, n), the bound below "
        "which the table equals the pair seed, and the bound above which it equals the "
        "dual seed.",
    ),
    "compare": (
        _cmd_compare, _MODEL_OPTIONS + ("--f", "--e", "--k"),
        "asymptotic phase order of two classes", None,
    ),
    "cross": (
        _cmd_cross, _MODEL_OPTIONS + ("--beta", "--n", "--k"),
        "crossing report at one wall",
        "Rows: wall<TAB>k0; one datum row per admissible splitting with its coefficient, "
        "count N (or missing), recursive factor L0 and contribution; then total, L_minus, "
        "L_plus.",
    ),
    "table": (
        _cmd_table, _MODEL_OPTIONS + ("--beta", "--n", "--range"),
        "chamber table (TSV: k_lo<TAB>k_hi<TAB>L)",
        "Merged chamber table of L(beta, n) on [lo, hi]. One TSV row per constant run: "
        "k_lo<TAB>k_hi<TAB>L, ascending.",
    ),
    "series": (
        _cmd_series, _MODEL_OPTIONS + ("--beta", "--n-max"),
        "dual-count relation and series coefficients",
        "Header n<TAB>P<TAB>P_dual<TAB>defect, one row per n; then coefficient<TAB>n<TAB>p/q "
        "rows of the truncated series.",
    ),
    "verify": (_cmd_verify, (), "recompute the bundled reference tables", None),
    "render": (
        _cmd_render, _MODEL_OPTIONS + ("--beta", "--n", "--range", "--format"),
        "chamber diagram (text or SVG)", None,
    ),
}


def build_parser() -> argparse.ArgumentParser:
    import argparse

    parser = argparse.ArgumentParser(
        prog="limitstab",
        description="exact wall-and-chamber engine for limit-stability counting",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, _, help_text, description) in _COMMANDS.items():
        _with_options(sub.add_parser(name, help=help_text, description=description), name)
    return parser


def _with_options(parser: argparse.ArgumentParser, name: str) -> argparse.ArgumentParser:
    """``parser`` with the options of the command ``name`` added, in usage order."""
    for opt in _COMMANDS[name][1]:
        parser.add_argument(opt, **_OPTIONS[opt][0])
    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    """``main``'s fallback, the full parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


@functools.lru_cache(maxsize=None)
def _command_parser(name: str) -> argparse.ArgumentParser:
    """``build_parser()``'s subparser of ``name`` on its own, built once per process."""
    import argparse

    parser = argparse.ArgumentParser(prog=f"limitstab {name}", description=_COMMANDS[name][3])
    return _with_options(parser, name)


def _parse_args(argv: List[str]) -> argparse.Namespace:
    """``_parser().parse_args(argv)``, by the command's own parser unless that leaves any over."""
    if argv and argv[0] in _COMMANDS:
        args, extra = _command_parser(argv[0]).parse_known_args(argv[1:])
        if not extra:
            args.command = argv[0]
            return args
    return _parser().parse_args(argv)


def _merge_option_values(argv: List[str]) -> List[str]:
    """Rewrite ['--k', '-3/2'] as ['--k=-3/2'] so argparse accepts dash-leading values."""
    out, tokens = [], iter(argv)
    for tok in tokens:
        value = next(tokens, None) if tok in _VALUE_OPTIONS else None
        out.append(tok if value is None else f"{tok}={value}")
    return out


def main(argv: Optional[List[str]] = None, out=None) -> int:
    out = out or sys.stdout
    args = _parse_args(_merge_option_values(list(sys.argv[1:] if argv is None else argv)))
    handler, options, *_ = _COMMANDS[args.command]
    try:
        model = _resolve_model(args) if "--model" in options else None
        for opt, (_, convert) in _OPTIONS.items():
            if convert and opt in options:
                dest = opt[2:].replace("-", "_")
                setattr(args, dest, convert(getattr(args, dest)))
        return handler(model, args, out) or 0
    except (UsageError, TableArgumentError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except LimitStabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
