"""Model files: a line-oriented key-value format with sectioned blocks.

Example::

    # two intersecting rigid curves
    omega_cubed = 6
    c2_omega = 0

    [basis]
    C1 = 3
    C2 = 2

    [m_table]
    (1,0) = 1
    (0,1) = 1

    [n_table]
    1 (0,1) = 1

    [p_seed]
    1 (1,1) = 1
    -1 (1,1) = 0

Classes are integer coefficient tuples ``(a,b,...)`` over the basis order;
rationals are ``p/q`` strings (or bare integers) and render in lowest terms.
``[n_table]`` and ``[p_seed]`` lines carry the integer n before the class.
Parse errors name the offending line; validation errors name the violated
invariant.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import ModelParseError
from .geometry import CurveClass, NumericalThreefold

_SECTIONS = ("basis", "m_table", "n_table", "p_seed")
_SCALARS = ("omega_cubed", "c2_omega")
_RATIONAL = re.compile(r"(-?\d+)\s*(?:/\s*(-?\d+))?")
_SEEDED_KEY = re.compile(r"(-?\d+)\s+(\(.*\))")


def parse_rational(text: str, line: int | None = None) -> Fraction:
    text = text.strip()
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise ModelParseError(f"malformed rational {text!r}", line)
    num = int(m.group(1))
    den = int(m.group(2)) if m.group(2) is not None else 1
    if den == 0:
        raise ModelParseError(f"malformed rational {text!r} (zero denominator)", line)
    return Fraction(num, den)


def format_rational(x: Fraction) -> str:
    x = Fraction(x)
    return str(x.numerator) if x.denominator == 1 else f"{x.numerator}/{x.denominator}"


def parse_class(text: str, line: int | None = None) -> CurveClass:
    text = text.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    if text == "":
        raise ModelParseError("empty class tuple", line)
    try:
        coeffs = tuple(int(p.strip()) for p in text.split(","))
    except ValueError:
        raise ModelParseError(f"malformed class tuple {text!r}", line) from None
    return CurveClass(coeffs)


def _duplicate(section: Optional[str], key, line: int, first: int) -> ModelParseError:
    if section is None:
        what = f"top-level key {key!r}"
    elif section == "basis":
        what = f"basis name {key!r}"
    elif section == "m_table":
        what = f"m_table class {key}"
    else:
        what = f"{section} entry {key[0]} {key[1]}"
    return ModelParseError(f"duplicate {what} (first given on line {first})", line)


def parse_model(text: str, name: str = "custom") -> NumericalThreefold:
    """Read model-file text in one pass over its lines.

    Each distinct class text and value text is converted once per call.  A
    repeated top-level key, basis name, m class or (n, class) entry is an
    error naming both lines.
    """
    tables: Dict[Optional[str], dict] = {s: {} for s in (None,) + _SECTIONS}
    first_line: Dict[Tuple[Optional[str], object], int] = {}
    classes: Dict[str, CurveClass] = {}
    values: Dict[str, Fraction] = {}
    section, target = None, tables[None]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ModelParseError(f"unknown section [{section}]", lineno)
            target = tables[section]
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ModelParseError(f"expected 'key = value', got {line!r}", lineno)
        key = key.strip()
        if section is None:
            if key not in _SCALARS:
                raise ModelParseError(f"unknown top-level key {key!r}", lineno)
        elif section != "basis":
            n, class_text = None, key
            if section != "m_table":
                m = _SEEDED_KEY.fullmatch(key)
                if not m:
                    raise ModelParseError(
                        f"expected 'n (class) = value' in [{section}], got {line!r}",
                        lineno,
                    )
                n, class_text = int(m.group(1)), m.group(2)
            gamma = classes.get(class_text)
            if gamma is None:
                gamma = classes[class_text] = parse_class(class_text, lineno)
            key = gamma if n is None else (n, gamma)
        first = first_line.setdefault((section, key), lineno)
        if first != lineno:
            raise _duplicate(section, key, lineno, first)
        value = value.strip()
        number = values.get(value)
        if number is None:
            number = values[value] = parse_rational(value, lineno)
        target[key] = number
    scalars = tables[None]
    if "omega_cubed" not in scalars:
        raise ModelParseError("model is missing omega_cubed")
    try:
        return NumericalThreefold(
            basis=tuple(tables["basis"].items()),
            omega_cubed=scalars["omega_cubed"],
            c2_omega=scalars.get("c2_omega", Fraction(0)),
            m_table=tables["m_table"],
            n_table=tables["n_table"],
            p_seed=tables["p_seed"],
            name=name,
        )
    except ValueError as exc:
        raise ModelParseError(f"invalid model: {exc}") from None


def load_model(path: str) -> NumericalThreefold:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_model(fh.read(), name=path)


def serialize_model(model: NumericalThreefold) -> str:
    """Canonical text form; parsing it back reproduces the model exactly."""
    lines = [
        f"omega_cubed = {format_rational(model.omega_cubed)}",
        f"c2_omega = {format_rational(model.c2_omega)}",
        "",
        "[basis]",
    ]
    for nm, d in model.basis:
        lines.append(f"{nm} = {format_rational(d)}")
    lines += ["", "[m_table]"]
    for gamma in sorted(model.m_table, key=lambda g: g.coeffs):
        lines.append(f"{gamma} = {format_rational(model.m_table[gamma])}")
    for section, table in (("n_table", model.n_table), ("p_seed", model.p_seed)):
        lines += ["", f"[{section}]"]
        for n, gamma in sorted(table, key=lambda e: (e[1].coeffs, e[0])):
            lines.append(
                f"{n} {gamma} = {format_rational(table[(n, gamma)])}"
            )
    return "\n".join(lines) + "\n"


def save_model(model: NumericalThreefold, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_model(model))
