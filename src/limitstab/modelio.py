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

Every integer is an optional ``-`` and ASCII digits, spaces around it
allowed (``_INT``).  Classes are integer coefficient tuples ``(a,b,...)``
over the basis order; rationals are ``p/q`` strings (or bare integers) and
render in lowest terms.  ``[n_table]`` and ``[p_seed]`` lines carry the
integer n before the class.  Parse errors name the offending line;
validation errors name the violated invariant.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Dict, Optional, Tuple

from .errors import LimitStabError, ModelParseError
from .geometry import CurveClass, NumericalThreefold, _int_class

_SECTIONS = ("basis", "m_table", "n_table", "p_seed")
_SCALARS = ("omega_cubed", "c2_omega")
_INT = r"\s*(-?[0-9]+)\s*"  # every integer: an optional - and ASCII digits, spaces around it
_RATIONAL = re.compile(rf"{_INT}(?:/{_INT})?")
_SEEDED_KEY = re.compile(rf"{_INT}\s(\(.*\))")  # n, at least one space, (class)
_CLASS = re.compile(rf"\s*(\()?({_INT}(?:,{_INT})*)(?(1)\))\s*")  # (a,b,...) or a,b,...
_TOO_LONG = "integer of {} characters exceeds int()'s digit limit"


def _int(digits: str, line: int | None) -> int:
    """int() of an integer that ``_INT`` matched, without its spaces."""
    try:
        return int(digits)
    except ValueError:  # more digits than sys.get_int_max_str_digits() allows
        raise ModelParseError(_TOO_LONG.format(len(digits)), line) from None


def parse_int(text: str, line: int | None = None) -> int:
    """One ``_INT``; int() alone also reads + and _, and any Unicode digit."""
    m = re.fullmatch(_INT, text)
    if m is None:
        raise ModelParseError(f"invalid int value: {text!r}", line)
    return _int(m[1], line)


def parse_rational(text: str, line: int | None = None) -> Fraction:
    m = _RATIONAL.fullmatch(text)
    if not m:
        raise ModelParseError(f"malformed rational {text.strip()!r}", line)
    num, den = _int(m[1], line), (1 if m[2] is None else _int(m[2], line))
    if den == 0:
        raise ModelParseError(f"malformed rational {text.strip()!r} (zero denominator)", line)
    return Fraction(num, den)


def parse_rational_list(text: str) -> Tuple[Fraction, ...]:
    """The rationals of a comma list: a blank list has none, and an empty entry is malformed."""
    return tuple(map(parse_rational, text.split(","))) if text.strip() else ()


def format_rational(x: Fraction) -> str:
    try:
        return str(x)
    except ValueError:  # str() of an int has the digit limit of int() of a str
        raise LimitStabError("a result exceeds str()'s digit limit") from None


def parse_class(text: str, line: int | None = None) -> CurveClass:
    m = _CLASS.fullmatch(text)
    if m is None:
        text = text.strip()
        if text.startswith("(") and text.endswith(")"):
            text = text[1:-1]
        what = f"malformed class tuple {text!r}" if text else "empty class tuple"
        raise ModelParseError(what, line)
    coordinates = m[2].split(",")
    try:
        return _int_class(tuple(map(int, coordinates)))
    except ValueError:  # past the digit limit, or \x1c-\x1f (\s, but not int()'s spaces) at a digit
        return _int_class(tuple(parse_int(c, line) for c in coordinates))


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


def _read(text: str, tables: Dict[Optional[str], dict]) -> Optional[tuple]:
    """Write each entry line of ``text`` once into its table in ``tables``.

    Each distinct n text, class text and value text is converted once per
    call.  Stops at the first entry whose key its table already holds and
    returns (section, key, line number); returns None when there is none.
    """
    ns: Dict[str, int] = {}
    classes: Dict[str, CurveClass] = {}
    values: Dict[str, Fraction] = {}
    section, seeded, target = None, False, tables[None]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip()
            if section not in _SECTIONS:
                raise ModelParseError(f"unknown section [{section}]", lineno)
            seeded, target = section in ("n_table", "p_seed"), tables[section]
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
            if seeded:
                # _SEEDED_KEY matches a key iff the text before its first ( matches the n
                # part and the rest the class part.  ns holds n texts of matched keys only, and
                # classes class texts that parsed, which end with ) if they start with (: so
                # a key whose n text and class text are both known matches.
                split = key.find("(")
                n_text, class_text = key[:split], key[split:]
                n = ns.get(n_text)
                if split < 0 or n is None or class_text not in classes:
                    m = _SEEDED_KEY.fullmatch(key)
                    if not m:
                        what = f"expected 'n (class) = value' in [{section}], got {line!r}"
                        raise ModelParseError(what, lineno)
                    if n is None:
                        n = ns[n_text] = _int(m[1], lineno)
            gamma = classes.get(class_text)
            if gamma is None:
                gamma = classes[class_text] = parse_class(class_text, lineno)
            key = gamma if n is None else (n, gamma)
        # tested before the value is read, so a repeat is named before its value
        if key in target:
            return section, key, lineno
        number = values.get(value)
        if number is None:
            number = values[value] = parse_rational(value, lineno)
        target[key] = number
    return None


def parse_model(text: str, name: str = "custom") -> NumericalThreefold:
    """Read model-file text in one pass over its lines.

    A repeated top-level key, basis name, m class or (n, class) entry is an
    error naming both lines.  Only then is the text read again, with the
    repeated key given in advance, so that the read stops at its first line.
    """
    tables: Dict[Optional[str], dict] = {s: {} for s in (None,) + _SECTIONS}
    repeat = _read(text, tables)
    if repeat is not None:
        section, key, line = repeat
        tables = {s: {} for s in (None,) + _SECTIONS}
        tables[section][key] = None
        raise _duplicate(section, key, line, _read(text, tables)[2])
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
            lines.append(f"{n} {gamma} = {format_rational(table[(n, gamma)])}")
    return "\n".join(lines) + "\n"


def save_model(model: NumericalThreefold, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(serialize_model(model))
