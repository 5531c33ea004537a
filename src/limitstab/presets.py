"""The three bundled conifold-type geometries.

Each preset packages exactly the table entries its published chamber values
need; anything else is deliberately absent and queries for it fail loudly
(the engine never invents geometry).  Provenance, entry by entry:

* every preset curve is a rigid rational curve with normal bundle
  O(-1) + O(-1), so the minimal third Chern character of its structure
  sheaf is chi(O_P1) = 1: m([C]) = 1 per basis curve;
* the sheaf counts N(n, beta') on simple curves equal 1; the values with
  |n| <= 4 on [C] classes are forced by the published tables through the
  jump law, and N(n, beta') = N(-n, beta') because the dualizing involution
  identifies the two moduli problems;
* ``n_table`` holds each wall's linearized coefficient: [q^n Q^beta'] of
  exp(A_w) - 1 over (-1)^(n-1) n, A_w summing (-1)^(n-1) n N(n, beta') q^n
  Q^beta' over the counts on the wall w.  So the one non-integral entry,
  N(+-4, 2[C]) = -1/4, linearizes the doubled curve's stack-weighted count
  N(4, 2[C]) = 1/4 with N(2, [C]) = 1: -1 + (-2)^2/2 = (-1)^3 * 4 * (-1/4);
* pair seeds: P(n, [C]) = (-1)^(n-1) * n on a single rigid curve and
  P(-n, .) = 0 (no dual pairs below the first wall); the doubled-curve seeds
  P(3, 2[C]) = -2 and P(4, 2[C]) = 4 are published values.

m(beta) for non-reduced classes (e.g. m(2[C])) is undefined model data:
supplying it is the model author's responsibility, and the presets omit it
because no bundled computation consumes it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Tuple

from .geometry import CurveClass, NumericalThreefold


def _seed_single_curve(index: int, rank: int, n_range) -> Dict:
    """P(n, C_index) = (-1)^(n-1) n and P(-n, C_index) = 0 for n in n_range."""
    coeffs = tuple(1 if i == index else 0 for i in range(rank))
    c = CurveClass(coeffs)
    seeds = {}
    for n in n_range:
        seeds[(n, c)] = Fraction((-1) ** (n - 1) * n)
        seeds[(-n, c)] = Fraction(0)
    return seeds


def conifold_single(d=1) -> NumericalThreefold:
    """One rigid rational curve C of degree d; beta = [C] is irreducible."""
    d = Fraction(d)
    if d <= 0:
        raise ValueError("degree must be positive")
    c = CurveClass((1,))
    n_table = {}
    for n in range(1, 5):
        n_table[(n, c)] = Fraction(1)
        n_table[(-n, c)] = Fraction(1)
    return NumericalThreefold(
        basis=(("C", d),),
        omega_cubed=Fraction(6),
        c2_omega=Fraction(0),
        m_table={c: Fraction(1)},
        n_table=n_table,
        p_seed=_seed_single_curve(0, 1, range(1, 5)),
        name=f"conifold_single(d={d})",
    )


def conifold_pair(d1=3, d2=2) -> NumericalThreefold:
    """Two rigid rational curves C1, C2 meeting in a point; beta = [C1] + [C2].

    Requires d1 > d2 > 0 so the two one-curve walls are separated.
    """
    d1, d2 = Fraction(d1), Fraction(d2)
    if not d1 > d2 > 0:
        raise ValueError("conifold_pair requires d1 > d2 > 0")
    c1 = CurveClass((1, 0))
    c2 = CurveClass((0, 1))
    beta = CurveClass((1, 1))
    n_table = {}
    for cls in (c1, c2):
        n_table[(1, cls)] = Fraction(1)
        n_table[(-1, cls)] = Fraction(1)
    for n in (1, 2):
        n_table[(n, beta)] = Fraction(1)
        n_table[(-n, beta)] = Fraction(1)
    p_seed = {}
    p_seed.update(_seed_single_curve(0, 2, range(1, 2)))
    p_seed.update(_seed_single_curve(1, 2, range(1, 2)))
    p_seed[(1, beta)] = Fraction(1)
    p_seed[(-1, beta)] = Fraction(0)
    p_seed[(2, beta)] = Fraction(-1)
    p_seed[(-2, beta)] = Fraction(0)
    return NumericalThreefold(
        basis=(("C1", d1), ("C2", d2)),
        omega_cubed=Fraction(6),
        c2_omega=Fraction(0),
        m_table={c1: Fraction(1), c2: Fraction(1)},
        n_table=n_table,
        p_seed=p_seed,
        name=f"conifold_pair(d1={d1},d2={d2})",
    )


def conifold_double(d=1) -> NumericalThreefold:
    """One rigid rational curve C of degree d; beta = 2[C] is a doubled class."""
    d = Fraction(d)
    if d <= 0:
        raise ValueError("degree must be positive")
    c = CurveClass((1,))
    cc = CurveClass((2,))
    n_table = {}
    for n in (1, 2, 3):
        n_table[(n, c)] = Fraction(1)
        n_table[(-n, c)] = Fraction(1)
    n_table[(4, cc)] = Fraction(-1, 4)
    n_table[(-4, cc)] = Fraction(-1, 4)
    p_seed = _seed_single_curve(0, 1, range(1, 4))
    p_seed[(3, cc)] = Fraction(-2)
    p_seed[(-3, cc)] = Fraction(0)
    p_seed[(4, cc)] = Fraction(4)
    p_seed[(-4, cc)] = Fraction(0)
    return NumericalThreefold(
        basis=(("C", d),),
        omega_cubed=Fraction(6),
        c2_omega=Fraction(0),
        m_table={c: Fraction(1)},
        n_table=n_table,
        p_seed=p_seed,
        name=f"conifold_double(d={d})",
    )


_PRESETS = {make.__name__: make for make in (conifold_single, conifold_pair, conifold_double)}
PRESET_NAMES = tuple(_PRESETS)


def build_preset(name: str, args: Tuple[Fraction, ...]) -> NumericalThreefold:
    """Instantiate a preset from its name and positional degree arguments."""
    make = _PRESETS.get(name)
    if make is None:
        raise ValueError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    params = make.__code__.co_varnames[: make.__code__.co_argcount]
    if len(args) > len(params):
        raise ValueError(f"too many arguments for {name}({', '.join(params)}): got {len(args)}")
    return make(*args)
