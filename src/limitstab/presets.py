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

``_conifold`` applies the three shared rules (m = 1 per basis curve,
N(n, beta') = N(-n, beta') and P(-n, beta') = 0) once for all three presets.

m(beta) for non-reduced classes (e.g. m(2[C])) is undefined model data:
supplying it is the model author's responsibility, and the presets omit it
because no bundled computation consumes it.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Tuple

from .errors import TableArgumentError
from .geometry import CurveClass, NumericalThreefold


def _conifold(name, basis, counts, seeds) -> NumericalThreefold:
    """The model on ``basis`` (positive degrees) with the three shared rules applied once.

    ``counts`` and ``seeds`` map (n, coefficients) to N(n, beta') and
    P(n, beta') for n > 0.  m = 1 on each basis curve, each count is stored
    at n and at -n, and each seed P(n, beta') comes with P(-n, beta') = 0.
    """
    if any(d <= 0 for _, d in basis):
        raise TableArgumentError("degree must be positive")
    rank = len(basis)
    return NumericalThreefold(
        basis=basis,
        omega_cubed=Fraction(6),
        c2_omega=Fraction(0),
        m_table={CurveClass(int(i == j) for j in range(rank)): Fraction(1) for i in range(rank)},
        n_table={(s * n, CurveClass(c)): Fraction(v)
                 for (n, c), v in counts.items() for s in (1, -1)},
        p_seed={(s * n, CurveClass(c)): Fraction(v if s > 0 else 0)
                for (n, c), v in seeds.items() for s in (1, -1)},
        name=name,
    )


def conifold_single(d=1) -> NumericalThreefold:
    """One rigid rational curve C of degree d; beta = [C] is irreducible."""
    d = Fraction(d)
    return _conifold(
        f"conifold_single(d={d})",
        (("C", d),),
        {(n, (1,)): 1 for n in range(1, 5)},
        {(n, (1,)): (-1) ** (n - 1) * n for n in range(1, 5)},
    )


def conifold_pair(d1=3, d2=2) -> NumericalThreefold:
    """Two rigid rational curves C1, C2 meeting in a point; beta = [C1] + [C2].

    Requires d1 > d2 > 0 so the two one-curve walls are separated.
    """
    d1, d2 = Fraction(d1), Fraction(d2)
    if not d1 > d2 > 0:
        raise TableArgumentError("conifold_pair requires d1 > d2 > 0")
    return _conifold(
        f"conifold_pair(d1={d1},d2={d2})",
        (("C1", d1), ("C2", d2)),
        {(1, (1, 0)): 1, (1, (0, 1)): 1, (1, (1, 1)): 1, (2, (1, 1)): 1},
        {(1, (1, 0)): 1, (1, (0, 1)): 1, (1, (1, 1)): 1, (2, (1, 1)): -1},
    )


def conifold_double(d=1) -> NumericalThreefold:
    """One rigid rational curve C of degree d; beta = 2[C] is a doubled class."""
    d = Fraction(d)
    return _conifold(
        f"conifold_double(d={d})",
        (("C", d),),
        {(1, (1,)): 1, (2, (1,)): 1, (3, (1,)): 1, (4, (2,)): Fraction(-1, 4)},
        {(1, (1,)): 1, (2, (1,)): -2, (3, (1,)): 3, (3, (2,)): -2, (4, (2,)): 4},
    )


_PRESETS = {make.__name__: make for make in (conifold_single, conifold_pair, conifold_double)}
PRESET_NAMES = tuple(_PRESETS)


def build_preset(name: str, args: Tuple[Fraction, ...]) -> NumericalThreefold:
    """Instantiate a preset from its name and positional degree arguments."""
    make = _PRESETS.get(name)
    if make is None:
        raise TableArgumentError(f"unknown preset {name!r}; choose from {', '.join(PRESET_NAMES)}")
    params = ", ".join(make.__code__.co_varnames[: make.__code__.co_argcount])
    if len(args) > make.__code__.co_argcount:
        raise TableArgumentError(f"too many arguments for {name}({params}): got {len(args)}")
    return make(*args)
