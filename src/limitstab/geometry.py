"""Numerical model of a Calabi-Yau 3-fold for limit-stability computations.

The geometry is reduced to exactly the numbers the engine consumes: a basis
of curve classes with positive rational degrees ("degree" = pairing with the
fixed ample class), the triple self-intersection of that ample class, the
second-Chern pairing, and three model tables:

* ``m_table`` -- for a nonzero class gamma, the minimal third Chern character
  of a structure sheaf of a one-dimensional subscheme in class gamma;
* ``n_table`` -- the (conjectural) virtual counts of one-dimensional
  semistable sheaves, consumed at walls;
* ``p_seed`` -- stable-pair counts, seeding the crossing recursion far below
  every wall.

The effectivity cone is simplicial over the basis: a class is effective iff
all its coordinates are >= 0.  That is a deliberate toy restriction; it keeps
every enumeration finite and exact.

All arithmetic is exact rational.  No floating point enters the core.
"""

from __future__ import annotations

import itertools
import math
from bisect import bisect_right
from fractions import Fraction
from typing import Iterable, List, Mapping, NamedTuple, Tuple

from .errors import ModelDataError, TableArgumentError


def _as_fraction(x) -> Fraction:
    """``x`` as a Fraction, converted only when it is not one already (Fraction() copies slowly)."""
    return x if type(x) is Fraction else Fraction(x)


class _CurveClassFields(NamedTuple):
    coeffs: Tuple[int, ...]


class CurveClass(_CurveClassFields):
    """An integral class in the curve lattice, one coordinate per basis class.

    Ordered, hashed and compared as the tuple of its coefficients.
    """

    __slots__ = ()

    def __new__(cls, coeffs: Iterable[int]) -> "CurveClass":
        return super().__new__(cls, tuple(int(c) for c in coeffs))

    @property
    def rank(self) -> int:
        return len(self.coeffs)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_effective(self) -> bool:
        return all(c >= 0 for c in self.coeffs)

    def __add__(self, other: "CurveClass") -> "CurveClass":
        if self.rank != other.rank:
            raise TableArgumentError("rank mismatch between curve classes")
        return CurveClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "CurveClass") -> "CurveClass":
        if self.rank != other.rank:
            raise TableArgumentError("rank mismatch between curve classes")
        return CurveClass(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.coeffs) + ")"


def _int_class(coeffs: Tuple[int, ...]) -> CurveClass:
    """A CurveClass from a tuple of ints, without ``__new__``'s per-coordinate ``int()``."""
    return tuple.__new__(CurveClass, (coeffs,))


def zero_class(rank: int) -> CurveClass:
    return CurveClass((0,) * rank)


class _ModelFields(NamedTuple):
    basis: Tuple[Tuple[str, Fraction], ...]
    omega_cubed: Fraction
    c2_omega: Fraction
    m_table: Mapping[CurveClass, Fraction]
    n_table: Mapping[Tuple[int, CurveClass], Fraction]
    p_seed: Mapping[Tuple[int, CurveClass], Fraction]
    name: str


class NumericalThreefold(_ModelFields):
    """Immutable numerical model; all operations on it are pure functions.

    ``n_table`` keys are (n, CurveClass); ``p_seed`` keys likewise;
    ``m_table`` keys are nonzero effective classes.  m(0) = 0 is a hard-wired
    convention (empty subscheme) and is never stored.  A table left out is a
    new empty dict.
    """

    __slots__ = ()

    def __new__(cls, basis, omega_cubed, c2_omega=Fraction(0), m_table=None,
                n_table=None, p_seed=None, name="custom") -> "NumericalThreefold":
        if not basis:
            raise ValueError("model needs at least one basis curve class")
        basis = tuple((nm, _as_fraction(d)) for nm, d in basis)
        omega_cubed, c2_omega, rank = _as_fraction(omega_cubed), _as_fraction(c2_omega), len(basis)
        m_table = {} if m_table is None else m_table
        n_table = {} if n_table is None else n_table
        p_seed = {} if p_seed is None else p_seed
        # a Fraction's sign is its numerator's
        for nm, d in basis:
            if d.numerator <= 0:
                raise ValueError(f"basis degree for {nm!r} must be > 0, got {d}")
        if omega_cubed.numerator <= 0:
            raise ValueError("omega_cubed must be > 0")
        for gamma in m_table:
            if not any(gamma.coeffs):
                raise ValueError("m(0) = 0 is a convention, never stored")
            if len(gamma.coeffs) != rank:
                raise ValueError(f"m_table class {gamma} has wrong rank")
        for table, label in ((n_table, "n_table"), (p_seed, "p_seed")):
            for n, gamma in table:
                if len(gamma.coeffs) != rank:
                    raise ValueError(f"{label} class {gamma} has wrong rank")
        for label, table in (("m_table", m_table), ("n_table", n_table), ("p_seed", p_seed)):
            if table and not set(map(type, table.values())) <= {int, Fraction}:
                key = next(k for k, v in table.items() if type(v) not in (int, Fraction))
                at = f"class {key}" if table is m_table else f"(n={key[0]}, beta={key[1]})"
                raise ValueError(f"{label} value {table[key]!r} for {at} is not an int or Fraction")
        return super().__new__(cls, basis, omega_cubed, c2_omega, m_table, n_table, p_seed, name)

    @property
    def rank(self) -> int:
        return len(self.basis)

    @property
    def degrees(self) -> Tuple[Fraction, ...]:
        return tuple(d for _, d in self.basis)

    def check_rank(self, gamma: CurveClass) -> None:
        if gamma.rank != self.rank:
            raise TableArgumentError(
                f"class {gamma} has rank {gamma.rank}, model has rank {self.rank}"
            )

    def degree_vector(self, coeffs: Iterable[Fraction]) -> Fraction:
        """Degree of a rational curve vector (used for ch2 of sheaf classes), a Fraction; a
        coordinate that is not a Fraction is converted, a Fraction is multiplied as given."""
        coeffs = tuple(coeffs)
        if len(coeffs) != self.rank:
            raise TableArgumentError("rank mismatch in degree pairing")
        return sum((_as_fraction(c) * d for c, d in zip(coeffs, self.degrees)), Fraction(0))


def degree(model: NumericalThreefold, gamma: CurveClass) -> Fraction:
    """Pairing of a curve class with the ample class; linear in gamma."""
    model.check_rank(gamma)
    return model.degree_vector(Fraction(c) for c in gamma.coeffs)


def check_effective(model: NumericalThreefold, beta: CurveClass) -> None:
    """Raise TableArgumentError unless beta has the model's rank and is effective."""
    model.check_rank(beta)
    if not beta.is_effective():
        raise TableArgumentError(f"{beta} is not effective")


def effective_below(model: NumericalThreefold, beta: CurveClass) -> List[CurveClass]:
    """All effective classes of degree <= deg(beta), the zero class included.

    Bounded lattice walk over the simplicial cone; finite because every basis
    degree is positive.  Each lattice point's degree is computed once and
    serves both the bound test and the sort.  Returned sorted by (degree,
    coordinates).
    """
    check_effective(model, beta)
    bound = degree(model, beta)
    ranges = [range(int(bound / d) + 1) for d in model.degrees]
    found = []
    for coeffs in itertools.product(*ranges):
        gamma = CurveClass(coeffs)
        d = degree(model, gamma)
        if d <= bound:
            found.append((d, gamma))  # a class orders as its coordinates
    found.sort()
    return [gamma for _, gamma in found]


def min_ch3(model: NumericalThreefold, beta: CurveClass) -> Fraction:
    """m(beta): minimum of the m-table over nonzero classes of degree <= deg(beta).

    m(0) = 0 by the empty-subscheme convention.  A missing table entry for a
    needed nonzero class is a hard error, never a silent default.
    """
    check_effective(model, beta)
    if beta.is_zero():
        return Fraction(0)
    values = []
    for gamma in effective_below(model, beta):
        if gamma.is_zero():
            continue
        try:
            values.append(model.m_table[gamma])
        except KeyError:
            raise ModelDataError(
                f"m_table has no entry for class {gamma} (needed for m({beta}))"
            ) from None
    return min(values)


def _scaled_degrees(model: NumericalThreefold) -> Tuple[int, Tuple[int, ...]]:
    """(D, D * degrees), D the lcm of the basis-degree denominators: D * deg is an int."""
    scale = math.lcm(*(d.denominator for _, d in model.basis))
    return scale, tuple(d.numerator * (scale // d.denominator) for _, d in model.basis)


class _ConeIndex:
    """``min_ch3`` of one model by one bisect, with no cone walk per class.

    ``degrees`` lists D * deg of the nonzero effective classes in the order of
    ``effective_below``, grown lazily to ``top``, the largest degree asked for.
    ``mins`` is the running minimum of their m entries up to ``missing``, the
    first class with none, so a bound raises only if its prefix reaches it.
    """

    def __init__(self, model: NumericalThreefold):
        self.model, (self.scale, self.scaled), self.top = model, _scaled_degrees(model), 0
        self.degrees, self.mins, self.missing = [], [], None

    def m(self, beta: CurveClass) -> Fraction:
        e = sum(c * s for c, s in zip(beta.coeffs, self.scaled))
        if e > self.top:
            self._grow(e)
        end = bisect_right(self.degrees, e)
        if end > len(self.mins):
            missing = f"m_table has no entry for class {self.missing}"
            raise ModelDataError(f"{missing} (needed for m({beta}))")
        return self.mins[end - 1] if end else Fraction(0)

    def _grow(self, top: int) -> None:
        walk = [(0, ())]
        for s in self.scaled:
            walk = [(e + c * s, g + (c,)) for e, g in walk for c in range((top - e) // s + 1)]
        for e, gamma in sorted((e, _int_class(g)) for e, g in walk if e > self.top):
            self.degrees.append(e)
            if self.missing is None and gamma not in self.model.m_table:
                self.missing = gamma
            elif self.missing is None:
                self.mins.append(min([*self.mins[-1:], self.model.m_table[gamma]]))
        self.top = top


def _split_rows(scaled: Tuple[int, ...], coeffs: Tuple[int, ...]):
    """(D * deg beta1, beta1, beta2) for every split beta1 + beta2 of the class with ``coeffs``,
    beta1 != 0, in split order; ``scaled`` is D * degrees, an int degree added per coordinate."""
    walk = [(0, (), ())]
    for c, s in zip(coeffs, scaled):
        walk = [(e + i * s, g + (i,), h + (c - i,)) for e, g, h in walk for i in range(c + 1)]
    # an int degree orders as the Fraction degree, a class as its coordinates; beta1 = 0 is first
    return tuple((e, _int_class(g), _int_class(h)) for e, g, h in sorted(walk)[1:])
