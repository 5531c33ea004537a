"""Seeded comparator cases for phase_fuzz, as plain data.

The draw follows the comparator fuzz of the test suite (rank 1 or 2, small
degrees, a sheaf- or point-type F against a pair-type E, a quarter of the
sheaf cases exactly on the threshold k = -mu0(F)/2), but it lives here so the
benchmark does not depend on the tests.  Cases are JSON-ready: classes are
(r, c, gamma, n) lists of ints and k is a "p/q" string.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import List


def _case(rng: random.Random) -> dict:
    rank = rng.choice((1, 2))
    degrees = [rng.randint(1, 5) for _ in range(rank)]
    omega_cubed = rng.randint(1, 12)
    c2_omega = rng.randint(-6, 6)
    if rng.random() < 0.15:
        f = [0, 0, [0] * rank, rng.randint(1, 20)]
    else:
        while True:
            gamma = [rng.randint(0, 3) for _ in range(rank)]
            if any(gamma):
                break
        f = [0, 0, gamma, rng.randint(-20, 20)]
    e = [-1, 0, [rng.randint(0, 3) for _ in range(rank)], rng.randint(-20, 20)]
    if any(f[2]) and rng.random() < 0.25:
        k = -Fraction(f[3], sum(g * d for g, d in zip(f[2], degrees))) / 2
    else:
        k = Fraction(rng.randint(-24, 24), rng.randint(1, 12))
    return {
        "degrees": degrees,
        "omega_cubed": omega_cubed,
        "c2_omega": c2_omega,
        "f": f,
        "e": e,
        "k": f"{k.numerator}/{k.denominator}",
    }


def comparator_cases(seed: int, count: int) -> List[dict]:
    rng = random.Random(f"phase_fuzz:{seed}")
    return [_case(rng) for _ in range(count)]
