"""The checks of ``limitstab verify``: one cache per preset, an exact mirror
check, and extra checks that fail instead of raising."""

import io
from fractions import Fraction

from limitstab import crossing, verify
from limitstab.cli import main
from limitstab.crossing import chamber_table, chamber_values
from limitstab.geometry import CurveClass
from limitstab.presets import conifold_double

MIRROR = "tables mirror under (n,k) -> (-n,-k)"


def test_contributions_at_minus_one_fail_on_a_table_without_that_wall():
    model = conifold_double(1)
    table = chamber_table(model, CurveClass((2,)), 4, -2, -1)
    assert [r.k0 for r in table.reports] == [Fraction(-7, 4), Fraction(-3, 2), Fraction(-5, 4)]
    assert verify._contributions_at_minus_one(model, table) is False
    whole = chamber_table(model, CurveClass((2,)), 4, -2, 0)
    assert verify._contributions_at_minus_one(model, whole) is True


def test_verification_builds_one_cache_per_preset(monkeypatch):
    built = []

    class Counted(crossing.TableCache):
        def __init__(self):
            super().__init__()
            built.append(self)

    # crossing's own name too, so a public call that makes a fresh cache counts
    monkeypatch.setattr(verify, "TableCache", Counted)
    monkeypatch.setattr(crossing, "TableCache", Counted)
    results = verify.run_verification()
    assert all(r.ok for r in results) and len(results) == 15
    assert len(built) == len(verify.reference_tables()) == 3


def test_a_broken_mirror_fails_only_the_mirror_check(monkeypatch):
    changed = []

    def values(model, beta, n, lo, hi, cache=None):
        out = chamber_values(model, beta, n, lo, hi, cache)
        if (beta, n) == (CurveClass((2,)), -4):
            # one chamber value of the (2), n = -4 mirror table is off by one
            (chamber, value), *rest = out
            out = ((chamber, value + 1), *rest)
            changed.append(model.name)
        return out

    monkeypatch.setattr(verify, "chamber_values", values)
    out = io.StringIO()
    assert main(["verify"], out=out) == 1
    lines = out.getvalue().splitlines()
    assert changed == ["conifold_double(d=1)"]
    assert [line for line in lines if not line.startswith("ok\t")] == [
        f"FAIL\tconifold_double(d=1): {MIRROR}\t",
        "FAILED\t14/15",
    ]
    # the mirror lines still close the report, one per preset in preset order
    assert lines[-4:-1] == [
        f"{status}\t{name}: {MIRROR}" + "\t" * (status == "FAIL")
        for status, name in (
            ("ok", "conifold_single(d=1)"),
            ("ok", "conifold_pair(d1=3,d2=2)"),
            ("FAIL", "conifold_double(d=1)"),
        )
    ]


def test_every_memoised_read_above_its_dual_bound_equals_the_dual_seed():
    """The dual-side seed law on sub-tables, checked here and not by ``verify``.

    L(beta, n) equals the dual seed P(-n, beta) above k_dual = mu(beta, -n)/2.
    The reference tables and their (beta, -n) mirrors, built on one cache per
    preset, read sub-tables at points past their own k_dual; a point at
    k_dual read from the right counts as past it.
    """
    checked = 0
    for model, beta, _, rows in verify.reference_tables():
        cache = crossing.TableCache()
        for n, lo, hi, *_ in rows:
            chamber_table(model, beta, n, lo, hi, cache)
            chamber_table(model, beta, -n, -hi, -lo, cache)
        for (b, n, num, den, from_right), value in list(cache.values.items()):
            k, k_dual = Fraction(num, den), crossing._mu(b, -n, cache) / 2
            if k > k_dual or (k == k_dual and from_right):
                assert value == model.p_seed[(-n, b)], (model.name, b, n, k)
                checked += 1
    # 2 reads on conifold_pair and 5 on conifold_double
    assert checked >= 7
