"""Every bad argument to the public API raises TableArgumentError with its text.

One row per call: the call, and the whole message it must raise.  A bare
ValueError fails a row, so does any other text.  A twist k that Fraction()
cannot coerce is the one exception: it raises Fraction's own error type on
both comparator routes and in ``slope``, for a point-type class too, and in
``hn_sort`` once every part is sheaf-type (an empty list included).
"""

import re
from fractions import Fraction as F

import pytest

from limitstab.charge import ChernCharacter, ch_of_pair, ch_of_points, ch_of_sheaf, slope
from limitstab.comparator import (
    compare_phases,
    compare_phases_closed,
    cross_leading_term,
    destabilizing_threshold,
    phase_limit,
)
from limitstab.crossing import TableCache, chamber_table, hn_sort, pt_symmetry_check
from limitstab.errors import TableArgumentError
from limitstab.geometry import CurveClass
from limitstab.presets import build_preset, conifold_double, conifold_pair, conifold_single
from limitstab.walls import wall_set

X = conifold_single(1)
PAIR = ch_of_pair(CurveClass((1,)), 1)
SHEAF = ch_of_sheaf(CurveClass((1,)), 1)
POINT = ch_of_points(1, 1)
ZERO = ChernCharacter(0, 0, (0,), 0)
OUT_OF_SCOPE = ChernCharacter(2, 0, (0,), 0)  # a two-dimensional shift
WRONG_RANK = ch_of_sheaf(CurveClass((1, 1)), 2)

_BAD_CLASSES = (
    ("zero", ZERO, "class 0,0,(0),0 is zero or out of scope"),
    ("out_of_scope", OUT_OF_SCOPE, "class 2,0,(0),0 is zero or out of scope"),
    ("wrong_rank", WRONG_RANK, "class 0,0,(1,1),2 has rank 2, model has rank 1"),
)

_COMPARATOR_CALLS = (
    ("compare_phases_F", lambda ch: compare_phases(X, ch, PAIR, 0), "F"),
    ("compare_phases_E", lambda ch: compare_phases(X, PAIR, ch, 0), "E"),
    ("compare_phases_closed_F", lambda ch: compare_phases_closed(X, ch, PAIR, 0), "F"),
    ("compare_phases_closed_E", lambda ch: compare_phases_closed(X, SHEAF, ch, 0), "E"),
    ("cross_leading_term_F", lambda ch: cross_leading_term(X, ch, PAIR, 0), "F"),
    ("cross_leading_term_E", lambda ch: cross_leading_term(X, PAIR, ch, 0), "E"),
    ("phase_limit", lambda ch: phase_limit(X, ch), "the"),
    ("destabilizing_threshold", lambda ch: destabilizing_threshold(X, ch), "F"),
)


_BAD_TWISTS = (
    ("not_a_number", "abc", ValueError),
    ("nan", float("nan"), ValueError),
    ("inf", float("inf"), OverflowError),
    ("minus_inf", float("-inf"), OverflowError),
)


def _bind_twice():
    cache = TableCache()
    chamber_table(X, CurveClass((1,)), 1, -1, 0, cache)
    chamber_table(conifold_single(1), CurveClass((1,)), 1, -1, 0, cache)


CASES = [
    pytest.param(lambda ch=ch, call=call: call(ch), f"{label} {text}", id=f"{name}-{kind}")
    for name, call, label in _COMPARATOR_CALLS
    for kind, ch, text in _BAD_CLASSES
] + [
    pytest.param(call, text, id=name)
    for name, call, text in (
        ("closed_F_pair", lambda: compare_phases_closed(X, PAIR, PAIR, 0),
         "closed comparison needs a sheaf- or point-type F"),
        ("closed_E_sheaf", lambda: compare_phases_closed(X, SHEAF, SHEAF, 0),
         "closed comparison needs a pair-type E"),
        ("threshold_point", lambda: destabilizing_threshold(X, POINT),
         "threshold is defined for sheaf-type classes only"),
        ("slope-zero", lambda: slope(X, ZERO, 0),
         "class with gamma = 0, n <= 0 is not a nonzero sheaf class"),
        ("slope-out_of_scope", lambda: slope(X, OUT_OF_SCOPE, 0),
         "slope is defined only for r = c = 0 classes"),
        ("slope-wrong_rank", lambda: slope(X, WRONG_RANK, 0), "rank mismatch in degree pairing"),
        ("slope-nonpositive_degree",
         lambda: slope(conifold_pair(3, 2), ch_of_sheaf(CurveClass((1, -2)), 0), 0),
         "sheaf class must have positive degree"),
        ("preset-unknown_name", lambda: build_preset("conifold_triple", ()),
         "unknown preset 'conifold_triple'; "
         "choose from conifold_single, conifold_pair, conifold_double"),
        ("preset-too_many_arguments", lambda: build_preset("conifold_single", (F(1), F(2))),
         "too many arguments for conifold_single(d): got 2"),
        ("preset-zero_degree", lambda: build_preset("conifold_single", (F(0),)),
         "degree must be positive"),
        ("preset-zero_degree_double", lambda: conifold_double(0), "degree must be positive"),
        ("preset-unordered_degrees", lambda: conifold_pair(2, 3),
         "conifold_pair requires d1 > d2 > 0"),
        ("curve_class_sum", lambda: CurveClass((1,)) + CurveClass((1, 0)),
         "rank mismatch between curve classes"),
        ("curve_class_difference", lambda: CurveClass((1,)) - CurveClass((1, 0)),
         "rank mismatch between curve classes"),
        ("chern_character_sum", lambda: SHEAF + WRONG_RANK,
         "rank mismatch between Chern characters"),
        ("cache_of_another_model", _bind_twice, "a TableCache cannot be shared between models"),
        ("series-no_rows", lambda: pt_symmetry_check(X, CurveClass((1,)), 0),
         "n_max must be at least 1, got 0"),
        ("series-negative_n_max", lambda: pt_symmetry_check(X, CurveClass((1,)), -1),
         "n_max must be at least 1, got -1"),
        # of two bad arguments, the one the CLI reports first
        ("table-empty_interval_before_class", lambda: chamber_table(X, CurveClass((-1,)), 1, 0, -1),
         "empty interval [0, -1]"),
        ("table-class_before_seed_bound", lambda: chamber_table(X, CurveClass((-1,)), 1, -1, 0),
         "(-1) is not effective"),
        ("series-class_before_n_max", lambda: pt_symmetry_check(X, CurveClass((-1,)), 0),
         "(-1) is not effective"),
        ("compare_phases-class_before_twist", lambda: compare_phases(X, ZERO, PAIR, "abc"),
         "F class 0,0,(0),0 is zero or out of scope"),
        ("closed-shape_before_twist", lambda: compare_phases_closed(X, PAIR, PAIR, "abc"),
         "closed comparison needs a sheaf- or point-type F"),
        ("slope-class_before_twist", lambda: slope(X, ZERO, float("nan")),
         "class with gamma = 0, n <= 0 is not a nonzero sheaf class"),
        ("walls-rank_before_zero_class", lambda: wall_set(X, CurveClass((0, 0)), -1, 0),
         "class (0,0) has rank 2, model has rank 1"),
    )
] + [
    pytest.param(lambda k=k: hn_sort(X, [SHEAF, PAIR], k),
                 "hn_sort takes sheaf-type classes only, got -1,0,(1),1",
                 id=f"hn_sort-class_before_twist-{k_name}")
    for k_name, k, _ in _BAD_TWISTS
]


@pytest.mark.parametrize("call, message", CASES)
def test_a_bad_argument_raises_table_argument_error(call, message):
    with pytest.raises(TableArgumentError, match=f"^{re.escape(message)}$"):
        call()


@pytest.mark.parametrize(
    "call, k, error",
    [
        pytest.param(call, k, error, id=f"{name}-{kind}-{k_name}")
        for kind, ch_f in (("point", POINT), ("sheaf", SHEAF))
        for name, call in (
            ("compare_phases", lambda k, ch_f=ch_f: compare_phases(X, ch_f, PAIR, k)),
            ("compare_phases_closed", lambda k, ch_f=ch_f: compare_phases_closed(X, ch_f, PAIR, k)),
            ("slope", lambda k, ch_f=ch_f: slope(X, ch_f, k)),
        )
        for k_name, k, error in _BAD_TWISTS
    ]
    + [
        pytest.param(lambda k, parts=parts: hn_sort(X, parts, k), k, error,
                     id=f"hn_sort-{kind}-{k_name}")
        for kind, parts in (("sheaf", [SHEAF]), ("empty", []))
        for k_name, k, error in _BAD_TWISTS
    ],
)
def test_a_bad_twist_raises_fractions_error(call, k, error):
    with pytest.raises(Exception) as raised:
        call(k)
    assert type(raised.value) is error
