"""Exact wall-and-chamber engine for limit-stability curve counting.

The package models a Calabi-Yau 3-fold by a handful of exact rational
intersection numbers, compares central-charge phases asymptotically, and
marches stable-pair seeds across walls to reproduce chamber tables of the
counting invariants bit-exactly.
"""

from .charge import (
    ChargePolynomial,
    ChernCharacter,
    POINT_SLOPE,
    PointSlope,
    TwistedInvariants,
    ch_of_pair,
    ch_of_points,
    ch_of_sheaf,
    charge_polynomial,
    dual,
    slope,
    twisted_invariants,
)
from .comparator import (
    PhaseOrder,
    compare_phases,
    compare_phases_closed,
    destabilizing_threshold,
    phase_limit,
)
from .crossing import (
    ChamberTable,
    TableCache,
    WallDatum,
    chamber_table,
    cross_wall,
    enumerate_wall_data,
    hn_sort,
    invariant_value,
    l_at_wall,
    pt_symmetry_check,
)
from .errors import LimitStabError, ModelDataError, ModelParseError
from .geometry import (
    CurveClass,
    NumericalThreefold,
    decompositions,
    degree,
    effective_below,
    min_ch3,
)
from .modelio import load_model, parse_model, save_model, serialize_model
from .presets import conifold_double, conifold_pair, conifold_single
from .walls import Chamber, WallSet, chambers, mu_threshold, pt_bounds, wall_set

__version__ = "0.1.0"

__all__ = [
    "ChargePolynomial",
    "ChernCharacter",
    "POINT_SLOPE",
    "PointSlope",
    "TwistedInvariants",
    "ch_of_pair",
    "ch_of_points",
    "ch_of_sheaf",
    "charge_polynomial",
    "dual",
    "slope",
    "twisted_invariants",
    "PhaseOrder",
    "compare_phases",
    "compare_phases_closed",
    "destabilizing_threshold",
    "phase_limit",
    "ChamberTable",
    "TableCache",
    "WallDatum",
    "chamber_table",
    "cross_wall",
    "enumerate_wall_data",
    "hn_sort",
    "invariant_value",
    "l_at_wall",
    "pt_symmetry_check",
    "LimitStabError",
    "ModelDataError",
    "ModelParseError",
    "CurveClass",
    "NumericalThreefold",
    "decompositions",
    "degree",
    "effective_below",
    "min_ch3",
    "load_model",
    "parse_model",
    "save_model",
    "serialize_model",
    "conifold_double",
    "conifold_pair",
    "conifold_single",
    "Chamber",
    "WallSet",
    "chambers",
    "mu_threshold",
    "pt_bounds",
    "wall_set",
]
