import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from limitstab import modelio
from limitstab.errors import LimitStabError, ModelParseError, TableArgumentError
from limitstab.geometry import CurveClass, NumericalThreefold
from limitstab.modelio import (
    format_rational,
    load_model,
    parse_class,
    parse_int,
    parse_model,
    parse_rational,
    parse_rational_list,
    save_model,
    serialize_model,
)
from limitstab.presets import build_preset, conifold_double, conifold_pair

F = Fraction

SAMPLE = """
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
-1 (0,1) = 1

[p_seed]
1 (1,1) = 1
-1 (1,1) = 0
2 (1,1) = -1
"""


def test_parse_model_basics():
    model = parse_model(SAMPLE)
    assert model.omega_cubed == 6
    assert model.basis == (("C1", F(3)), ("C2", F(2)))
    assert model.m_table[CurveClass((1, 0))] == 1
    assert model.n_table[(1, CurveClass((0, 1)))] == 1
    assert model.p_seed[(2, CurveClass((1, 1)))] == -1


def test_round_trip_is_stable():
    model = parse_model(SAMPLE)
    text = serialize_model(model)
    again = parse_model(text)
    assert serialize_model(again) == text
    assert again.m_table == dict(model.m_table)
    assert again.n_table == dict(model.n_table)
    assert again.p_seed == dict(model.p_seed)


def test_preset_round_trip_through_a_file(tmp_path):
    model = conifold_pair(3, 2)
    path = tmp_path / "pair.model"
    save_model(model, str(path))
    loaded = load_model(str(path))
    assert loaded.basis == model.basis
    assert dict(loaded.p_seed) == dict(model.p_seed)
    assert dict(loaded.n_table) == dict(model.n_table)


def test_rational_parsing():
    assert parse_rational("-3/6") == F(-1, 2)
    assert parse_rational("7") == 7
    assert format_rational(F(4, 8)) == "1/2"
    assert format_rational(F(-5)) == "-5"
    with pytest.raises(ModelParseError, match="zero denominator"):
        parse_rational("1/0")
    with pytest.raises(ModelParseError, match="malformed rational"):
        parse_rational("0.5")


HEAD = "omega_cubed = 6\n[basis]\nC = 1\n"


# (text, line of the error, message pattern): one case per error branch
_LINE_ERRORS = [
    ("omega_cubed = 6\n[nonsense]\n", 2, "unknown section"),
    ("omega_cubed = 6\nnot a kv line\n", 2, "expected 'key = value'"),
    ("omega_cubed = 6\nscale = 2\n", 2, "unknown top-level key"),
    ("# comment\n\nomega_cubed = six\n", 3, "malformed rational"),
    (HEAD + "D = 1/0\n", 4, "zero denominator"),
    (HEAD + "[m_table]\n(1) = 1/0\n", 5, "zero denominator"),
    (HEAD + "[m_table]\n() = 1\n", 5, "empty class tuple"),
    (HEAD + "[m_table]\n(1,x) = 1\n", 5, "malformed class tuple"),
    (HEAD + "[p_seed]\n(1) = 1\n", 5, "expected 'n \\(class\\) = value'"),
    (HEAD + "[n_table]\n1 (a) = 1\n", 5, "malformed class tuple"),
    # each coordinate has a rational numerator's grammar, so int()'s extras are refused
    (HEAD + "[m_table]\n(1_0) = 1\n", 5, "malformed class tuple '1_0'"),
    (HEAD + "[p_seed]\n1 (+1) = 1\n", 5, "malformed class tuple '\\+1'"),
    (HEAD + "[n_table]\n1 (1) = x\n", 5, "malformed rational"),
    # texts converted on an earlier line do not hide a later bad line
    (HEAD + "[n_table]\n1 (1) = 1\n2 (1) = 1/0\n", 6, "zero denominator"),
    (HEAD + "[m_table]\n(1) = 1\n[p_seed]\n1 (1) = 1\n2 (1,) = 1\n", 8,
     "malformed class tuple"),
    (HEAD + "[m_table]\n(1) = 1\n(1) = 5\n", 6, "duplicate m_table class"),
    # a repeat is named before its value is read
    (HEAD + "[m_table]\n(1) = 1\n(1) = x\n", 6, "duplicate m_table class"),
    (HEAD + "[n_table]\n1 (1) = 1\n1 (1) = 1/0\n", 6, "duplicate n_table entry"),
]


def test_parse_errors_carry_line_numbers():
    for text, line, match in _LINE_ERRORS:
        with pytest.raises(ModelParseError, match=match) as info:
            parse_model(text)
        assert info.value.line == line, text
        assert str(info.value).startswith(f"line {line}: "), text


def test_a_number_past_the_digit_limit_is_a_parse_error_on_its_line():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int() digit limit")
    long = "1" * (limit + 1)
    for text, token in (
        (HEAD + f"[n_table]\n{long} (1) = 1\n", long),
        (HEAD + f"[p_seed]\n-{long} (1) = 1\n", f"-{long}"),
        (HEAD + f"[m_table]\n(1) = {long}\n", long),
        (HEAD + f"[n_table]\n1 (1) = 1/{long}\n", long),
        (f"omega_cubed = -{long}/3\n", f"-{long}"),
        # a class coordinate reports its own length, not the whole class
        (HEAD + f"[m_table]\n({long}) = 1\n", long),
        (HEAD + "D = 1\n" + f"[n_table]\n1 (1, -{long} ) = 1\n", f"-{long}"),
        (HEAD + f"[p_seed]\n2 ({long}) = 1\n", long),
    ):
        line = text.count("\n")
        message = f"line {line}: integer of {len(token)} characters exceeds int()'s digit limit"
        with pytest.raises(ModelParseError) as info:
            parse_model(text)
        assert (info.value.line, str(info.value)) == (line, message)


def test_parse_int_reads_the_class_coordinate_grammar():
    assert [parse_int(t) for t in ("0", "-12", " 7 ", "\t-3\n")] == [0, -12, 7, -3]
    for text in ("1_0", "+1", " +1", "", "-", "1.0", "1/2", "--1", "1 2", "\u0663", "\uff17"):
        with pytest.raises(ModelParseError, match="^line 4: invalid int value: "):
            parse_int(text, 4)
    # \s matches \x1c-\x1f, which int() does not strip: read, not a digit-limit error
    assert parse_int("\x1f5\x1c") == parse_class("(\x1f5)").coeffs[0] == 5
    assert parse_rational("1\x1f/\x1e2") == F(1, 2)


# one Unicode decimal digit that int() reads and the grammar refuses, per script
_NON_ASCII_DIGITS = ("\u0666", "\u096c", "\uff16")  # Arabic-Indic, Devanagari, fullwidth 6


def test_a_non_ascii_digit_is_a_parse_error_on_its_line():
    for six in _NON_ASCII_DIGITS:
        for text, match in (
            (f"omega_cubed = {six}\n", "malformed rational"),
            (f"omega_cubed = 1/{six}\n", "malformed rational"),
            (f"omega_cubed = 6\n[basis]\nC = {six}\n", "malformed rational"),
            (HEAD + f"[m_table]\n({six}) = 1\n", "malformed class tuple"),
            (HEAD + f"[n_table]\n{six} (1) = 1\n", "expected 'n \\(class\\) = value'"),
            (HEAD + f"[n_table]\n1 ({six}) = 1\n", "malformed class tuple"),
            (HEAD + f"[p_seed]\n{six} (1) = 1\n", "expected 'n \\(class\\) = value'"),
            (HEAD + f"[p_seed]\n1 (1,{six}) = 1\n", "malformed class tuple"),
        ):
            line = text.count("\n")
            with pytest.raises(ModelParseError, match=f"^line {line}: {match}"):
                parse_model(text)
        with pytest.raises(ModelParseError, match="malformed rational"):
            parse_rational(f"{six}/{six}")


def test_a_comma_list_has_no_entry_when_blank_and_no_empty_entry():
    assert parse_rational_list("") == parse_rational_list(" \t") == ()
    assert parse_rational_list(" 1, -3/6 ") == (1, F(-1, 2))
    for text in (",", "1,", ",1", "1,,1", "1, ,1"):
        with pytest.raises(ModelParseError, match="^malformed rational ''$"):
            parse_rational_list(text)


def test_a_result_past_the_digit_limit_is_one_engine_error():
    limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if not limit:
        pytest.skip("this interpreter has no int() digit limit")
    assert format_rational(F(10 ** limit - 1, 7)) == f"{10 ** limit - 1}/7"
    for x in (F(10 ** limit), F(1, 10 ** limit)):
        with pytest.raises(LimitStabError, match="^a result exceeds str\\(\\)'s digit limit$"):
            format_rational(x)


def test_whole_model_errors_carry_no_line_number():
    with pytest.raises(ModelParseError, match="missing omega_cubed") as info:
        parse_model("[basis]\nC = 1\n")
    assert info.value.line is None
    with pytest.raises(ModelParseError, match="invalid model") as info:
        parse_model("omega_cubed = 6\n")
    assert info.value.line is None


@pytest.mark.parametrize(
    "text, message",
    [
        ("omega_cubed = 6\nc2_omega = 0\nomega_cubed = 7\n",
         "line 3: duplicate top-level key 'omega_cubed' (first given on line 1)"),
        (HEAD + "C = 2\n", "line 4: duplicate basis name 'C' (first given on line 3)"),
        (HEAD + "[m_table]\n(1) = 1\n(1) = 5\n",
         "line 6: duplicate m_table class (1) (first given on line 5)"),
        ("omega_cubed = 6\n[basis]\nC = 1\nD = 1\n[m_table]\n(1,0) = 1\n( 1, 0 ) = 1\n",
         "line 7: duplicate m_table class (1,0) (first given on line 6)"),
        (HEAD + "[m_table]\n(1) = 1\n[n_table]\n1 (1) = 1\n[m_table]\n(1) = 2\n",
         "line 9: duplicate m_table class (1) (first given on line 5)"),
        (HEAD + "[n_table]\n1 (1) = 1\n-1 (1) = 1\n1 (1) = 2\n",
         "line 7: duplicate n_table entry 1 (1) (first given on line 5)"),
        (HEAD + "[p_seed]\n-2 (1) = 0\n-2  (1) = 0\n",
         "line 6: duplicate p_seed entry -2 (1) (first given on line 5)"),
    ],
)
def test_repeated_entries_are_rejected(text, message):
    with pytest.raises(ModelParseError) as info:
        parse_model(text)
    assert str(info.value) == message


def test_same_entry_in_n_table_and_p_seed_is_not_a_repeat():
    model = parse_model(HEAD + "[n_table]\n1 (1) = 1\n[p_seed]\n1 (1) = 2\n")
    assert model.n_table == {(1, CurveClass((1,))): 1}
    assert model.p_seed == {(1, CurveClass((1,))): 2}


_RATIONALS = st.builds(F, st.integers(-35, 35), st.integers(1, 7))
_POSITIVE = st.builds(F, st.integers(1, 35), st.integers(1, 7))


@st.composite
def _models(draw):
    rank = draw(st.integers(1, 3))
    names = draw(st.lists(
        st.from_regex(r"[A-Z][a-z0-9_]{0,3}", fullmatch=True),
        min_size=rank, max_size=rank, unique=True,
    ))
    classes = st.tuples(*[st.integers(-2, 3)] * rank).map(CurveClass)
    entries = st.tuples(st.integers(-6, 6), classes)
    return NumericalThreefold(
        basis=tuple((nm, draw(_POSITIVE)) for nm in names),
        omega_cubed=draw(_POSITIVE),
        c2_omega=draw(_RATIONALS),
        m_table=draw(st.dictionaries(
            classes.filter(lambda g: not g.is_zero()), _RATIONALS, max_size=6)),
        n_table=draw(st.dictionaries(entries, _RATIONALS, max_size=8)),
        p_seed=draw(st.dictionaries(entries, _RATIONALS, max_size=8)),
    )


@settings(max_examples=200, deadline=None)
@given(_models())
def test_parse_inverts_serialize(model):
    text = serialize_model(model)
    again = parse_model(text)
    assert again.basis == model.basis
    assert again.omega_cubed == model.omega_cubed
    assert again.c2_omega == model.c2_omega
    assert again.m_table == dict(model.m_table)
    assert again.n_table == dict(model.n_table)
    assert again.p_seed == dict(model.p_seed)
    assert again.name == model.name
    assert serialize_model(again) == text


def test_validation_errors_name_the_invariant():
    with pytest.raises(ModelParseError, match="must be > 0"):
        parse_model("omega_cubed = 6\n[basis]\nC = 0\n")


def test_preset_expansion_double():
    model = conifold_double(1)
    c, cc = CurveClass((1,)), CurveClass((2,))
    assert model.basis == (("C", F(1)),)
    assert model.m_table == {c: 1}
    assert model.n_table[(2, c)] == 1
    assert model.n_table[(3, c)] == 1
    assert model.n_table[(4, cc)] == F(-1, 4)
    assert model.p_seed[(3, cc)] == -2
    assert model.p_seed[(4, cc)] == 4
    assert model.p_seed[(-4, cc)] == 0


def test_preset_expansion_pair():
    model = conifold_pair(3, 2)
    beta = CurveClass((1, 1))
    assert [d for _, d in model.basis] == [3, 2]
    assert model.p_seed[(1, beta)] == 1
    assert model.p_seed[(2, beta)] == -1
    assert model.n_table[(1, CurveClass((0, 1)))] == 1


def test_preset_argument_validation():
    with pytest.raises(TableArgumentError, match="d1 > d2 > 0"):
        conifold_pair(2, 3)
    with pytest.raises(TableArgumentError, match="positive"):
        build_preset("conifold_single", (F(0),))
    with pytest.raises(TableArgumentError, match="unknown preset"):
        build_preset("nonexistent", ())


def _frozen_read(text, tables):
    """``modelio._read`` as it was before it converted each n text once: the reference that the
    parity test below holds the reader to.  It converts every key's n and matches every seeded
    key against ``_SEEDED_KEY``."""
    classes, values = {}, {}
    section, seeded, target = None, False, tables[None]
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line[0] == "#":
            continue
        if line[0] == "[" and line[-1] == "]":
            section = line[1:-1].strip()
            if section not in modelio._SECTIONS:
                raise ModelParseError(f"unknown section [{section}]", lineno)
            seeded, target = section in ("n_table", "p_seed"), tables[section]
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ModelParseError(f"expected 'key = value', got {line!r}", lineno)
        key = key.strip()
        if section is None:
            if key not in modelio._SCALARS:
                raise ModelParseError(f"unknown top-level key {key!r}", lineno)
        elif section != "basis":
            n, class_text = None, key
            if seeded:
                m = modelio._SEEDED_KEY.fullmatch(key)
                if not m:
                    what = f"expected 'n (class) = value' in [{section}], got {line!r}"
                    raise ModelParseError(what, lineno)
                try:
                    n, class_text = int(m[1]), m[2]
                except ValueError:
                    n, class_text = modelio._int(m[1], lineno), m[2]
            gamma = classes.get(class_text)
            if gamma is None:
                gamma = classes[class_text] = parse_class(class_text, lineno)
            key = gamma if n is None else (n, gamma)
        if key in target:
            return section, key, lineno
        number = values.get(value)
        if number is None:
            number = values[value] = parse_rational(value, lineno)
        target[key] = number
    return None


def _parsed(text, read=None):
    """``parse_model(text)``, with ``modelio._read`` replaced by ``read`` if given: every field of
    the model by repr, dict order included, or the parse error's text and line."""
    with mock.patch.object(modelio, "_read", read or modelio._read):
        try:
            model = parse_model(text)
        except ModelParseError as exc:
            return "error", str(exc), exc.line
    return "model", [repr(list(f.items())) if isinstance(f, dict) else repr(f) for f in model]


_LONG = "1" * 5000  # past int()'s default digit limit
_HEAD2 = "omega_cubed = 6\n[basis]\nC = 1\nD = 2\n"


@pytest.mark.parametrize("text", [
    # one n in three spacings: one n text converted per spacing, a repeat named by either
    _HEAD2 + "[n_table]\n-8 (1,0) = 1\n-8\t(0,1) = 1\n  -8   (1,1) = 2\n-8 (0,1) = 3\n",
    _HEAD2 + "[p_seed]\n-8 (1,0) = 1\n-8\t(0,1) = 1\n  -8   (1,1) = 2\n-8\t(1,0) = 3\n",
    # an n text and a class text both seen before, in other keys
    _HEAD2 + "[m_table]\n(1,1) = 1\n[n_table]\n2 (1,0) = 1\n3 (1,1) = 1\n2 (1,1) = 1\n3  (1,0) = 2\n",
    # a seeded key with no (, after its n text was seen; an unclosed class; a class without (
    _HEAD2 + "[n_table]\n3 (1,0) = 1\n3 1,0 = 1\n",
    _HEAD2 + "[n_table]\n3 (1,0) = 1\n3 (1,2 = 1\n",
    _HEAD2 + "[m_table]\n1,0 = 1\n[n_table]\n3 1,0 = 1\n",
    # its last character a class text seen in [m_table], the rest an n text seen before
    "omega_cubed = 6\n[basis]\nC = 1\n[m_table]\n1 = 1\n[n_table]\n-8 (1) = 1\n-8 1 = 1\n",
    _HEAD2 + "[m_table]\n1,0 = 1\n 0 , 1 = 2\n(1,1) = 1\n",
    _HEAD2 + "[m_table]\n(1,0 = 1\n",
    # a 5000-digit n, new and after its class text was seen
    _HEAD2 + f"[p_seed]\n{_LONG} (1,0) = 1\n",
    _HEAD2 + f"[p_seed]\n1 (1,0) = 1\n{_LONG} (1,0) = 1\n",
    _HEAD2 + f"[p_seed]\n1 (1,0) = 1\n1 ({_LONG},0) = 1\n",
    # a repeated entry whose repeat has a malformed value: the repeat is named first
    _HEAD2 + "[n_table]\n1 (1,0) = 1\n1 (1,0) = x\n",
    _HEAD2 + "[n_table]\n1 (1,0) = 1\n1  (1,0) = 1/0\n",
    # an unknown section after entries, and a new n text with a malformed value
    _HEAD2 + "[n_table]\n1 (1,0) = 1\n[bogus]\n",
    _HEAD2 + "[n_table]\n1 (1,0) = 1\n2 (1,0) = x\n",
    # a wrong-rank class, named by the model check
    _HEAD2 + "[n_table]\n1 (1,0) = 1\n1 (1) = 1\n",
])
def test_the_reader_equals_its_frozen_copy_on_the_edge_cases(text):
    assert _parsed(text) == _parsed(text, _frozen_read)


# (texts that read, texts that do not); a seeded key is spaces, n, a gap and a class
_SPACES = (["", " ", "\t"], [])
_GAPS = ([" ", "\t", "   ", " \x1f"], ["", " \x1c "])  # \x1c ends a line, \x1f does not
_N_TEXTS = (["-8", "1", "0", "-0", "08"], ["+1", "1x", _LONG])
_CLASSES = (["(1,0)", "(0,1)", "( 1 , 0 )", "(1,1)"], ["(1)", "(1,2", "()", "(1,0))", "(1,-0)"])
_M_CLASSES = (_CLASSES[0] + ["1,0", " 0 , 1", "1"], _CLASSES[1])
_SEEDED_CLASSES = (_CLASSES[0], _CLASSES[1] + ["1,0", "1", "x(1,0)"])
_VALUES = (["1", "-1/4", " 3/2 ", "2/4"], ["1/0", "x", _LONG])


@st.composite
def _model_texts(draw):
    """Model texts from few distinct n, class and value texts, so that keys, texts and
    repeats recur; about one text in 40 does not read, so errors come at any line."""
    text = lambda pools: draw(st.sampled_from(pools[draw(st.integers(0, 39)) == 0] or pools[0]))
    lines = ["omega_cubed = 6", "[basis]", "C = 1"] + draw(st.sampled_from([[], ["D = 2"]]))
    sections = st.sampled_from(["m_table", "n_table", "p_seed"] * 3 + ["bogus"])
    for section in draw(st.lists(sections, max_size=4)):
        lines.append(f"[{section}]")
        for _ in range(draw(st.integers(0, 3 if section == "m_table" else 8))):
            if section == "m_table":
                key = text(_M_CLASSES)
            else:
                key = text(_SPACES) + text(_N_TEXTS) + text(_GAPS) + text(_SEEDED_CLASSES)
            lines.append(f"{key} = {text(_VALUES)}")
    return "\n".join(lines) + "\n"


@settings(max_examples=400, deadline=None)
@given(_model_texts())
def test_the_reader_equals_its_frozen_copy(text):
    assert _parsed(text) == _parsed(text, _frozen_read)
