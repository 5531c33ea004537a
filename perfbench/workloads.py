"""The three workloads: set-up, the ops of one pass, and the output checks.

Each workload reads the inputs the generation step wrote (plain files, no
engine objects), builds what a user would build before the first query in
``setup``, and hands out one pass of ops at a time.  An op is a pair
``(call, render)``: ``call()`` is the timed engine call and ``render(result)``
turns its result into ``(text, ok)`` outside the timed region.

Engine functions are looked up on their modules at call time
(``crossing.chamber_table``), never bound at import, so the tracer's wrappers
see every call the benchmark makes.
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from limitstab import cli, comparator, crossing, modelio, presets, walls
from limitstab.charge import ChernCharacter
from limitstab.geometry import CurveClass, NumericalThreefold

Op = Tuple[Callable[[], object], Callable[[object], Tuple[str, bool]]]
POINT_FRACTIONS = (Fraction(1, 4), Fraction(1, 2), Fraction(3, 4))


def _fmt(x) -> str:
    return modelio.format_rational(x)


def _beta(text: str) -> CurveClass:
    return CurveClass(tuple(int(c) for c in text.split(",")))


def _runs(text: str) -> List[Tuple[Fraction, Fraction, Fraction]]:
    """Parse merged-table TSV rows k_lo<TAB>k_hi<TAB>L."""
    rows = []
    for line in text.splitlines():
        lo, hi, value = line.split("\t")
        rows.append((Fraction(lo), Fraction(hi), Fraction(value)))
    return rows


def _value_at(runs, k: Fraction, right_of=False):
    """Value of the run that holds k inside (or, with ``right_of``, at its left end)."""
    for lo, hi, value in runs:
        if lo < k < hi or (right_of and k == lo):
            return value
    return None


def _mirror_errors(label, plus, minus) -> List[str]:
    """(n, k) -> (-n, -k) symmetry at three interior points of every run."""
    errors = []
    for lo, hi, value in plus:
        for frac in POINT_FRACTIONS:
            k = lo + (hi - lo) * frac
            if _value_at(minus, -k) != value:
                errors.append(f"{label}: L(n) at {k} is {value}, L(-n) at {-k} is {_value_at(minus, -k)}")
    return errors


class LadderCold:
    """One in-process CLI ``table`` (or ``verify``) call per op, fresh cache each."""

    def __init__(self, workdir: Path, expected: dict):
        plan = json.loads((workdir / "plan.json").read_text())
        self.ops = plan["ops"]
        self.model_dir = workdir / "models"
        self.verify_output = expected.get("verify_output")

    def setup(self) -> None:
        """The CLI parses its model on every call; nothing to build up front."""

    def _argv(self, op) -> List[str]:
        if op["kind"] == "verify":
            return ["verify"]
        return [
            "table", "--model", str(self.model_dir / f"{op['model']}.model"),
            "--beta", op["beta"], "--n", str(op["n"]), "--range", op["range"],
        ]

    @staticmethod
    def _call(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stderr(err):
            rc = cli.main(argv, out=out)
        return rc, out.getvalue(), err.getvalue()

    @staticmethod
    def _render(result):
        rc, out, err = result
        # cli.main turns errors into return codes, so any stderr output or a
        # nonzero code is a failed op
        if rc == 0 and not err:
            return out, True
        return f"rc={rc}\n{out}{err}", False

    def new_pass(self) -> List[Op]:
        return [(lambda argv=self._argv(op): self._call(argv), self._render) for op in self.ops]

    def check(self, texts: List[str]) -> List[str]:
        errors, tables = [], {}
        for op, text in zip(self.ops, texts):
            if op["kind"] == "verify":
                if self.verify_output is not None and text != self.verify_output:
                    errors.append(f"verify output differs from the frozen copy:\n{text}")
                continue
            label = f"{op['model']} beta=({op['beta']}) n={op['n']}"
            try:
                runs = _runs(text)
            except ValueError:
                errors.append(f"{label}: unparsable table output {text!r}")
                continue
            if not runs:
                errors.append(f"{label}: empty table")
                continue
            # the generator derived the seeds with this engine, so the two
            # end checks below hold by construction at every seed: they catch
            # a CLI or parse fault, not a wrong jump law (see README.md)
            if runs[0][2] != Fraction(op["p_left"]):
                errors.append(f"{label}: leftmost value {runs[0][2]} != seed {op['p_left']}")
            if runs[-1][2] != Fraction(op["p_right"]):
                errors.append(f"{label}: far-right value {runs[-1][2]} != P(-n) seed {op['p_right']}")
            tables[(op["model"], op["beta"], op["n"])] = runs
        for (model, beta, n), runs in tables.items():
            if n > 0 and (model, beta, -n) in tables:
                errors += _mirror_errors(f"{model} beta=({beta}) n={n}", runs, tables[(model, beta, -n)])
        return errors


class SessionWarm:
    """Per model one shared cache: series check, tables, repeated points, reports."""

    # every interior point is queried this often: once as a new point (a
    # march over cached walls), then as cache hits
    POINT_REPEATS = 4

    def __init__(self, workdir: Path, expected: dict):
        plan = json.loads((workdir / "plan.json").read_text())
        self.sessions = plan["sessions"]
        self.model_dir = workdir / "models"
        self.texts: Dict[str, str] = {}

    def setup(self) -> None:
        for s in self.sessions:
            if "model" in s:
                self.texts[s["model"]] = (self.model_dir / f"{s['model']}.model").read_text()

    def _model(self, session) -> NumericalThreefold:
        if "model" in session:
            return modelio.parse_model(self.texts[session["model"]], name=session["model"])
        return presets.build_preset(session["preset"], tuple(Fraction(a) for a in session["args"]))

    def _load(self, session, state):
        state["model"], state["cache"] = self._model(session), crossing.TableCache()
        return state["model"]

    def _session_ops(self, s) -> List[Op]:
        state: dict = {}
        beta_s, n_max = _beta(s["series"][0]), s["series"][1]
        tables = [(_beta(t["beta"]), t["n"], Fraction(t["lo"]), Fraction(t["hi"])) for t in s["tables"]]
        ops: List[Op] = [(lambda: self._load(s, state), lambda m: (f"load {m.name}", True))]
        ops.append((
            lambda: crossing.pt_symmetry_check(state["model"], beta_s, n_max, state["cache"]),
            lambda r: ("\n".join(
                f"series {row.n} {_fmt(row.p_plus)} {_fmt(row.p_minus_derived)} "
                f"{'-' if row.p_minus_seed is None else _fmt(row.p_minus_seed)}"
                for row in r.rows
            ), True),
        ))
        for beta, n, lo, hi in tables:
            ops.append((
                lambda beta=beta, n=n, lo=lo, hi=hi: crossing.chamber_table(
                    state["model"], beta, n, lo, hi, state["cache"]),
                lambda t: ("\n".join(f"{_fmt(a)}\t{_fmt(b)}\t{_fmt(v)}" for a, b, v in t.merged()), True),
            ))
        points = [(tables[t], Fraction(k)) for t, k in s["points"]]
        for _ in range(self.POINT_REPEATS):
            for (beta, n, _, _), k in points:
                ops.append((
                    lambda beta=beta, n=n, k=k: crossing.invariant_value(
                        state["model"], beta, n, k, cache=state["cache"]),
                    lambda v: (_fmt(v), True),
                ))
        for t, k0, l_minus in s["walls"]:
            beta, n, _, _ = tables[t]
            ops.append((
                lambda beta=beta, n=n, k0=Fraction(k0), l_minus=Fraction(l_minus): crossing.cross_wall(
                    state["model"], beta, n, k0, l_minus, state["cache"]),
                lambda r: (f"{_fmt(r[0])} total {_fmt(r[1].total)} terms {len(r[1].terms)}", True),
            ))
        return ops

    def new_pass(self) -> List[Op]:
        return [op for s in self.sessions for op in self._session_ops(s)]

    def check(self, texts: List[str]) -> List[str]:
        errors, pos = [], 0
        for s in self.sessions:
            name = s.get("model") or s["preset"]
            model = self._model(s)
            pos += 1  # load
            # the series and far-right checks compare against seeds this engine
            # derived, so on ladder sessions they check cache consistency only
            for line in texts[pos].splitlines():
                _, n, _, derived, seed = line.split()
                if seed != "-" and derived != seed:
                    errors.append(f"{name}: series n={n} derives P(-n) = {derived}, seed is {seed}")
            pos += 1
            runs = []
            for t in s["tables"]:
                label = f"{name} beta=({t['beta']}) n={t['n']}"
                try:
                    runs.append(_runs(texts[pos]))
                except ValueError:
                    errors.append(f"{label}: unparsable table output {texts[pos]!r}")
                    runs.append([])
                pos += 1
                beta = _beta(t["beta"])
                _, k_dual = walls.pt_bounds(model, beta, t["n"])
                seed = model.p_seed.get((-t["n"], beta))
                if runs[-1] and Fraction(t["hi"]) > k_dual and runs[-1][-1][2] != seed:
                    errors.append(f"{label}: far-right value {runs[-1][-1][2]} != P(-n) seed {seed}")
            for i, t in enumerate(s["tables"]):
                for j, u in enumerate(s["tables"]):
                    if t["beta"] == u["beta"] and t["n"] > 0 and u["n"] == -t["n"]:
                        errors += _mirror_errors(f"{name} beta=({t['beta']}) n={t['n']}", runs[i], runs[j])
            for _ in range(self.POINT_REPEATS):
                for t, k in s["points"]:
                    want = _value_at(runs[t], Fraction(k))
                    if texts[pos] != (None if want is None else _fmt(want)):
                        errors.append(f"{name}: point {k} of table {t} gives {texts[pos]}, table has {want}")
                    pos += 1
            for t, k0, _ in s["walls"]:
                want = _value_at(runs[t], Fraction(k0), right_of=True)
                got = texts[pos].split()[0]
                if want is None or got != _fmt(want):
                    errors.append(f"{name}: crossing at {k0} of table {t} gives {got}, table has {want}")
                pos += 1
        return errors


class PhaseFuzz:
    """One seeded (model, F, E, k) case per op: both comparator routes, both orders."""

    def __init__(self, workdir: Path, expected: dict):
        self.raw = json.loads((workdir / "plan.json").read_text())["cases"]
        self.cases: list = []

    def setup(self) -> None:
        self.cases = []
        for c in self.raw:
            model = NumericalThreefold(
                basis=tuple((f"C{i + 1}", d) for i, d in enumerate(c["degrees"])),
                omega_cubed=c["omega_cubed"],
                c2_omega=c["c2_omega"],
            )
            f, e = (ChernCharacter(r, cc, tuple(g), n) for r, cc, g, n in (c["f"], c["e"]))
            self.cases.append((model, f, e, Fraction(c["k"])))

    @staticmethod
    def _call(model, f, e, k):
        return (
            comparator.compare_phases(model, f, e, k),
            comparator.compare_phases(model, e, f, k),
            comparator.compare_phases_closed(model, f, e, k),
        )

    def new_pass(self) -> List[Op]:
        render = lambda r: (" ".join(o.name for o in r), True)  # noqa: E731
        return [(lambda c=c: self._call(*c), render) for c in self.cases]

    def check(self, texts: List[str]) -> List[str]:
        flip = {"PRECEDES": "SUCCEEDS", "SUCCEEDS": "PRECEDES", "EQUAL": "EQUAL"}
        errors = []
        for i, text in enumerate(texts):
            parts = text.split()
            if len(parts) != 3 or parts[0] != parts[2] or parts[1] != flip.get(parts[0]):
                errors.append(f"case {i}: compare(F,E), compare(E,F), closed(F,E) = {text}")
        return errors


WORKLOADS = {"ladder_cold": LadderCold, "session_warm": SessionWarm, "phase_fuzz": PhaseFuzz}
