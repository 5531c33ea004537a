"""limitstab benchmark: one workload, one seed, one closed-loop run.

    python3 perfbench/run.py --workload ladder_cold --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; it imports the engine from ``src/``.
One caller on one thread issues the next op only after the previous one
returns.  The run

1. generates the workload's inputs from the seed in a child interpreter
   (ladder models, query plans, comparator cases; not timed);
2. times set-up -- import, loading the inputs, and warm-up ops -- in
   ``SETUP_REPEATS`` fresh interpreters, each followed by a timed
   calibration loop, and reports the median at the reference host speed;
3. runs whole passes over the op list -- at least ``MIN_PASSES``, then more
   until the next pass would end after ``--seconds`` -- timing each op and
   the calibration loop it is paired with (``--trace 0``), or one untraced
   reference pass followed by passes with every engine layer wrapped
   (``--trace 1``);
4. checks the outputs, and prints a summary and, as the last line, one JSON
   object with the metrics.

Inputs and scratch files go to ``.bench_build/`` in the checkout and are
removed at exit.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import tracer as tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
EXPECTED = BENCH_DIR / "expected.json"
WORKLOAD_NAMES = ("ladder_cold", "session_warm", "phase_fuzz")
DEFAULT_SEED = 1
SETUP_REPEATS = 15
WARMUP_OPS = 3
MIN_PASSES = 3  # so every op's latency is a true median of its samples
FUZZ_CASES = 1000
CHILD_TIMEOUT_S = 150
# A shared host's speed swings by up to 2x within seconds, under every op
# alike.  So timed runs of a fixed calibration loop open each pass and close
# every stretch of CAL_CHUNK_S of ops, meeting the host speed the ops between
# them met, and an op's latency is CAL_REFERENCE_S times the median over the
# passes of (op time / mean time of the two loops around it): milliseconds
# at the host speed at which the loop takes CAL_REFERENCE_S (about its
# fastest time on a 2.1 GHz Xeon vCPU).  Changing the constant or the loop
# would rescale every earlier figure.
CAL_REFERENCE_S = 0.0017
CAL_CHUNK_S = 0.02


def _parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=30.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: the child steps of a run
    p.add_argument("--generate", metavar="DIR", help=argparse.SUPPRESS)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def _import_engine() -> None:
    sys.path.insert(0, str(SRC))
    import limitstab

    if Path(limitstab.__file__).resolve().parent != SRC / "limitstab":
        raise SystemExit(f"imported limitstab from {limitstab.__file__}, not from {SRC}")


def _generate(workload: str, seed: int, workdir: Path) -> None:
    """Write the inputs of one run: model files and plan.json."""
    _import_engine()
    if workload == "phase_fuzz":
        from cases import comparator_cases

        models, plan = {}, {"cases": comparator_cases(seed, FUZZ_CASES)}
    else:
        import ladder

        if workload == "ladder_cold":
            models, ops = ladder.ladder_cold_plan(seed)
            plan = {"ops": ops}
        else:
            models, sessions = ladder.session_warm_plan(seed)
            plan = {"sessions": sessions}
    (workdir / "models").mkdir()
    for name, text in models.items():
        (workdir / "models" / f"{name}.model").write_text(text)
    (workdir / "plan.json").write_text(json.dumps(plan))


def _expected() -> dict:
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


def _open_workload(name: str, workdir: Path):
    from workloads import WORKLOADS

    workload = WORKLOADS[name](workdir, _expected())
    workload.setup()
    return workload


def _warm_up(workload) -> None:
    for call, _ in workload.new_pass()[:WARMUP_OPS]:
        call()


def _setup_probe(name: str, workdir: Path) -> None:
    """Child step: print the seconds from before the import to after warm-up,
    and the seconds of the calibration loop run right after."""
    t0 = time.perf_counter()
    _import_engine()
    _warm_up(_open_workload(name, workdir))
    t1 = time.perf_counter()
    _calibration_loop()
    print(t1 - t0, time.perf_counter() - t1)


def _child(*args: str) -> str:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), *args],
        cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise SystemExit(f"child step {args[:2]} failed:\n{proc.stderr}")
    return proc.stdout


def _calibration_loop():
    """Fixed pure-Python work of the engine's kind: rationals, tuples, a dict."""
    acc, memo = Fraction(0), {}
    for i in range(1, 800):
        key = (i % 37, i % 11)
        acc += Fraction(key[0] + 1, key[1] + 1)
        memo[key] = memo.get(key, acc)
    return acc


def _one_pass(workload, paired: bool):
    """Run one pass; return (op latencies in s, each op's calibration loop
    time in s, output texts, failed ops, wall s).

    With ``paired``, timed calibration loops open the pass and close every
    stretch of ``CAL_CHUNK_S`` of ops, and each op of a stretch is paired
    with the mean of the two loops around it; without, no loop runs and the
    second list is empty.
    """
    clock = time.perf_counter
    ops = workload.new_pass()
    latencies, cal, texts, failed = [], [], [], 0
    if paired:
        t0 = clock()
        _calibration_loop()
        before = clock() - t0
    start = chunk_start = clock()
    for i, (call, render) in enumerate(ops):
        t0 = clock()
        try:
            result = call()
        except (Exception, SystemExit) as exc:  # a failing op is counted, not fatal
            latencies.append(clock() - t0)
            texts.append(f"exception {type(exc).__name__}: {exc}")
            failed += 1
        else:
            latencies.append(clock() - t0)
            text, ok = render(result)
            texts.append(text)
            failed += not ok
        if paired and (clock() - chunk_start >= CAL_CHUNK_S or i == len(ops) - 1):
            t0 = clock()
            _calibration_loop()
            after = clock() - t0
            cal += [(before + after) / 2] * (i + 1 - len(cal))
            before, chunk_start = after, clock()
    return latencies, cal, texts, failed, clock() - start


def _digest(texts) -> str:
    h = hashlib.sha256()
    for text in texts:
        h.update(text.encode())
        h.update(b"\0")
    return h.hexdigest()


class _Passes:
    """Whole passes until the next one would end after the time budget."""

    def __init__(self):
        self.per_pass, self.cal_per_pass, self.digests, self.pass_s = [], [], [], []
        self.texts = None
        self.attempted = self.failed = 0

    def run(self, workload, seconds: float, at_least: int = 1, paired: bool = False) -> None:
        start = time.perf_counter()
        while True:
            latencies, cal, texts, failed, wall = _one_pass(workload, paired)
            self.per_pass.append(latencies)
            self.cal_per_pass.append(cal)
            self.digests.append(_digest(texts))
            self.pass_s.append(wall)
            self.attempted += len(latencies)
            self.failed += failed
            if self.texts is None:
                self.texts = texts
            at_least -= 1
            if at_least <= 0 and time.perf_counter() - start + wall > seconds:
                return

    def op_latencies(self):
        """Each op's latency at the reference host speed, in op order.

        A pass repeats the same ops.  Per op, the median over the passes of
        its time divided by its paired calibration loop time, times
        CAL_REFERENCE_S (needs a run with ``paired``).
        """
        return [
            CAL_REFERENCE_S * statistics.median(t / c for t, c in zip(times, cals))
            for times, cals in zip(zip(*self.per_pass), zip(*self.cal_per_pass))
        ]

    def unscaled_op_latencies(self):
        """Each op's median time over the passes, as the host ran it."""
        return [statistics.median(times) for times in zip(*self.per_pass)]


def _check(name: str, workload, passes: _Passes, seed: int) -> list:
    try:
        errors = workload.check(passes.texts)
    except Exception as exc:  # malformed output must fail the run, not crash it
        errors = [f"output check crashed: {type(exc).__name__}: {exc}"]
    if len(set(passes.digests)) != 1:
        errors.append(f"outputs differ between passes: {sorted(set(passes.digests))}")
    frozen = _expected().get("digests", {}).get(str(seed), {}).get(name)
    if frozen and passes.digests[0] != frozen:
        errors.append(f"outputs differ from the frozen outputs of seed {seed}")
    return errors


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _end_to_end(passes: _Passes, setup_s: float) -> dict:
    lat = passes.op_latencies()
    return {
        "setup_s": _metric(setup_s, "s"),
        "ops_per_s": _metric(len(lat) / sum(lat), "1/s"),
        "op_p50_ms": _metric(statistics.median(lat) * 1e3, "ms"),
        "op_p90_ms": _metric(statistics.quantiles(lat, n=10)[8] * 1e3, "ms"),
        "ok_ratio": _metric((passes.attempted - passes.failed) / passes.attempted, "ratio"),
        "peak_rss_mb": _metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def _per_layer(tracer, passes: _Passes) -> dict:
    n = len(passes.pass_s)
    out = {}
    for mod, fns in tracing.LAYERS.items():
        mod_ms = 0.0
        for fn in fns:
            key = f"{mod}.{fn}"
            calls = tracer.calls[key] / n
            out[f"{key}.calls"] = _metric(int(calls) if calls.is_integer() else calls, "count")
            out[f"{key}.self_ms"] = _metric(tracer.self_s[key] * 1e3 / n, "ms")
            mod_ms += tracer.self_s[key] * 1e3 / n
        out[f"{mod}.self_ms"] = _metric(mod_ms, "ms")
    memo = tracer.memo_entries / n
    out[tracing.MEMO] = _metric(int(memo) if memo.is_integer() else memo, "count")
    out["trace.run_s"] = _metric(statistics.mean(passes.pass_s), "s")
    out["trace.absent_names"] = _metric(len(tracer.absent), "count")
    return out


def _measure(args, workdir: Path):
    _import_engine()
    workload = _open_workload(args.workload, workdir)
    _warm_up(workload)
    gc.collect()
    if not args.trace:
        passes = _Passes()
        passes.run(workload, args.seconds, at_least=MIN_PASSES, paired=True)
        return workload, passes, None, None
    reference = _Passes()
    reference.run(workload, 0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = _Passes()
        traced.run(workload, args.seconds - sum(reference.pass_s))
        gc.collect()  # free every cache so its entries are counted
    finally:
        tracer.uninstall()
    traced.texts = reference.texts
    traced.digests = reference.digests + traced.digests  # traced must equal untraced
    traced.attempted += reference.attempted
    traced.failed += reference.failed
    return workload, traced, tracer, reference


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "limitstab" / "__init__.py").is_file():
        print(f"perfbench: no engine source at {SRC}/limitstab; run it in a checkout", file=sys.stderr)
        return 2
    if args.generate:
        _generate(args.workload, args.seed, Path(args.generate))
        return 0
    if args.setup_probe:
        _setup_probe(args.workload, Path(args.setup_probe))
        return 0

    build = ROOT / ".bench_build"
    build.mkdir(exist_ok=True)
    workdir = build / f"perfbench-{os.getpid()}"
    workdir.mkdir()
    try:
        t0 = time.perf_counter()
        _child("--generate", str(workdir), "--workload", args.workload, "--seed", str(args.seed))
        generate_s = time.perf_counter() - t0
        probes = [] if args.trace else [
            [float(x) for x in _child("--setup-probe", str(workdir), "--workload", args.workload).split()[-2:]]
            for _ in range(SETUP_REPEATS)
        ]
        workload, passes, tracer, reference = _measure(args, workdir)
        # before the checks, so peak_rss_mb is the measured passes' peak
        if tracer:
            metrics = _per_layer(tracer, passes)
        else:
            setup_s = CAL_REFERENCE_S * statistics.median(t / c for t, c in probes)
            metrics = _end_to_end(passes, setup_s)
        errors = _check(args.workload, workload, passes, args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    ops = len(passes.per_pass[0])
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(passes.pass_s)} passes of {ops} ops, inputs generated in {generate_s:.1f} s")
    print(f"pass wall time (s): {' '.join(f'{p:.3f}' for p in passes.pass_s)}")
    print(f"output digest {passes.digests[0]}")
    for error in errors[:20]:
        print(f"CHECK FAILED: {error}")
    if tracer:
        print(f"untraced reference pass {reference.pass_s[0]:.3f} s; traced passes "
              f"{metrics['trace.run_s']['value']:.3f} s on average")
        if tracer.absent:
            print(f"absent at this commit: {' '.join(tracer.absent)}")
        print(f"{tracing.MEMO} {metrics[tracing.MEMO]['value']} per pass against "
              f"crossing.l_at_wall.calls {metrics['crossing.l_at_wall.calls']['value']}")
    else:
        print(f"op latency: median of each op over the passes at the reference host speed, "
              f"then p50 and p90 over {ops} ops (p90 has {ops - int(0.9 * ops)} ops beyond it)")
        cal = [c for cals in passes.cal_per_pass for c in cals]
        raw = passes.unscaled_op_latencies()
        print(f"paired calibration loop median {statistics.median(cal) * 1e3:.4f} ms, reference "
              f"{CAL_REFERENCE_S * 1e3:g} ms; as the host ran: ops_per_s {len(raw) / sum(raw):.6g} "
              f"op_p50_ms {statistics.median(raw) * 1e3:.6g} "
              f"op_p90_ms {statistics.quantiles(raw, n=10)[8] * 1e3:.6g}")
        print(f"setup probes as the host ran (s): {' '.join(f'{t:.4f}' for t, _ in probes)}")
    for key, m in metrics.items():
        if m["value"] or not key.endswith(".calls"):
            print(f"  {key:45s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({
        "correct": not errors,
        "attempted": passes.attempted,
        "failed": passes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
