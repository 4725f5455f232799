#!/usr/bin/env python3
"""sepcurve benchmark: one closed-loop client per run, known answers checked.

    python3 perfbench/run.py --workload dense-ladder --seed 1 --seconds 20 --trace 0

Runs one workload (``dense-ladder``, ``pinned-cli`` or ``oracle``, see
``workloads.py``) in this process: one item at a time, the next sent
only when the previous result is back, no threads.  ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` runs the same inputs once
untraced and once with every layer wrapped (``tracing.py``) and reports
the per-layer metrics.  Every result is checked against its known
answer; the last stdout line is the JSON result, and the exit code is
non-zero when any item failed.  Only the ``fractions`` rational backend
is measured.

The host's speed drifts by tens of percent within seconds, so every
timed item is bracketed by a fixed reference loop, and every set-up
spawn by bare interpreter starts, and the end-to-end times are reported
at the reference speed: wall time times the reference's nominal time
over its measured time around it.  The wall times themselves are kept
in the ``info`` line.
"""

from __future__ import annotations

import argparse
import gc
import importlib.util
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

HOLDOUT_SEED = 7919  # kept out of tuning; later PRs confirm claims on it too
SETUP_WARMUP_SPAWNS = 2
SETUP_SPAWNS = 5  # per group, three groups per run
TAIL_BEYOND = 10
# reference_loop()'s time at the reference speed: about its median on
# the 2-vCPU x86 host the benchmark was tuned on
REFERENCE_S = 0.003
# the same for a bare interpreter start, ``python3 -c pass``, which
# set-up spawns are scaled by
REFERENCE_SPAWN_S = 0.06

END_TO_END = (
    ("setup_s", "s", "lower"),
    ("items_per_s", "1/s", "higher"),
    ("latency_p50_ms", "ms", "lower"),
    ("latency_tail_ms", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result."""


def prepare_environment() -> dict:
    """Guard the environment and make ``sepcurve`` importable from src/."""
    if os.environ.get("SEPCURVE_DEBUG_CHECKS"):
        raise BenchError("SEPCURVE_DEBUG_CHECKS is set: it would time the Sylvester cross-check")
    requested = os.environ.get("SEPCURVE_RATIONAL_BACKEND")
    if (requested or "").strip().lower() not in ("", "auto", "fractions"):
        raise BenchError(f"SEPCURVE_RATIONAL_BACKEND={requested!r}: only the fractions lane is measured")
    if not (SRC / "sepcurve" / "__init__.py").is_file():
        raise BenchError(f"no sepcurve sources under {SRC}")
    os.environ["SEPCURVE_RATIONAL_BACKEND"] = "fractions"
    sys.path.insert(0, str(SRC))
    import sepcurve

    if Path(sepcurve.__file__).resolve().parent != SRC / "sepcurve":
        raise BenchError(f"imported sepcurve from {sepcurve.__file__}, not from {SRC}")
    return {"SEPCURVE_RATIONAL_BACKEND": requested}


def environment_record(args, requested: dict) -> dict:
    from sepcurve import rationals

    return {
        "python": platform.python_version(),
        "backend": rationals.BACKEND,
        "gmpy2": "unavailable" if importlib.util.find_spec("gmpy2") is None else "installed, not measured",
        **requested,
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "workload": args.workload,
        "seed": args.seed,
        "holdout_seed": HOLDOUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def reference_loop():
    """Fixed work of the kind sepcurve spends its time in: Fraction
    arithmetic on numerators and denominators of a few hundred bits."""
    a, acc = 3**130, Fraction(0)
    for i in range(1, 300):
        a = (a * 6364136223846793005 + 1442695040888963407) % (1 << 230)
        acc = acc * Fraction(i, i + 1) + Fraction(a, 7 ** (i % 40 + 1))
        if acc.denominator.bit_length() > 600:
            acc = Fraction(acc.numerator >> 300, acc.denominator >> 300 | 1)
    return acc


def calibrate() -> float:
    """Wall time of one reference_loop(), with the collector off so the
    program's heap does not enter it."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        reference_loop()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def at_reference_speed(wall_s: float, before_s: float, after_s: float, reference_s: float = REFERENCE_S) -> float:
    """A wall time scaled to the reference speed by the times of a
    reference task just before and just after it."""
    return wall_s * reference_s / ((before_s + after_s) / 2)


def time_setup(spawns: int, code: str = "import sepcurve.cli") -> list:
    """Fresh interpreters running ``code``, one after another, each
    between two bare interpreters: a list of (wall_s,
    at_reference_speed_s) per spawn."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))

    def spawn(source):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", source], env=env, cwd=ROOT, capture_output=True, timeout=60)
        if done.returncode != 0:
            raise BenchError(f"{source} failed: {done.stderr.decode(errors='replace')}")
        return time.perf_counter() - start

    bare, times = [spawn("pass")], []
    for _ in range(spawns):
        wall = spawn(code)
        bare.append(spawn("pass"))
        times.append((wall, at_reference_speed(wall, *bare[-2:], REFERENCE_SPAWN_S)))
    return times


def run_items(workload, items, tracer=None):
    """The closed loop, with the reference loop timed before the first
    item and after each.  Returns (latencies_s, calibrations_s, digests);
    there is one more calibration than items."""
    latencies, calibrations, digests = [], [calibrate()], []
    for item in items:
        if tracer is not None:
            tracer.item = item.id
            tracer.active = True
        t0 = time.perf_counter()
        try:
            raw, error = workload.call(item), None
        except Exception as exc:  # a failed item is counted, not fatal
            raw, error = None, f"{type(exc).__name__}: {exc}"
        latencies.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        calibrations.append(calibrate())
        digests.append({"error": error} if error else workload.summarize(item, raw))
    return latencies, calibrations, digests


def scaled(latencies, calibrations) -> list:
    """Each item's latency at the reference speed."""
    return [at_reference_speed(t, *calibrations[i : i + 2]) for i, t in enumerate(latencies)]


def check_items(workload, items, *passes) -> list:
    """Reference once per item, then the known-answer gate on each
    pass's result for it."""
    failures = []
    for item, *results in zip(items, *passes):
        problem = workload.reference(item)
        for got in results:
            problems = [problem] if problem else [got["error"]] if "error" in got else workload.check(item, got)
            if problems:
                failures.append(f"{item.label()}: {'; '.join(problems)}")
    return failures


def tail(latencies):
    """(value, percentile) with exactly TAIL_BEYOND items above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        raise BenchError(f"only {n} items: the tail needs more than {TAIL_BEYOND}")
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def timings(latencies, setup) -> dict:
    """The timed end-to-end metrics from item latencies and spawn times."""
    tail_s, _ = tail(latencies)
    return {
        "setup_s": statistics.median(setup),
        "items_per_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1000,
        "latency_tail_ms": tail_s * 1000,
    }


def end_to_end(latencies, calibrations, setup, peak_rss_mb) -> tuple:
    """Metrics at the reference speed, and the info line's extras: the
    same timings in wall time and the tail's percentile."""
    values = timings(scaled(latencies, calibrations), [s for _, s in setup])
    values["peak_rss_mb"] = peak_rss_mb
    wall = timings(latencies, [w for w, _ in setup])
    return {name: (values[name], unit) for name, unit, _ in END_TO_END}, {
        "latency_tail_percentile": tail(latencies)[1],
        "samples": len(latencies),
        "wall": wall,
        "host_speed": REFERENCE_S / statistics.median(calibrations),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        requested = prepare_environment()
        import tracing
        import workloads

        if args.workload not in workloads.WORKLOADS:
            raise BenchError(f"unknown workload {args.workload!r} (have {', '.join(workloads.WORKLOADS)})")
        return run(args, requested, workloads, tracing)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2


def run(args, requested, workloads, tracing) -> int:
    env = environment_record(args, requested)
    print("env " + json.dumps(env), flush=True)
    setup = []

    def time_setup_group(warmup=0):
        # three groups, before, between and after the rest of the run,
        # so the median samples more than one moment of the machine
        if not args.trace:
            setup.extend(time_setup(warmup + SETUP_SPAWNS)[warmup:])

    time_setup_group(SETUP_WARMUP_SPAWNS)
    workload = workloads.WORKLOADS[args.workload]()
    passes = workload.passes(args.seconds)
    items = workload.items(args.seed, passes)
    workload.warmup()
    latencies, calibrations, digests = run_items(workload, items)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    time_setup_group()
    attempted = len(items)
    extra = {"passes": passes, "items": attempted}
    kinds = [item.kind for item in items]

    if args.trace:
        with tracing.Tracer() as tracer:
            t_latencies, t_calibrations, t_digests = run_items(workload, items, tracer)
        attempted += len(items)
        untraced_s = sum(scaled(latencies, calibrations))
        traced_s = sum(scaled(t_latencies, t_calibrations))
        metrics = tracer.metrics(sum(item.sides for item in items), traced_s / untraced_s)
        extra["counters"] = tracer.counts()
        extra["untraced_items_per_s"] = len(items) / untraced_s
        extra["traced_items_per_s"] = len(items) / traced_s
        t_digests = [
            b if json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True) else {"error": "traced result differs"}
            for a, b in zip(digests, t_digests)
        ]
        failures = check_items(workload, items, digests, t_digests)
        write_json(f"spans-{args.workload}-seed{args.seed}.json",
                   {"fields": ["name", "start", "end", "parent", "item"], "spans": tracer.spans, "items": kinds})
    else:
        failures = check_items(workload, items, digests)
        time_setup_group()
        metrics, tail_info = end_to_end(latencies, calibrations, setup, peak_rss_mb)
        extra.update(tail_info)

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    write_json(f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
               {"env": env, "info": extra, "failures": failures, **result,
                "latency_ms": {"fields": ["kind", "wall", "at_reference_speed"],
                               "items": [[kind, lat * 1000, ref * 1000] for kind, lat, ref
                                         in zip(kinds, latencies, scaled(latencies, calibrations))]}})
    for line in failures:
        print(f"FAIL {line}")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:12s} {name:44s} {value:14.6g} {unit}")
    print(f"{args.workload:12s} {'failed_frac':44s} {len(failures) / attempted:14.6g} -")
    print("info " + json.dumps(extra, sort_keys=True))
    print(json.dumps(result))
    return 1 if failures else 0


def write_json(name: str, data) -> None:
    OUT.mkdir(exist_ok=True)
    (OUT / name).write_text(json.dumps(data))


if __name__ == "__main__":
    sys.exit(main())
