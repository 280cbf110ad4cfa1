"""Benchmark for nesycirc: four workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 nesybench/run.py --workload train --seed 1 --seconds 20 --trace 0
    python3 nesybench/run.py --workload all --seed 1 --seconds 20

One workload runs in one single-threaded process: set-up, reference
answers, one warm-up, then whole rounds of steps until ``--seconds`` have
passed, with the set-up repeated at even intervals between them. Step and
set-up times are divided by the time of a calibration made next to them
and reported at the calibration's reference speed (``calibration.py``), as
the shared host they were tuned on changes speed for minutes. Every
checked call is one attempted operation; one whose output fails its check
is a failed one. With ``--trace 0`` the end-to-end metrics are printed;
with ``--trace 1`` the loop's rounds take turns untraced and traced, extra
probe calls follow, and the per-layer metrics are printed together with
the tracing overhead (step_ms_ref of the traced rounds against the
untraced ones). The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--workload all`` runs
each workload in its own process and prints every metric by name and unit.

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with code 1 and prints no result.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 40
CALIBRATE_EVERY_S = 0.1
WORKLOAD_NAMES = ("compile", "train", "descend", "modules")

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _parse_args(argv):
    ap = argparse.ArgumentParser(description="nesycirc benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _import_program():
    src = ROOT / "src"
    if not (src / "nesycirc" / "__init__.py").is_file():
        raise SystemExit(f"error: no nesycirc package under {src}; run from a checkout")
    sys.path[:0] = [str(src), str(HERE)]
    import nesycirc
    if Path(nesycirc.__file__).resolve().parent != (src / "nesycirc").resolve():
        raise SystemExit(f"error: nesycirc imported from {nesycirc.__file__}, not {src}")


def _loop(w, cal, seconds: float, setup: tuple | None = None,
          tracers: tuple = ()) -> list[list[float]]:
    """Whole rounds until the time is up; returns each round's mean step
    time over the mean time of the calibrations ``cal`` around it.

    The calibration runs after a part of a round once CALIBRATE_EVERY_S
    have passed since the last one, and at the end of every round, so that
    it samples the host's speed while the round's steps run; a round's
    calibrations are those made in it and the last one before it.

    With ``setup`` (the list of set-up times and its calibration), the
    set-up is repeated at even intervals between steps until it has run
    SETUP_REPEATS times, so that its times are taken across the whole run
    and not in one moment of it. With ``tracers``, the rounds take turns
    with each tracer, and the ratios of each are returned apart, so that
    both see the same moments of the host.
    """
    w.reset_loop()
    ratios: list[list[float]] = [[] for _ in tracers or (None,)]
    before = cal.run()
    start = time.perf_counter()

    def setup_due() -> bool:
        return (setup is not None and len(setup[0]) < SETUP_REPEATS
                and time.perf_counter() - start >= len(setup[0]) * seconds / SETUP_REPEATS)

    for k in itertools.count():
        first = len(w.step_times)
        if tracers:
            w.tr = tracers[k % len(tracers)]
        parts, cal_times, last_cal = w.parts(), [], time.perf_counter()
        for i, part in enumerate(parts):
            part()
            if setup_due():
                _timed_setup(w, *setup)
            if (time.perf_counter() - last_cal >= CALIBRATE_EVERY_S
                    or i == len(parts) - 1):
                cal_times.append(cal.run())
                last_cal = time.perf_counter()
        step_s = sum(w.step_times[first:]) / w.STEPS_PER_ROUND
        cal_s = (before + sum(cal_times)) / (1 + len(cal_times))
        ratios[k % len(ratios)].append(step_s / cal_s)
        before = cal_times[-1]
        if time.perf_counter() - start >= seconds and k + 1 >= len(tracers):
            break
    while setup is not None and len(setup[0]) < SETUP_REPEATS:
        _timed_setup(w, *setup)
    return ratios


def _timed_setup(w, setup_ratios: list, cal) -> None:
    t0 = time.perf_counter()
    w.setup()
    setup_ratios.append((time.perf_counter() - t0) / cal.run())


def execute(name: str, seed: int, seconds: float, trace: bool, out_dir: Path) -> dict:
    import metrics
    from calibration import PYTHON, Calibration
    from tracing import NullTracer, Tracer
    from workloads import WORKLOADS, Run

    tracer = Tracer() if trace else NullTracer()
    run = Run(seed, str(out_dir))
    w = WORKLOADS[name](run, tracer)
    cal, setup_cal = Calibration(*w.CALIBRATION), Calibration(*PYTHON)
    setup_ratios: list[float] = []
    _timed_setup(w, setup_ratios, setup_cal)
    w.prepare()
    w.tr = NullTracer()  # a cold first call would skew the per-layer figures
    w.warmup()
    w.tr = tracer
    if not trace:
        [ratios] = _loop(w, cal, seconds, (setup_ratios, setup_cal))
        values = metrics.end_to_end(w, metrics.at_reference(setup_ratios, setup_cal),
                                    metrics.at_reference(ratios, cal))
        table = metrics.END_TO_END
    else:
        for _ in range(SETUP_REPEATS - 1):
            _timed_setup(w, setup_ratios, setup_cal)
        untraced, traced = _loop(w, cal, seconds, tracers=(NullTracer(), tracer))
        overhead_pct = 100.0 * (metrics.at_reference(traced, cal)
                                / metrics.at_reference(untraced, cal) - 1.0)
        w.tr = tracer
        w.probes()
        values = metrics.per_layer(w, tracer.self_times(), overhead_pct)
        table = metrics.PER_LAYER
        tracer.write(ROOT / "nesybench" / "out" / f"trace-{name}-seed{seed}.json")
    for msg in run.errors:
        print(f"check failed: {msg}", file=sys.stderr)
    return {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {n: {"value": float(values[n]), "unit": unit} for n, unit, _ in table},
    }


def _print_metrics(result: dict) -> None:
    for name, m in result["metrics"].items():
        print(f"  {name:<48} {m['value']:>16.6g} {m['unit']}")


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    results = {}
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited with code {proc.returncode}")
            return 1
        result = json.loads(lines[-1])
        results[name] = result
        print(f"{name}: attempted {result['attempted']} failed {result['failed']} "
              f"correct {str(result['correct']).lower()}")
        _print_metrics(result)
    print(json.dumps(results))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    _import_program()
    if args.workload == "all":
        return run_all(args)
    out_dir = ROOT / "nesybench" / "out" / f"{args.workload}-{args.seed}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        result = execute(args.workload, args.seed, args.seconds, bool(args.trace), out_dir)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
    print(f"{args.workload}: attempted {result['attempted']} failed {result['failed']} "
          f"correct {str(result['correct']).lower()}")
    _print_metrics(result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
