"""Run the benchmark in alternating pairs on two checkouts and summarise it.

For every seed and workload, ``nesybench/run.py --workload W --seed S
--seconds T`` runs once in the parent checkout and once in the change
checkout, each in its own process and one after the other; odd seeds run
the parent first, even seeds the change. The record written to ``--out``
(``BENCH_<n>.json`` by convention) holds the host (CPU, core count, Python
and numpy versions), the commit each checkout is at and whether its tree
has changes (null for a directory that is not a git checkout), every run,
and per workload and end-to-end metric the quartiles of each side, the
change's wins and ties over the pairs, the parent's interquartile range,
and whether the change stays within the metric's bound. With ``--claim W:metric`` it also says whether the claim
holds: the change better in at least nine pairs of ten, and its median
better than the parent's by more than the parent's interquartile range.

The metrics, their directions and bounds come from ``BENCHMARK.json`` of
the change checkout. The script runs ``run.py`` as a program and imports
nothing from ``nesybench/``. Typical invocation, from the change checkout:

    python3 scripts/bench_pairs.py --parent ../parent --change . \\
        --workloads modules --seeds 2241-2250 --seconds 20 \\
        --claim modules:step_ms_ref --out BENCH_22.json
"""

import argparse
import json
import math
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np

SIDES = ("parent", "change")


def parse_seeds(text: str) -> list[int]:
    """Seeds from a comma-separated list of integers and ``lo-hi`` ranges."""
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.strip().partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``run.py`` process: its exit code, operation counts and end-to-end
    metrics (empty when it printed no result line)."""
    cmd = [sys.executable, "nesybench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = {}
    return {"returncode": proc.returncode, "attempted": result.get("attempted", 0),
            "failed": result.get("failed", 0),
            "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()}}


def _quartiles(values) -> dict:
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"q1": round(float(q1), 6), "median": round(float(median), 6),
            "q3": round(float(q3), 6)}


def compare(parent, change, sign: float = 1.0) -> dict:
    """Paired values of both sides: each side's quartiles, the ratio of the
    medians and the pairs the change won; ``sign`` is 1.0 where lower is
    better and -1.0 where higher is."""
    parent, change = np.asarray(parent, dtype=float), np.asarray(change, dtype=float)
    side = {"parent": _quartiles(parent), "change": _quartiles(change)}
    ratio = side["change"]["median"] / side["parent"]["median"] \
        if side["parent"]["median"] else math.nan
    return {**side, "change_over_parent_median": round(ratio, 4),
            "change_wins": int(np.sum(sign * (parent - change) > 0))}


def summarize(runs: list[dict], metrics: list[dict], workload: str) -> dict:
    """One workload's pairs: the runs of both sides at each seed, compared
    metric by metric. A metric missing from a run leaves its pair out."""
    by_seed = {}
    for run in runs:
        if run["workload"] == workload:
            by_seed.setdefault(run["seed"], {})[run["side"]] = run
    pairs = [p for _, p in sorted(by_seed.items()) if set(p) == set(SIDES)]
    out = {"seeds": [p["parent"]["seed"] for p in pairs], "pairs": len(pairs),
           "failed": {s: sum(p[s]["failed"] for p in pairs) for s in SIDES},
           "attempted": {s: sum(p[s]["attempted"] for p in pairs) for s in SIDES},
           "metrics": {}}
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "lower" else -1.0
        both = [(p["parent"]["metrics"][name], p["change"]["metrics"][name]) for p in pairs
                if name in p["parent"]["metrics"] and name in p["change"]["metrics"]]
        if not both:
            continue
        parent, change = map(np.array, zip(*both))
        paired = compare(parent, change, sign)
        gain = sign * (paired["parent"]["median"] - paired["change"]["median"])
        iqr = paired["parent"]["q3"] - paired["parent"]["q1"]
        out["metrics"][name] = {
            **paired,
            "ties": int(np.sum(parent == change)),
            "bound": spec["bound"],
            "within_bound": bool(gain >= -spec["bound"] * abs(paired["parent"]["median"])),
            "parent_iqr": round(iqr, 6),
            "median_gain_exceeds_parent_iqr": bool(gain > iqr),
        }
    return out


def claim_met(summary: dict, workload: str, metric: str) -> bool:
    """At least nine pairs in ten won, and a median gain past the parent's IQR."""
    m = summary[workload]["metrics"].get(metric)
    pairs = summary[workload]["pairs"]
    return bool(m and pairs and m["change_wins"] >= math.ceil(0.9 * pairs)
                and m["median_gain_exceeds_parent_iqr"])


def checkout_state(path: Path) -> dict | None:
    """``git rev-parse HEAD`` of a checkout and whether ``git status`` lists
    any change or untracked file; None when ``path`` is not the top of a
    git checkout, or git is missing."""
    def git(*args) -> str | None:
        try:
            proc = subprocess.run(["git", *args], cwd=path, capture_output=True, text=True)
        except OSError:
            return None
        return proc.stdout.strip() if proc.returncode == 0 else None

    top = git("rev-parse", "--show-toplevel")
    if top is None or Path(top).resolve() != path.resolve():
        return None
    return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}


def host() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"cores": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": np.__version__}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="the change checkout")
    ap.add_argument("--workloads", default="compile,train,descend,modules")
    ap.add_argument("--seeds", required=True, help="e.g. 2241-2250 or 2241,2243")
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--claim", default=None, help="workload:metric the change claims")
    ap.add_argument("--description", default="")
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)

    bench = json.loads((args.change / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w.strip() for w in args.workloads.split(",")]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    states = {side: checkout_state(path) for side, path in checkouts.items()}
    runs = []
    for seed in parse_seeds(args.seeds):
        order = SIDES if seed % 2 else SIDES[::-1]
        for workload in workloads:
            for side in order:
                run = run_once(checkouts[side], workload, seed, args.seconds)
                runs.append({"workload": workload, "seed": seed, "side": side,
                             "pair_first": order[0], "trace": 0, **run})
                print(f"{workload} seed {seed} {side}: exit {run['returncode']}, "
                      f"{run['failed']} of {run['attempted']} failed, "
                      + ", ".join(f"{k} {v:.6g}" for k, v in run["metrics"].items()),
                      flush=True)
    summary = {w: summarize(runs, bench["end_to_end"], w) for w in workloads}
    record = {"description": args.description,
              "command": f"python3 nesybench/run.py --workload W --seed S "
                         f"--seconds {args.seconds:g}",
              "host": host(), "checkouts": states}
    if args.claim:
        workload, metric = args.claim.split(":")
        better = next(m["better"] for m in bench["end_to_end"] if m["name"] == metric)
        record["claim"] = {"workload": workload, "metric": metric, "better": better,
                           "met": claim_met(summary, workload, metric)}
    record.update(summary=summary, runs=runs)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    bad = [f"{w} {name}" for w, s in summary.items() for name, m in s["metrics"].items()
           if not m["within_bound"]]
    print(f"wrote {args.out}; outside their bounds: {', '.join(bad) or 'none'}")
    return 0 if all(r["returncode"] == 0 for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
