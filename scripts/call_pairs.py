"""Time named library calls of two checkouts in one process, interleaved.

Each checkout's ``src/nesycirc`` is copied into a temporary directory under
its own package name (``nesycirc_parent``, ``nesycirc_change``); the
package imports itself relatively, so both copies load side by side. Every
named call runs on the sum-999 addition constraint (``build_addition(3,
999)``) at each batch size, on rows drawn uniformly from [0.02, 0.98] with
a fixed seed. A round times about BUDGET_S seconds of calls of one side
and then as many of the other, the order alternating from round to round,
and records the mean time of a call; the summary (``compare`` of
``bench_pairs.py``) gives each side's quartiles over the rounds and the
rounds the change won. Separate processes on a shared host can run in a
fast or a slow mode for their whole life, 30-80% apart; two sides timed in
one process share it. Typical invocation, from the change checkout:

    python3 scripts/call_pairs.py --parent ../parent --change . \\
        --calls semantic_loss_and_grad --batches 1,1024 --rounds 12
"""

import argparse
import importlib.util
import json
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from bench_pairs import SIDES, compare

SEED = 0
# seconds of calls of one side in a round; the call count is calibrated to it
BUDGET_S = 0.02

# each call takes the loaded package, the sum-999 module and a LeafBatch
CALLS = {
    "semantic_loss_and_grad": lambda nc, m, batch: nc.tasks.semantic_loss_and_grad(m, batch),
    "semantic_loss": lambda nc, m, batch: nc.tasks.semantic_loss(m, batch),
    "evaluate.log": lambda nc, m, batch: nc.layered.evaluate(m.backend.layered, batch, "log"),
    "backward.log": lambda nc, m, batch: nc.layered.backward(m.backend.layered, batch, "log"),
    "evaluate.prob": lambda nc, m, batch: nc.layered.evaluate(m.backend.layered, batch),
    "backward.prob": lambda nc, m, batch: nc.layered.backward(m.backend.layered, batch),
    # the module called on its probability rows, a 1-D row at batch 1, as
    # in the benchmark's descend step after each semantic_loss_and_grad
    "module_call": lambda nc, m, batch: m(batch.probs if batch.batch_size > 1 else batch.probs[0]),
}


def load_package(checkout: Path, name: str, into: Path):
    """``checkout/src/nesycirc`` copied into ``into`` and imported as ``name``."""
    for key in [k for k in sys.modules if k == name or k.startswith(name + ".")]:
        del sys.modules[key]  # an earlier load's submodules would shadow this one's
    target = into / name
    shutil.copytree(checkout / "src" / "nesycirc", target,
                    ignore=shutil.ignore_patterns("__pycache__"))
    spec = importlib.util.spec_from_file_location(
        name, target / "__init__.py", submodule_search_locations=[str(target)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def prepare(package, batches: list[int]) -> dict:
    """The sum-999 module of ``package`` and one LeafBatch per batch size."""
    problem = package.tasks.build_addition(3, 999)
    module = package.factory.ModuleFactory().module_from_dimacs(problem.cnf)
    lc = module.backend.layered
    rng = np.random.default_rng(SEED)
    rows = {b: rng.uniform(0.02, 0.98, (b, lc.n_inputs)) for b in batches}
    return {"module": module, "batches": {b: package.layered.LeafBatch.from_probabilities(
        r, num_vars=lc.num_vars, aux_vars=lc.aux_vars) for b, r in rows.items()}}


def time_pairs(fns: dict, rounds: int, number: int) -> dict:
    """Mean seconds per call of each side's zero-argument function, one
    entry per round; the sides alternate which goes first."""
    times = {side: [] for side in fns}
    for fn in fns.values():
        fn()  # warm up: layouts and range tables are built on first use
    for r in range(rounds):
        for side in (SIDES if r % 2 == 0 else SIDES[::-1]):
            fn = fns[side]
            t0 = time.perf_counter()
            for _ in range(number):
                fn()
            times[side].append((time.perf_counter() - t0) / number)
    return times


def summarize(times: dict) -> dict:
    """Quartiles in µs per call per side, the ratio of the medians and the
    change's round wins."""
    out = compare(np.array(times["parent"]) * 1e6, np.array(times["change"]) * 1e6)
    out["rounds"] = len(times["parent"])
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="the parent checkout")
    ap.add_argument("--change", type=Path, required=True, help="the change checkout")
    ap.add_argument("--calls", default="semantic_loss_and_grad",
                    help=f"comma-separated, from {', '.join(CALLS)}")
    ap.add_argument("--batches", default="1", help="comma-separated batch sizes")
    ap.add_argument("--rounds", type=int, default=12)
    ap.add_argument("--out", type=Path, default=None, help="write the summary as JSON")
    args = ap.parse_args(argv)

    calls = [c.strip() for c in args.calls.split(",")]
    unknown = sorted(set(calls) - set(CALLS))
    if unknown:
        ap.error(f"unknown calls {unknown}; choose from {', '.join(CALLS)}")
    batches = [int(b) for b in args.batches.split(",")]
    checkouts = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    record = {"cores": os.cpu_count(), "numpy": np.__version__, "rounds": args.rounds,
              "calls": {}}
    with tempfile.TemporaryDirectory() as tmp:
        sides = {}
        for side, checkout in checkouts.items():
            package = load_package(checkout, f"nesycirc_{side}", Path(tmp))
            sides[side] = (package, prepare(package, batches))
        for call in calls:
            for b in batches:
                fns = {side: (lambda nc=nc, fix=fix: CALLS[call](
                    nc, fix["module"], fix["batches"][b])) for side, (nc, fix) in sides.items()}
                fns["change"]()  # the first call builds layouts and tables
                t0 = time.perf_counter()
                fns["change"]()
                number = max(1, int(BUDGET_S / max(time.perf_counter() - t0, 1e-7)))
                summary = summarize(time_pairs(fns, args.rounds, number))
                summary["number"] = number
                record["calls"][f"{call}.b{b}"] = summary
                print(f"{call} b{b}: parent {summary['parent']['median']:.1f} µs, "
                      f"change {summary['change']['median']:.1f} µs "
                      f"({summary['change_over_parent_median']:.3f}x, change won "
                      f"{summary['change_wins']} of {summary['rounds']} rounds)", flush=True)
    if args.out:
        args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
