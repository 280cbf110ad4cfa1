"""The paired-benchmark script in ``scripts/bench_pairs.py``, on synthetic runs."""

import ast
import importlib.util
import json
import subprocess
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "bench_pairs.py"

METRICS = [
    {"name": "step_ms_ref", "unit": "ms", "better": "lower", "bound": 0.2},
    {"name": "circuit_edges", "unit": "count", "better": "lower", "bound": 0.1},
    {"name": "edges_per_s", "unit": "edges/s", "better": "higher", "bound": 0.1},
]


def _load():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _runs(parent_steps, change_steps, workload="modules"):
    runs = []
    for k, (p, c) in enumerate(zip(parent_steps, change_steps)):
        seed = 100 + k
        for side, step in (("parent", p), ("change", c)):
            runs.append({"workload": workload, "seed": seed, "side": side,
                         "pair_first": "parent", "trace": 0, "returncode": 0,
                         "attempted": 50, "failed": 0,
                         "metrics": {"step_ms_ref": step, "circuit_edges": 6516.0,
                                     "edges_per_s": 1000.0 / step}})
    return runs


def test_seed_lists_and_ranges():
    assert _load().parse_seeds("2241-2243, 2250") == [2241, 2242, 2243, 2250]


def test_summary_of_a_clear_gain():
    bp = _load()
    parent = [10.0, 10.2, 9.9, 10.1, 10.0, 10.3, 9.8, 10.0, 10.1, 9.9]
    change = [8.0 + 0.01 * k for k in range(10)]
    summary = bp.summarize(_runs(parent, change), METRICS, "modules")
    assert summary["pairs"] == 10 and summary["seeds"] == list(range(100, 110))
    assert summary["attempted"] == {"parent": 500, "change": 500}
    step = summary["metrics"]["step_ms_ref"]
    q1, median, q3 = np.percentile(parent, [25, 50, 75])
    assert step["parent"] == {"q1": round(q1, 6), "median": round(median, 6),
                              "q3": round(q3, 6)}
    assert step["change_wins"] == 10 and step["ties"] == 0
    assert step["parent_iqr"] == round(q3 - q1, 6)
    assert step["median_gain_exceeds_parent_iqr"] and step["within_bound"]
    # a metric where higher is better wins in the same pairs
    assert summary["metrics"]["edges_per_s"]["change_wins"] == 10
    edges = summary["metrics"]["circuit_edges"]
    assert edges["ties"] == 10 and edges["change_wins"] == 0
    assert edges["change_over_parent_median"] == 1.0 and edges["within_bound"]
    assert bp.claim_met({"modules": summary}, "modules", "step_ms_ref")


def test_claim_needs_nine_wins_in_ten_and_a_gain_past_the_iqr():
    bp = _load()
    parent = [10.0] * 10
    two_losses = [8.0] * 8 + [10.5, 10.5]
    summary = bp.summarize(_runs(parent, two_losses), METRICS, "modules")
    assert summary["metrics"]["step_ms_ref"]["change_wins"] == 8
    assert not bp.claim_met({"modules": summary}, "modules", "step_ms_ref")
    # every pair won, but by less than the parent's spread
    spread = [9.0, 11.0] * 5
    summary = bp.summarize(_runs(spread, [x - 0.1 for x in spread]), METRICS, "modules")
    assert summary["metrics"]["step_ms_ref"]["change_wins"] == 10
    assert not bp.claim_met({"modules": summary}, "modules", "step_ms_ref")


def test_regressions_past_the_bound_and_incomplete_pairs():
    bp = _load()
    runs = _runs([10.0] * 4, [12.5] * 4)
    runs.append({**runs[0], "seed": 999, "side": "parent"})  # a pair with one side
    summary = bp.summarize(runs, METRICS, "modules")
    assert summary["pairs"] == 4
    step = summary["metrics"]["step_ms_ref"]
    assert step["change_over_parent_median"] == 1.25 and not step["within_bound"]
    assert not summary["metrics"]["edges_per_s"]["within_bound"]
    assert bp.summarize(runs, METRICS, "train") == {
        "seeds": [], "pairs": 0, "failed": {"parent": 0, "change": 0},
        "attempted": {"parent": 0, "change": 0}, "metrics": {}}


FAKE_RUN = '''\
import json, sys
args = dict(zip(sys.argv[1::2], sys.argv[2::2]))
step = {side_step} + int(args["--seed"]) % 3
print("the metric table")
print(json.dumps({{"correct": True, "attempted": 7, "failed": 0, "metrics": {{
    "step_ms_ref": {{"value": step, "unit": "ms"}},
    "circuit_edges": {{"value": 10.0, "unit": "count"}}}}}}))
'''


def _git(path, *args) -> str:
    return subprocess.run(["git", "-c", "user.name=bench", "-c", "user.email=bench@example.org",
                           *args], cwd=path, capture_output=True, text=True,
                          check=True).stdout.strip()


def test_script_runs_alternating_pairs_and_writes_the_record(tmp_path):
    """Two fake checkouts whose run.py prints a fixed result line; the
    change is a git checkout at one commit, the parent a plain directory."""
    for side, step in (("parent", 10.0), ("change", 5.0)):
        (tmp_path / side / "nesybench").mkdir(parents=True)
        (tmp_path / side / "nesybench" / "run.py").write_text(FAKE_RUN.format(side_step=step))
    change = tmp_path / "change"
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS[:2]}))
    _git(change, "init", "-q")
    _git(change, "add", "-A")
    _git(change, "commit", "-q", "-m", "fake change")
    out = tmp_path / "BENCH_0.json"
    args = ["--parent", str(tmp_path / "parent"), "--change", str(change),
            "--workloads", "modules", "--seeds", "1-2", "--seconds", "1",
            "--claim", "modules:step_ms_ref", "--out", str(out)]
    assert _load().main(args) == 0
    record = json.loads(out.read_text())
    assert record["host"]["cores"] >= 1 and record["host"]["numpy"] == np.__version__
    assert record["checkouts"] == {"parent": None, "change": {
        "commit": _git(change, "rev-parse", "HEAD"), "dirty": False}}
    assert [(r["seed"], r["side"], r["pair_first"]) for r in record["runs"]] == [
        (1, "parent", "parent"), (1, "change", "parent"),
        (2, "change", "change"), (2, "parent", "change")]
    assert record["runs"][0]["metrics"] == {"step_ms_ref": 11.0, "circuit_edges": 10.0}
    step = record["summary"]["modules"]["metrics"]["step_ms_ref"]
    assert step["change_wins"] == 2 and step["parent"]["median"] == 11.5
    assert record["claim"] == {"workload": "modules", "metric": "step_ms_ref",
                               "better": "lower", "met": True}
    # a tree with an uncommitted change is dirty; a subdirectory is no checkout
    (change / "BENCHMARK.json").write_text(json.dumps({"end_to_end": METRICS}))
    assert _load().main(args) == 0
    assert json.loads(out.read_text())["checkouts"]["change"]["dirty"] is True
    assert _load().checkout_state(change / "nesybench") is None


def test_script_imports_nothing_from_the_benchmark():
    bench = {p.stem for p in (ROOT / "nesybench").glob("*.py")} | {"nesybench"}
    tree = ast.parse(SCRIPT.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not {name.split(".")[0] for name in names} & bench
    assert "sys.path" not in SCRIPT.read_text(encoding="utf-8")
