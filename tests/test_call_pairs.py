"""The interleaved call-timing script in ``scripts/call_pairs.py``, run on
two copies of this checkout."""

import ast
import importlib.util
import json
import sys
from pathlib import Path

import numpy as np

import nesycirc

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "call_pairs.py"


def _load(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPT.parent))  # it imports bench_pairs beside it
    spec = importlib.util.spec_from_file_location("call_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_script_times_both_checkouts_under_their_own_names(tmp_path, monkeypatch):
    cp = _load(monkeypatch)
    monkeypatch.setattr(cp, "BUDGET_S", 1e-4)  # a call or two per round
    out = tmp_path / "calls.json"
    try:
        assert cp.main(["--parent", str(ROOT), "--change", str(ROOT),
                        "--calls", "semantic_loss_and_grad,evaluate.log", "--batches", "1,3",
                        "--rounds", "3", "--out", str(out)]) == 0
        parent, change = sys.modules["nesycirc_parent"], sys.modules["nesycirc_change"]
        assert parent is not change and nesycirc not in (parent, change)
        assert parent.layered.evaluate is not change.layered.evaluate
        assert Path(change.__file__).parent.name == "nesycirc_change"
    finally:
        for key in [k for k in sys.modules if k.startswith(("nesycirc_parent", "nesycirc_change"))]:
            del sys.modules[key]
    record = json.loads(out.read_text())
    assert record["numpy"] == np.__version__ and record["rounds"] == 3
    assert sorted(record["calls"]) == ["evaluate.log.b1", "evaluate.log.b3",
                                       "semantic_loss_and_grad.b1", "semantic_loss_and_grad.b3"]
    for summary in record["calls"].values():
        assert summary["rounds"] == 3 and summary["number"] >= 1
        assert 0 <= summary["change_wins"] <= 3
        for side in ("parent", "change"):
            q = summary[side]
            assert 0.0 < q["q1"] <= q["median"] <= q["q3"]


def test_summary_of_interleaved_rounds(monkeypatch):
    summary = _load(monkeypatch).summarize({"parent": [2e-6, 3e-6, 4e-6], "change": [1e-6, 4e-6, 2e-6]})
    assert summary["parent"] == {"q1": 2.5, "median": 3.0, "q3": 3.5}
    assert summary["change"]["median"] == 2.0
    assert summary["change_wins"] == 2 and summary["rounds"] == 3
    assert summary["change_over_parent_median"] == round(2.0 / 3.0, 4)


def test_script_imports_nothing_from_the_benchmark():
    bench = {p.stem for p in (ROOT / "nesybench").glob("*.py")} | {"nesybench"}
    tree = ast.parse(SCRIPT.read_text(encoding="utf-8"))
    names = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
             for alias in node.names]
    names += [node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)]
    assert not {name.split(".")[0] for name in names} & bench


def test_module_call_is_the_one_row_call_of_a_descend_step(tmp_path, monkeypatch):
    """``module_call`` calls the module on a 1-D row at batch 1, as the
    benchmark's descend step does after each semantic_loss_and_grad, and
    on the rows of a larger batch; both checkouts time it under its name."""
    cp = _load(monkeypatch)
    prepared = cp.prepare(nesycirc, [1, 3])
    m = prepared["module"]
    for b, batch in prepared["batches"].items():
        got = cp.CALLS["module_call"](nesycirc, m, batch)
        want = nesycirc.layered.evaluate(m.backend.layered, batch)
        assert np.array_equal(np.reshape(got, -1), want[:1] if b == 1 else want)
    monkeypatch.setattr(cp, "BUDGET_S", 1e-4)
    out = tmp_path / "calls.json"
    try:
        assert cp.main(["--parent", str(ROOT), "--change", str(ROOT), "--calls", "module_call",
                        "--batches", "1", "--rounds", "2", "--out", str(out)]) == 0
    finally:
        for key in [k for k in sys.modules if k.startswith(("nesycirc_parent", "nesycirc_change"))]:
            del sys.modules[key]
    assert sorted(json.loads(out.read_text())["calls"]) == ["module_call.b1"]
