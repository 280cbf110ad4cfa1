"""End-to-end CLI behavior: outputs, formats, and the exit-code contract."""

import ast
import builtins
import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, seed, settings, strategies as st

from nesycirc import cli
from nesycirc.cli import main
from nesycirc.formula import MAX_VARS, serialize_dimacs
from nesycirc.tasks import build_addition

from test_compiler import OUT_OF_ORDER, UNSMOOTH
from test_formula import EX1

FORMULA = "(A -> B) & (C -> B)"


@pytest.fixture()
def dimacs_file(tmp_path):
    path = tmp_path / "ex1.cnf"
    path.write_text(EX1)
    return str(path)


@pytest.fixture()
def circuit_file(tmp_path, dimacs_file):
    path = tmp_path / "ex1.nnfc"
    assert main(["compile", "--dimacs", dimacs_file, "--out", str(path)]) == 0
    return str(path)


@pytest.fixture()
def weights_file(tmp_path):
    path = tmp_path / "w.csv"
    path.write_text("A,B,C\n0.5,0.5,0.5\n0.9,0.2,0.1\n")
    return str(path)


def _lines(capsys):
    return capsys.readouterr().out.strip().splitlines()


# ---------------------------------------------------------------------------
# compile


def test_compile_reports_size(dimacs_file, tmp_path, capsys):
    out = tmp_path / "c.nnfc"
    assert main(["compile", "--dimacs", dimacs_file, "--out", str(out)]) == 0
    (line,) = _lines(capsys)
    assert line.startswith("nodes ") and " layers " in line
    text = out.read_text()
    assert text.startswith("nnfc 1\n")
    assert "\nc " in text  # the layer summary rides along as comments


def test_compile_long_conjunction(tmp_path, capsys):
    names = [f"x{i}" for i in range(3000)]
    assert main(["compile", "--formula", " & ".join(names), "--names", ",".join(names),
                 "--out", str(tmp_path / "c.nnfc")]) == 0
    assert _lines(capsys) == ["nodes 3001 layers 2"]


def test_compile_from_formula(tmp_path, capsys):
    out = tmp_path / "c.nnfc"
    assert main(["compile", "--formula", FORMULA, "--names", "A,B,C",
                 "--out", str(out)]) == 0
    assert out.exists()


def test_compile_is_deterministic(dimacs_file, tmp_path):
    a, b = tmp_path / "a.nnfc", tmp_path / "b.nnfc"
    main(["compile", "--dimacs", dimacs_file, "--out", str(a)])
    main(["compile", "--dimacs", dimacs_file, "--out", str(b)])
    assert a.read_bytes() == b.read_bytes()


def test_compile_output_does_not_depend_on_hash_seed(tmp_path):
    src = tmp_path / "add.cnf"
    src.write_text(serialize_dimacs(build_addition(2, 99).cnf))
    texts = []
    for seed in ("0", "1"):
        out = tmp_path / f"seed{seed}.nnfc"
        proc = subprocess.run(
            [sys.executable, "-m", "nesycirc", "compile", "--dimacs", str(src), "--out", str(out)],
            capture_output=True, text=True, env={**os.environ, "PYTHONHASHSEED": seed})
        assert proc.returncode == 0, proc.stderr
        texts.append(out.read_bytes())
    assert texts[0] == texts[1]


def test_compile_needs_exactly_one_input(dimacs_file, tmp_path, capsys):
    out = str(tmp_path / "c.nnfc")
    assert main(["compile", "--out", out]) == 1
    assert capsys.readouterr().err.startswith("error[usage]: ")
    assert main(["compile", "--dimacs", dimacs_file, "--formula", "A & B",
                 "--out", out]) == 1


def test_compile_bad_dimacs(tmp_path, capsys):
    bad = tmp_path / "bad.cnf"
    bad.write_text("p cnf 1\n")
    assert main(["compile", "--dimacs", str(bad), "--out",
                 str(tmp_path / "c.nnfc")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error[format]: ") and "bad.cnf" in err


def test_compile_negative_problem_line(tmp_path, capsys):
    bad = tmp_path / "neg.cnf"
    bad.write_text("p cnf -1 2\n")
    assert main(["compile", "--dimacs", str(bad), "--out", str(tmp_path / "c.nnfc")]) == 2
    assert capsys.readouterr().err == (f"error[format]: {bad}: line 1: "
                                       f"malformed problem line 'p cnf -1 2'\n")


@pytest.mark.parametrize("formula, err", [
    ("a & #", "position 4: unexpected character '#'"),
    ("a &", "position 3: unexpected end of input"),
    ("(a & b", "position 6: expected ')', got end of input"),
])
def test_compile_malformed_formula(formula, err, tmp_path, capsys):
    assert main(["compile", "--formula", formula, "--names", "a,b",
                 "--out", str(tmp_path / "c.nnfc")]) == 2
    assert capsys.readouterr().err == f"error[format]: {err}\n"


def test_compile_refuses_absurd_variable_count(tmp_path, capsys):
    """Smoothing would pad every declared variable; the problem line fails
    at once instead."""
    bad = tmp_path / "big.cnf"
    bad.write_text("p cnf 20000000 1\n1 0\n")
    assert main(["compile", "--dimacs", str(bad), "--out", str(tmp_path / "c.nnfc")]) == 2
    assert capsys.readouterr().err == (f"error[format]: {bad}: line 1: 20000000 "
                                       f"variables exceed the limit of {MAX_VARS}\n")


def test_compile_formula_needs_names(tmp_path, capsys):
    assert main(["compile", "--formula", "A & B",
                 "--out", str(tmp_path / "c.nnfc")]) == 1
    assert "--names" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval


def test_eval_recursive_default(circuit_file, weights_file, capsys):
    assert main(["eval", "--circuit", circuit_file,
                 "--weights", weights_file]) == 0
    assert _lines(capsys) == ["0.625", "0.272"]


def test_eval_log_semantics(circuit_file, weights_file, capsys):
    assert main(["eval", "--circuit", circuit_file, "--weights", weights_file,
                 "--semantics", "log"]) == 0
    got = [float(x) for x in _lines(capsys)]
    # 12 significant digits of output precision bound the round-trip error
    assert got == pytest.approx(np.log([0.625, 0.272]), rel=1e-11)


def test_eval_boolean_semantics(circuit_file, tmp_path, capsys):
    w = tmp_path / "wb.csv"
    w.write_text("A,B,C\n1,1,0\n1,0,0\n")
    assert main(["eval", "--circuit", circuit_file, "--weights", str(w),
                 "--semantics", "boolean"]) == 0
    assert _lines(capsys) == ["1", "0"]


def test_eval_fuzzy_formula(weights_file, capsys):
    assert main(["eval", "--formula", FORMULA, "--names", "A,B,C",
                 "--weights", weights_file,
                 "--semantics", "fuzzy_product"]) == 0
    got = [float(x) for x in _lines(capsys)]
    assert got == pytest.approx([0.75 * 0.75, 0.28 * 0.92])


def test_eval_deeply_parenthesised_formula_fails_closed(weights_file, capsys):
    formula = "(" * 400 + "A" + ")" * 400 + " & B & C"
    assert main(["eval", "--formula", formula, "--names", "A,B,C",
                 "--weights", weights_file, "--semantics", "fuzzy_product"]) == 2
    assert capsys.readouterr().err == \
        "error[format]: position 100: parentheses nested deeper than 100\n"


def test_eval_fuzzy_rejects_circuit(circuit_file, weights_file, capsys):
    assert main(["eval", "--circuit", circuit_file, "--weights", weights_file,
                 "--semantics", "fuzzy_godel"]) == 3
    assert capsys.readouterr().err == \
        "error[semantic]: fuzzy semantics require formula input\n"


def test_eval_circuit_semantics_need_circuit(weights_file, capsys):
    assert main(["eval", "--weights", weights_file]) == 1
    assert "pass --circuit" in capsys.readouterr().err


def test_eval_column_mismatch(circuit_file, tmp_path, capsys):
    w = tmp_path / "w2.csv"
    w.write_text("A,B\n0.5,0.5\n")
    assert main(["eval", "--circuit", circuit_file, "--weights", str(w)]) == 2
    assert "2 weight columns for a circuit with 3" in capsys.readouterr().err


def test_eval_missing_weight_file(circuit_file, capsys):
    assert main(["eval", "--circuit", circuit_file,
                 "--weights", "/no/such/file.csv"]) == 2
    assert capsys.readouterr().err.startswith("error[format]: cannot read")


def test_eval_carrier_error_prints_plain_float(circuit_file, tmp_path, capsys):
    w = tmp_path / "wbad.csv"
    w.write_text("A,B,C\n1.5,0.5,0.5\n")
    assert main(["eval", "--circuit", circuit_file, "--weights", str(w)]) == 3
    assert capsys.readouterr().err == \
        "error[semantic]: batch row 0, variable 1: value 1.5 outside [0, 1]\n"


def test_eval_unknown_semantics(circuit_file, weights_file, capsys):
    assert main(["eval", "--circuit", circuit_file, "--weights", weights_file,
                 "--semantics", "zadeh"]) == 3
    assert "unknown structure tag" in capsys.readouterr().err


def test_consecutive_calls_parse_like_fresh_ones(circuit_file, weights_file, tmp_path, capsys):
    """One parser serves every call; no call sees another's options."""
    assert cli._build_parser() is cli._build_parser()
    assert main(["eval", "--circuit", circuit_file, "--weights", weights_file,
                 "--semantics", "log"]) == 0
    assert _lines(capsys) == [f"{np.log(v):.12g}" for v in (0.625, 0.272)]
    assert main(["eval", "--circuit", circuit_file, "--weights", weights_file]) == 0
    assert _lines(capsys) == ["0.625", "0.272"]  # the default semantics again
    assert main(["eval", "--weights", weights_file]) == 1  # --circuit is not carried over
    assert "pass --circuit" in capsys.readouterr().err
    assert main(["grad", "--circuit", circuit_file, "--weights", "/no/such/file.csv"]) == 2
    assert capsys.readouterr().err.startswith("error[format]: cannot read")
    assert main(["eval", "--circuit", circuit_file, "--weights", weights_file,
                 "--semantics", "zadeh"]) == 3
    assert "unknown structure tag" in capsys.readouterr().err
    assert main(["grad", "--circuit", circuit_file, "--weights", weights_file]) == 0
    assert _lines(capsys) == ["-0.25 0.75 -0.25", "-0.72 0.91 -0.08"]
    assert main(["compile", "--formula", FORMULA, "--names", "A,B,C",
                 "--out", str(tmp_path / "f.nnfc")]) == 0
    assert _lines(capsys)[0].startswith("nodes ")


# ---------------------------------------------------------------------------
# grad


def test_grad_probability(circuit_file, weights_file, capsys):
    assert main(["grad", "--circuit", circuit_file,
                 "--weights", weights_file]) == 0
    rows = [[float(x) for x in ln.split()] for ln in _lines(capsys)]
    assert rows[0] == pytest.approx([-0.25, 0.75, -0.25])


def test_grad_log(circuit_file, weights_file, capsys):
    assert main(["grad", "--circuit", circuit_file, "--weights", weights_file,
                 "--semantics", "log"]) == 0
    first = [float(x) for x in _lines(capsys)[0].split()]
    assert first == pytest.approx([-0.4, 1.2, -0.4])


def test_grad_boolean_refused(circuit_file, weights_file, capsys):
    assert main(["grad", "--circuit", circuit_file, "--weights", weights_file,
                 "--semantics", "boolean"]) == 3
    assert "not differentiable" in capsys.readouterr().err


def test_grad_fuzzy_formula(tmp_path, capsys):
    w = tmp_path / "w.csv"
    w.write_text("A,B,C\n0.9,0.2,0.1\n")
    assert main(["grad", "--formula", FORMULA, "--names", "A,B,C",
                 "--weights", str(w), "--semantics", "fuzzy_godel"]) == 0
    (line,) = _lines(capsys)
    assert line == "0 1 0"


# ---------------------------------------------------------------------------
# loss


def test_loss_rows_and_mean(circuit_file, weights_file, capsys):
    assert main(["loss", "--circuit", circuit_file,
                 "--weights", weights_file]) == 0
    lines = _lines(capsys)
    per_row = [float(x) for x in lines[:-1]]
    assert per_row == pytest.approx([-np.log(0.625), -np.log(0.272)], rel=1e-10)
    assert lines[-1].startswith("mean ")
    assert float(lines[-1].split()[1]) == pytest.approx(np.mean(per_row), rel=1e-10)


# ---------------------------------------------------------------------------
# check


def test_check_ok(circuit_file, capsys):
    assert main(["check", "--circuit", circuit_file]) == 0
    assert _lines(capsys) == ["decomposable: ok", "deterministic: ok", "smooth: ok"]


def test_check_smoothness_failure(tmp_path, capsys):
    rough = tmp_path / "rough.nnfc"
    rough.write_text(UNSMOOTH)
    assert main(["check", "--circuit", str(rough)]) == 3
    out, err = capsys.readouterr()
    lines = out.strip().splitlines()
    assert "decomposable: ok" in lines and "deterministic: ok" in lines
    assert any(ln.startswith("smooth: fail (nodes ") for ln in lines)
    assert err == "error[semantic]: circuit violates smooth\n"


def test_check_rejects_corrupt_file(tmp_path, capsys):
    bad = tmp_path / "bad.nnfc"
    bad.write_text("not a circuit\n")
    assert main(["check", "--circuit", str(bad)]) == 2
    assert "missing 'nnfc 1' header" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["eval", "grad", "loss"])
def test_commands_refuse_unsmoothed_circuit(command, tmp_path, weights_file, capsys):
    rough = tmp_path / "rough.nnfc"
    rough.write_text(UNSMOOTH)
    assert main([command, "--circuit", str(rough), "--weights", weights_file]) == 3
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error[semantic]: circuit violates smooth (nodes ")


def test_check_rejects_malformed_node_record(tmp_path, capsys):
    bad = tmp_path / "bad.nnfc"
    bad.write_text("nnfc 1\nnvars 1\naux\nnnodes 1\nroot 0\nnode 0 LIT\n")
    assert main(["check", "--circuit", str(bad)]) == 2
    assert capsys.readouterr().err == \
        f"error[format]: {bad}: malformed node record 'node 0 LIT'\n"


def test_check_rejects_aux_outside_variable_range(tmp_path, capsys):
    bad = tmp_path / "bad.nnfc"
    bad.write_text("nnfc 1\nnvars 2\naux 7\nnnodes 1\nroot 0\nnode 0 TRUE\n")
    assert main(["check", "--circuit", str(bad)]) == 2
    assert capsys.readouterr().err == (f"error[format]: {bad}: auxiliary variables "
                                       "must occupy the top of the id range\n")


def test_check_refuses_absurd_variable_count(tmp_path, capsys):
    bad = tmp_path / "big.nnfc"
    bad.write_text("nnfc 1\nnvars 20000000\naux\nnnodes 1\nroot 0\nnode 0 LIT 1\n")
    assert main(["check", "--circuit", str(bad)]) == 2
    assert capsys.readouterr().err == (f"error[format]: {bad}: 20000000 variables "
                                       f"exceed the limit of {MAX_VARS}\n")


def test_deep_and_chain_circuit(tmp_path, capsys):
    # OR on variable 1 over a chain of 3000 one-child ANDs ending in LIT 1,
    # and LIT -1: valid, but deeper than the interpreter's recursion limit
    depth = 3000
    lines = ["nnfc 1", "nvars 1", "aux", f"nnodes {depth + 3}", f"root {depth + 2}",
             "node 0 LIT 1"]
    lines += [f"node {i} AND {i - 1}" for i in range(1, depth + 1)]
    lines += [f"node {depth + 1} LIT -1", f"node {depth + 2} OR 1 {depth} {depth + 1}"]
    path = tmp_path / "deep.nnfc"
    path.write_text("\n".join(lines) + "\n")
    w = tmp_path / "w1.csv"
    w.write_text("A\n0.3\n")
    assert main(["check", "--circuit", str(path)]) == 0
    assert _lines(capsys) == ["decomposable: ok", "deterministic: ok", "smooth: ok"]
    assert main(["eval", "--circuit", str(path), "--weights", str(w)]) == 0
    assert _lines(capsys) == ["1"]
    assert main(["grad", "--circuit", str(path), "--weights", str(w)]) == 0
    assert _lines(capsys) == ["0"]


# ---------------------------------------------------------------------------
# inspect


def _save_demo_manifest(path):
    from nesycirc.compose import SymTensor, save_manifest, wire_dag
    from nesycirc.compose import AnnotatedModule
    a = AnnotatedModule("a_sq", (SymTensor(("x",)),), (SymTensor(("a",)),),
                        lambda x: x * x)
    b = AnnotatedModule("join", (SymTensor(("a",)),),
                        (SymTensor(("o",), "log"),), lambda v: np.log(v))
    save_manifest(wire_dag([a, b], [SymTensor(("x",))], name="demo"), path)


def test_inspect_pretty_prints(tmp_path, capsys):
    path = tmp_path / "demo.manifest"
    _save_demo_manifest(path)
    assert main(["inspect", "--manifest", str(path)]) == 0
    lines = _lines(capsys)
    assert lines[0] == "manifest demo"
    assert "external input 0: x [probability]" in lines
    assert "module a_sq: x -> a" in lines
    assert "stage 0: a_sq" in lines
    assert "output join[0]: o [log_probability]" in lines


def test_inspect_bad_manifest(tmp_path, capsys):
    path = tmp_path / "bad.manifest"
    path.write_text("hello\n")
    assert main(["inspect", "--manifest", str(path)]) == 2
    assert "missing 'manifest 1' header" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# Unreadable, malformed and unwritable files


CHILDLESS = "nnfc 1\nnvars 3\naux\nnnodes 1\nroot 0\nnode 0 AND\n"


@pytest.mark.parametrize("command", ["check", "eval", "grad", "loss"])
def test_childless_and_fails_at_load(command, tmp_path, weights_file, capsys):
    bad = tmp_path / "bad.nnfc"
    bad.write_text(CHILDLESS)
    argv = [command, "--circuit", str(bad)]
    assert main(argv if command == "check" else argv + ["--weights", weights_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error[format]: {bad}: node 0: AND without children\n"


@pytest.mark.parametrize("command", ["check", "eval"])
@pytest.mark.parametrize("name, node, child", [
    ("self", 0, 0), ("forward", 1, 2), ("cycle", 0, 1)])
def test_out_of_order_nodes_fail_at_load(command, name, node, child, tmp_path,
                                         weights_file, capsys):
    bad = tmp_path / "bad.nnfc"
    bad.write_text(OUT_OF_ORDER[name])
    argv = [command, "--circuit", str(bad)]
    assert main(argv if command == "check" else argv + ["--weights", weights_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error[format]: {bad}: node {node}: child {child} not topologically earlier\n"


@pytest.mark.parametrize("text, err", [
    ("nnfc 1\nnvars 1\naux\nnnodes 0\nroot 0\n", "a circuit needs at least one node"),
    ("nnfc 1\nnvars 1\naux\nnnodes 2\nroot 1\nnode 1 LIT 1\nnode 0 LIT -1\n",
     "node ids must be dense and in order, got 1"),
    ("nnfc 1\nnvars x\naux\nnnodes 1\nroot 0\nnode 0 LIT 1\n", "malformed header value"),
], ids=["no-nodes", "ids-out-of-order", "bad-nvars"])
def test_eval_malformed_circuit_fails_at_load(text, err, tmp_path, weights_file, capsys):
    bad = tmp_path / "bad.nnfc"
    bad.write_text(text)
    assert main(["eval", "--circuit", str(bad), "--weights", weights_file]) == 2
    out, got = capsys.readouterr()
    assert out == ""
    assert got == f"error[format]: {bad}: {err}\n"


@pytest.mark.parametrize("command", [
    ["compile", "--dimacs", "{bad}", "--out", "{tmp}/c.nnfc"],
    ["check", "--circuit", "{bad}"],
    ["eval", "--circuit", "{circuit}", "--weights", "{bad}"],
    ["inspect", "--manifest", "{bad}"],
], ids=["dimacs", "circuit", "weights", "manifest"])
def test_non_utf8_input_is_malformed(command, circuit_file, tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"caf\xe9\n")
    assert main([a.format(bad=bad, tmp=tmp_path, circuit=circuit_file) for a in command]) == 2
    assert capsys.readouterr().err == (
        f"error[format]: {bad}: 'utf-8' codec can't decode byte 0xe9 in position 3: "
        "invalid continuation byte\n")


def test_weight_field_past_the_csv_limit_is_malformed(circuit_file, tmp_path, capsys):
    w = tmp_path / "w.csv"
    w.write_text("A,B,C\n" + "1" * 200_000 + ",0,0\n")
    assert main(["eval", "--circuit", circuit_file, "--weights", str(w)]) == 2
    assert capsys.readouterr().err == \
        f"error[format]: {w}: field larger than field limit (131072)\n"


@pytest.mark.parametrize("out", ["", "missing/c.nnfc"], ids=["directory", "missing-folder"])
def test_compile_to_unwritable_path(out, dimacs_file, tmp_path, capsys):
    dst = tmp_path / out
    assert main(["compile", "--dimacs", dimacs_file, "--out", str(dst)]) == 2
    assert capsys.readouterr().err.startswith(f"error[format]: cannot write {dst}: ")


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """One valid file of each kind the CLI reads."""
    d = tmp_path_factory.mktemp("fuzz")
    (d / "ex1.cnf").write_text(EX1)
    assert main(["compile", "--dimacs", str(d / "ex1.cnf"), "--out", str(d / "ex1.nnfc")]) == 0
    (d / "w.csv").write_text("A,B,C\n0.5,0.5,0.5\n0.9,0.2,0.1\n")
    _save_demo_manifest(d / "demo.manifest")
    return d


# each kind's valid file, and the commands that read a mutated copy of it
FUZZ_RUNS = {
    "ex1.cnf": [["compile", "--dimacs", "{mutated}", "--out", "{dir}/out.nnfc"]],
    "ex1.nnfc": [["check", "--circuit", "{mutated}"],
                 ["eval", "--circuit", "{mutated}", "--weights", "{dir}/w.csv"]],
    "w.csv": [["grad", "--circuit", "{dir}/ex1.nnfc", "--weights", "{mutated}"]],
    "demo.manifest": [["inspect", "--manifest", "{mutated}"]],
}


def _mutate(data, text):
    """Byte edits (non-UTF-8 bytes included), a truncation, or a line shuffle."""
    how = data.draw(st.sampled_from(["bytes", "truncate", "shuffle"]))
    if how == "truncate":
        return text[:data.draw(st.integers(0, len(text) - 1))]
    if how == "shuffle":
        return b"\n".join(data.draw(st.permutations(text.split(b"\n"))))
    out = bytearray(text)
    for _ in range(data.draw(st.integers(1, 4))):
        at = data.draw(st.integers(0, len(out) - 1))
        out[at] = data.draw(st.sampled_from(b"0123456789 -\n\x80\xe9\xff") | st.integers(0, 255))
    return bytes(out)


@pytest.mark.parametrize("name", sorted(FUZZ_RUNS))
@seed(1616)
@settings(max_examples=60)
@given(data=st.data())
def test_mutated_files_fail_closed(name, fuzz_dir, data):
    """``main`` never raises on a mutated input file: it exits 0, 2 or 3
    with at most one diagnostic line, and a file that is not UTF-8 is
    malformed, named once in the message."""
    text = _mutate(data, (fuzz_dir / name).read_bytes())
    path = fuzz_dir / f"mutated-{name}"
    path.write_bytes(text)
    try:
        text.decode("utf-8")
        utf8 = True
    except UnicodeDecodeError:
        utf8 = False
    for argv in FUZZ_RUNS[name]:
        argv = [a.format(mutated=path, dir=fuzz_dir) for a in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        err = err.getvalue()
        assert code in (0, 2, 3)
        assert err.count("\n") == (code != 0)
        assert err.startswith({0: "", 2: "error[format]: ", 3: "error[semantic]: "}[code])
        assert err.count(str(path)) <= 1
        if not utf8:
            assert code == 2 and err.count(str(path)) == 1


def test_cli_maps_os_errors_in_one_loader_and_one_writer():
    """Only ``_load`` (reading) and ``_cmd_compile`` (writing ``--out``)
    may catch ``OSError``, under any of its names or bases."""
    catches_os = {name for name, v in vars(builtins).items()
                  if isinstance(v, type) and issubclass(v, BaseException)
                  and (issubclass(v, OSError) or issubclass(OSError, v))}
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    owner = {}
    for fn in ast.walk(tree):  # breadth first: outer functions claim their nodes first
        if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for node in ast.walk(fn):
                owner.setdefault(id(node), fn.name)
    handlers = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler):
            names = ({n.id for n in ast.walk(node.type) if isinstance(n, ast.Name)}
                     if node.type else {"BaseException"})
            if names & catches_os:
                handlers.append(owner.get(id(node), "<module>"))
    assert sorted(handlers) == ["_cmd_compile", "_load"]


# ---------------------------------------------------------------------------
# bench


def test_bench_runs(capsys):
    assert main(["bench", "--task", "addition", "--digits", "1",
                 "--batch", "4", "--reps", "1"]) == 0
    out = capsys.readouterr().out
    assert "addition benchmark: digits=1 sum=9 reps=1" in out
    assert "layered   batch-4" in out


def test_bench_guards(capsys):
    assert main(["bench", "--task", "addition", "--digits", "4",
                 "--batch", "1", "--reps", "1"]) == 0
    (line,) = [ln for ln in _lines(capsys) if ln.startswith("oracle spot-check")]
    assert float(line.split()[-1]) < 1e-9
    assert main(["bench", "--task", "addition", "--digits", "1",
                 "--batch", "x"]) == 1
    assert main(["bench", "--task", "sudoku", "--digits", "1"]) == 1


@pytest.mark.parametrize("argv, code, err", [
    (["bench", "--task", "addition", "--digits", "1", "--batch", ","], 1,
     "error[usage]: --batch needs at least one size\n"),
    (["bench", "--task", "addition", "--digits", "9"], 1,
     "error[usage]: n_digits must be in [1, 4], got 9\n"),
    (["eval", "--semantics", "fuzzy_product", "--weights", "{w}"], 1,
     "error[usage]: this semantics requires --formula\n"),
    (["eval", "--semantics", "fuzzy_product", "--formula", "a & b", "--names", "a,b",
      "--weights", "{w}"], 2, "error[format]: {w}: 3 weight columns for 2 declared names\n"),
], ids=["empty-batch", "digits", "fuzzy-without-formula", "weight-columns"])
def test_documented_usage_errors(argv, code, err, weights_file, capsys):
    assert main([a.format(w=weights_file) for a in argv]) == code
    out, got = capsys.readouterr()
    assert out == "" and got == err.format(w=weights_file)


# ---------------------------------------------------------------------------
# Entry-point plumbing


def test_no_subcommand(capsys):
    assert main([]) == 1
    assert "subcommand is required" in capsys.readouterr().err


def test_unknown_subcommand(capsys):
    assert main(["transmogrify"]) == 1
    assert capsys.readouterr().err.startswith("error[usage]: ")


def test_unknown_flag(capsys):
    assert main(["check", "--circuit", "x", "--frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("error[usage]: ")


def test_version(capsys):
    from nesycirc import __version__
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.strip() == f"nesycirc {__version__}"


def test_module_entry_point():
    proc = subprocess.run([sys.executable, "-m", "nesycirc", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("nesycirc ")
