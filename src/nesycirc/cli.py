"""Command-line surface: compile, evaluate, differentiate, and inspect.

Subcommands wrap the library thinly; outputs match calling the underlying
operations directly with the same inputs and seed. Results go to stdout
at 12 significant digits, diagnostics to stderr as a single line with a
machine-parsable prefix: ``error[usage]:`` (exit 1), ``error[format]:``
(exit 2), or ``error[semantic]:`` (exit 3).

Every input file goes through ``_load``: a file that cannot be read, is
not UTF-8, or does not parse exits 2 with a message naming it. The one
output file, ``compile --out``, exits 2 with ``cannot write`` when it
cannot be written. Any other library error exits 3.
"""

from __future__ import annotations

import argparse
import csv
import functools
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .compiler import check_properties, compile_cnf, load_circuit, save_circuit
from .compose import load_manifest
from .errors import (CircuitError, CompositionError, DimacsError, FormulaError,
                     NesycircError, StructureError)
from .formula import make_name_table, parse_dimacs, parse_formula, to_cnf, to_nnf
from .layered import LeafBatch, backward, evaluate, layer_summary, layerize
from .semantics import evaluate_fuzzy, fuzzy_value_and_grad, get_structure
from .tasks import bench, read_weight_rows

_FMT = "{:.12g}".format


class _UsageError(Exception):
    pass


class _FormatError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems through our exit-code scheme."""

    def error(self, message):
        raise _UsageError(message)


@functools.cache
def _build_parser() -> _Parser:
    """The command-line parser, built once per process.

    Parsing keeps no state on the parser: each call fills a fresh
    namespace from the defaults declared here.
    """
    parser = _Parser(prog="nesycirc", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"nesycirc {__version__}")
    sub = parser.add_subparsers(dest="subcommand", metavar="SUBCOMMAND")

    p = sub.add_parser("compile", help="compile a constraint into a circuit file")
    p.add_argument("--dimacs", metavar="FILE", help="DIMACS CNF input")
    p.add_argument("--formula", metavar="TEXT", help="formula text input")
    p.add_argument("--names", metavar="A,B,...", help="variable names for --formula, "
                   "in id order")
    p.add_argument("--out", metavar="FILE", required=True, help="circuit output path")
    p.set_defaults(func=_cmd_compile)

    p = sub.add_parser("eval", help="evaluate weight rows, one value per row")
    p.add_argument("--circuit", metavar="FILE")
    p.add_argument("--formula", metavar="TEXT", help="formula text (fuzzy semantics)")
    p.add_argument("--names", metavar="A,B,...")
    p.add_argument("--weights", metavar="FILE", required=True)
    p.add_argument("--semantics", default="probability", metavar="TAG")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("grad", help="per-variable gradients, one row per weight row")
    p.add_argument("--circuit", metavar="FILE")
    p.add_argument("--formula", metavar="TEXT", help="formula text (fuzzy semantics)")
    p.add_argument("--names", metavar="A,B,...")
    p.add_argument("--weights", metavar="FILE", required=True)
    p.add_argument("--semantics", default="probability", metavar="TAG")
    p.set_defaults(func=_cmd_grad)

    p = sub.add_parser("loss", help="semantic loss per row plus the mean")
    p.add_argument("--circuit", metavar="FILE", required=True)
    p.add_argument("--weights", metavar="FILE", required=True)
    p.set_defaults(func=_cmd_loss)

    p = sub.add_parser("check", help="verify structural circuit properties")
    p.add_argument("--circuit", metavar="FILE", required=True)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("inspect", help="pretty-print a composition manifest")
    p.add_argument("--manifest", metavar="FILE", required=True)
    p.set_defaults(func=_cmd_inspect)

    p = sub.add_parser("bench", help="time recursive vs layered evaluation")
    p.add_argument("--task", required=True, choices=["addition"])
    p.add_argument("--digits", type=int, required=True, metavar="N")
    p.add_argument("--batch", default="1024", metavar="B[,B...]",
                   help="batch size or comma-separated sizes (default 1024)")
    p.add_argument("--reps", type=int, default=5, metavar="R")
    p.add_argument("--seed", type=int, default=42)
    p.set_defaults(func=_cmd_bench)
    return parser


# ---------------------------------------------------------------------------
# Input loading


def _load(path, load, *errors):
    """``load(path)``, with every failure to read or parse the file an
    ``error[format]`` that names it once.

    ``errors`` are the loader's own exception types; a message that
    already starts with the path (as ``read_weight_rows`` writes them)
    is not prefixed again.
    """
    try:
        return load(path)
    except OSError as exc:
        raise _FormatError(f"cannot read {path}: {exc.strerror or exc}") from None
    except (UnicodeDecodeError, *errors) as exc:
        msg = str(exc)
        raise _FormatError(msg if msg.startswith(str(path)) else f"{path}: {msg}") from None


def _formula_from_args(args):
    if not args.formula:
        raise _UsageError("this semantics requires --formula")
    if not args.names:
        raise _UsageError("--formula requires --names (variable names in id order)")
    try:
        table = make_name_table([n.strip() for n in args.names.split(",")])
        return parse_formula(args.formula, table), len(table)
    except FormulaError as exc:
        raise _FormatError(str(exc)) from None


def _inputs(args, s):
    """Load the weight rows and what they are evaluated on under ``s``.

    A fuzzy structure gets the NNF of ``--formula`` and the rows as they
    are; a circuit-safe one gets the layered ``--circuit`` (``layerize``
    refuses a non-smooth file) and the rows as a probability batch.
    """
    _, rows = _load(args.weights, read_weight_rows, ValueError, csv.Error)
    if not s.circuit_safe:
        if args.circuit:
            raise StructureError("fuzzy semantics require formula input")
        f, n = _formula_from_args(args)
        if rows.shape[1] != n:
            raise _FormatError(f"{args.weights}: {rows.shape[1]} weight columns "
                               f"for {n} declared names")
        return to_nnf(f), rows
    if not args.circuit:
        raise _UsageError(f"semantics {s.name!r} evaluates circuits; pass --circuit")
    lc = layerize(_load(args.circuit, load_circuit, CircuitError))
    if rows.shape[1] != lc.n_inputs:
        raise _FormatError(f"{args.weights}: {rows.shape[1]} weight columns for a circuit "
                           f"with {lc.n_inputs} input variables")
    return lc, LeafBatch.from_probabilities(rows, num_vars=lc.num_vars, aux_vars=lc.aux_vars)


# ---------------------------------------------------------------------------
# Subcommands


def _cmd_compile(args) -> int:
    if bool(args.dimacs) == bool(args.formula):
        raise _UsageError("exactly one of --dimacs or --formula is required")
    if args.dimacs:
        cnf = _load(args.dimacs, lambda p: parse_dimacs(Path(p).read_text("utf-8")),
                    DimacsError)
    else:
        f, _ = _formula_from_args(args)
        cnf = to_cnf(to_nnf(f))
    circuit = compile_cnf(cnf)
    lc = layerize(circuit)
    try:
        save_circuit(circuit, args.out, comments=layer_summary(lc).splitlines())
    except OSError as exc:
        raise _FormatError(f"cannot write {args.out}: {exc.strerror or exc}") from None
    print(f"nodes {len(circuit.nodes)} layers {len(lc.layers)}")
    return 0


def _cmd_eval(args) -> int:
    s = get_structure(args.semantics)
    on, data = _inputs(args, s)
    values = evaluate(on, data, s) if s.circuit_safe else evaluate_fuzzy(on, s, data)
    for v in np.atleast_1d(values):
        print(_FMT(v))
    return 0


def _cmd_grad(args) -> int:
    s = get_structure(args.semantics)
    if not s.differentiable:
        raise StructureError(f"structure {s.name!r} is not differentiable")
    on, data = _inputs(args, s)
    grads = backward(on, data, s) if s.circuit_safe else fuzzy_value_and_grad(on, s, data)[1]
    for row in np.atleast_2d(grads):
        print(" ".join(_FMT(g) for g in row))
    return 0


def _cmd_loss(args) -> int:
    s = get_structure("log_probability")
    lc, batch = _inputs(args, s)
    per_row = -evaluate(lc, batch, s)
    for v in per_row:
        print(_FMT(v))
    print(f"mean {_FMT(np.mean(per_row))}")
    return 0


def _cmd_check(args) -> int:
    c = _load(args.circuit, load_circuit, CircuitError)
    report = check_properties(c)
    failed = []
    for prop in ("decomposable", "deterministic", "smooth"):
        if getattr(report, prop):
            print(f"{prop}: ok")
        else:
            nodes = " ".join(str(i) for i in report.violations[prop])
            print(f"{prop}: fail (nodes {nodes})")
            failed.append(prop)
    if failed:
        print(f"error[semantic]: circuit violates {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


_RECORD_STYLES = {
    "external": lambda r: f"external input {r[1]}: {r[2]} [{r[3]}]",
    "module": lambda r: f"module {r[1]}: {r[2] or '(none)'} -> {r[3]}",
    "edge": lambda r: f"  edge {r[1]} -> {r[3]}: {r[4]}",
    "transform": lambda r: f"  transform {r[1]} -> {r[3]} into {r[4]}",
    "reshape": lambda r: f"  reshape {r[1]}: source columns {r[2]}",
    "connective": lambda r: f"  connective {r[1]} -> {r[2]}",
    "group": lambda r: f"stage {r[1]}: {' '.join(r[2:])}",
    "output": lambda r: f"output {r[1]}: {r[2]} [{r[3]}]",
}


def _cmd_inspect(args) -> int:
    manifest = _load(args.manifest, load_manifest, CompositionError)
    print(f"manifest {manifest.name}")
    for record in manifest.records:
        style = _RECORD_STYLES.get(record[0])
        try:
            line = style(record) if style else " ".join(record)
        except IndexError:
            line = " ".join(record)
        print(line)
    return 0


def _cmd_bench(args) -> int:
    try:
        sizes = [int(b) for b in args.batch.split(",") if b.strip()]
    except ValueError:
        raise _UsageError(f"--batch takes an int or comma-separated ints, "
                          f"got {args.batch!r}") from None
    if not sizes:
        raise _UsageError("--batch needs at least one size")
    try:
        report = bench(args.digits, sizes if len(sizes) > 1 else sizes[0],
                       repetitions=args.reps, seed=args.seed)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    print(report.to_text())
    return 0


# ---------------------------------------------------------------------------
# Entry point


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            raise _UsageError("a subcommand is required (see --help)")
        return args.func(args)
    except _UsageError as exc:
        print(f"error[usage]: {exc}", file=sys.stderr)
        return 1
    except _FormatError as exc:
        print(f"error[format]: {exc}", file=sys.stderr)
        return 2
    except (NesycircError, ValueError) as exc:
        print(f"error[semantic]: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
