"""Every float pass against the exact rational pass of ``exact.py``.

The circuits are the sum-999 addition constraint (CAT leaves and k-ary
ORs), a 400-variable implication chain, whose rows leave the range proof's
bounds so that a log forward runs in log space, and the four formula
circuits of the benchmark's ``modules`` workload.

The stated bounds, with u = 2**-53 and N = ``exact.operations(lc)``:

- a probability value is within gamma_N of the exact count, relatively;
- a probability gradient entry d/dp = d/dpos - d/dneg within
  gamma_{N+1} * (d/dpos + d/dneg), as both terms are nonnegative;
- a log value on the linear route within gamma_N / (1 - gamma_N) of
  log Z, and one of the log-space pass within 2 u M N, where M is the
  largest magnitude of the log of a nonzero exact slot or adjoint (each
  rounding errs by at most 2 u M, a product adds its children's errors
  and a sum of logs mixes them with weights that sum to one); both plus
  2 u |log Z| for the rounding of the log itself and of the reference;
- a log gradient within gamma_{2N+4} * (d/dpos + d/dneg) / Z on the
  linear route and (expm1(4 u M N) + gamma_{N+1}) * (d/dpos + d/dneg) / Z
  in log space.
"""

import importlib.util
import math
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from nesycirc.compiler import compile_cnf
from nesycirc.factory import ModuleFactory
from nesycirc.formula import CNF, make_name_table, parse_formula
from nesycirc.layered import BUCKETED_FROM, LeafBatch, _in_range, backward, evaluate, layerize
from nesycirc.tasks import build_addition

from exact import U, exact_pass, gamma, operations, row_bounds
from test_layered import _log_space, _with_budget

BENCH = Path(__file__).resolve().parent.parent / "nesybench"
ROWS = BUCKETED_FROM + 4  # the per-bucket layout whole, the merged one in two tiles


def _bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="module")
def circuits():
    inputs, oracles = _bench("inputs"), _bench("oracles")
    out = {"sum-999": ModuleFactory().module_from_dimacs(
               build_addition(3, 999).cnf).backend.layered,
           "chain-400": layerize(compile_cnf(CNF(400, tuple((-i, i + 1)
                                                            for i in range(1, 400)))))}
    rng = np.random.default_rng(inputs.FORMULA_SEED)
    names = [f"x{i}" for i in range(inputs.FORMULA_VARS)]
    for k in range(inputs.FORMULAS):
        f = parse_formula(oracles.tree_text(inputs.random_tree(rng), names),
                          make_name_table(names))
        out[f"formula-{k}"] = ModuleFactory().build_formula_module(
            f, "probability").backend.layered
    return out


NAMES = ["sum-999", "chain-400", *[f"formula-{k}" for k in range(4)]]
# rows checked against the exact pass; the chain's rationals run to
# thousands of digits, so it checks its two corners and one more row
CHECKED = {"chain-400": 3}


def _batch(lc, rows):
    return LeafBatch.from_probabilities(rows, num_vars=lc.num_vars, aux_vars=lc.aux_vars)


def _runs(fn, lc, batch, s):
    """``fn``'s output on the whole batch and in tiles of the merged layout."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return [fn(lc, batch, s), _with_budget(1, fn, lc, batch, s)]


def _log_exact(x: Fraction) -> float:
    """log x to within a few ulps of the result, for a huge numerator or
    denominator too."""
    e = x.numerator.bit_length() - x.denominator.bit_length()
    return math.log(float(x / Fraction(2) ** e)) + e * math.log(2.0)


def _within(got, want, bound) -> bool:
    return abs(Fraction(float(got)) - want) <= Fraction(bound)


@pytest.mark.parametrize("name", NAMES)
def test_float_passes_within_their_forward_error_bounds(circuits, name):
    lc = circuits[name]
    rng = np.random.default_rng(NAMES.index(name))
    rows = rng.uniform(0.02, 0.98, (ROWS, lc.n_inputs))
    rows[:2] = np.round(rows[:2])  # corners: zero counts, or one model at weight one
    batch = _batch(lc, rows)
    checked = CHECKED.get(name, ROWS)
    ex = exact_pass(lc, batch.literals[:checked])
    n = operations(lc)
    k, nv = lc.n_inputs, lc.num_vars
    spread = (ex.literal_adj[:k] + ex.literal_adj[nv:nv + k]).T  # d/dpos + d/dneg
    mags = [abs(_log_exact(x)) for pair in ex.slots + ex.adjoints for x in pair if x]
    m = max([1.0, *mags])
    in_range = _in_range(lc, batch.literals)[:, 0]
    if name == "chain-400":
        assert not in_range[2:].any()  # the log forward runs in log space
    else:
        assert in_range[2:].all()
    for values in _runs(evaluate, lc, batch, "probability"):
        assert all(_within(v, z, gamma(n) * z) for v, z in zip(values, ex.values))
    for grad in _runs(backward, lc, batch, "probability"):
        for g, want, s in zip(grad, ex.grad, spread):
            assert all(_within(a, b, gamma(n + 1) * c) for a, b, c in zip(g, want, s))
    for s in ("log", _log_space()):
        for values, grad in zip(_runs(evaluate, lc, batch, s), _runs(backward, lc, batch, s)):
            for r, z in enumerate(ex.values):  # the checked rows
                linear = in_range[r] and s == "log"
                if z == 0:
                    assert values[r] == -np.inf and np.isnan(grad[r]).all()
                    continue
                log_z = _log_exact(z)
                bound = gamma(n) / (1 - gamma(n)) if linear else 2 * U * m * n
                assert abs(values[r] - log_z) <= bound + 2 * U * abs(log_z)
                rel = gamma(2 * n + 4) if linear else math.expm1(4 * U * m * n) + gamma(n + 1)
                assert all(_within(a, b / z, rel * c / z)
                           for a, b, c in zip(grad[r], ex.grad[r], spread[r]))


@pytest.mark.parametrize("name", NAMES)
def test_in_range_bounds_contain_the_exact_extremes(circuits, name):
    """Where ``_in_range`` passes a row, the exact smallest and largest
    nonzero slot and adjoint lie between the products it bounds them by:
    no entry of either buffer leaves the range it proved."""
    lc = circuits[name]
    rng = np.random.default_rng(100 + NAMES.index(name))
    b = min(8, CHECKED.get(name, 8) // 2)
    pos, neg = 2.0 ** rng.uniform(-2.0, 2.0, (2, b, lc.num_vars))
    pos[rng.random(pos.shape) < 0.2] = 0.0
    aux = np.array(sorted(lc.aux_vars), np.int64) - 1
    pos[:, aux] = neg[:, aux] = 1.0
    probs = _batch(lc, rng.uniform(0.3, 0.7, (b, lc.n_inputs))).literals
    for literals in (LeafBatch.from_weights(pos, neg, aux_vars=lc.aux_vars).literals, probs):
        ok = _in_range(lc, literals)[:, 0]
        assert ok.any()
        ex = exact_pass(lc, literals[ok])
        for (lo, hi), slots, adjoints in zip(row_bounds(lc, literals[ok]), ex.slots,
                                             ex.adjoints):
            for smallest, largest in (slots, adjoints):
                assert lo <= smallest <= largest <= hi
