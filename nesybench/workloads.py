"""The four workloads: compile, train, descend and modules.

Each workload drives the library from outside in one closed loop: one
caller, whose next call waits for the previous one. A workload has

- ``setup()``: the program work done before the loop (timed as setup_s);
- ``prepare()``: the reference answers, computed by ``oracles`` and
  outside every timed region;
- ``parts()``: one whole round of steps, as calls ``run.py`` makes in
  order; every output of a step is checked and each checked call counts as
  one attempted operation;
- ``probes()``: extra calls made only in the traced run, for per-layer
  figures the loop does not give on its own (such as the log structure
  alone, or a module called without its input checks).

Spans name the public call they wrap; ``metrics`` turns them into the
per-layer figures.
"""

from __future__ import annotations

import dataclasses
import functools
import io
import os
import time
from contextlib import redirect_stdout

import numpy as np

import calibration
import inputs
import oracles

from nesycirc import cli
from nesycirc.compiler import (check_properties, compile_cnf, load_circuit,
                               model_count, save_circuit, smooth)
from nesycirc.compose import SymTensor, wire_dag
from nesycirc.factory import ModuleFactory
from nesycirc.formula import (make_name_table, parse_dimacs, parse_formula,
                              serialize_dimacs, to_cnf, to_nnf)
from nesycirc.layered import LeafBatch, backward, evaluate, layer_summary, layerize
from nesycirc.semantics import evaluate_fuzzy, fuzzy_value_and_grad, transform
from nesycirc.tasks import (build_addition, descend_semantic_loss,
                            semantic_loss_and_grad)

clock = time.perf_counter

RTOL = 1e-9          # values: the program and the oracles differ only by rounding
GRAD_RTOL = 1e-6     # gradients, relative to the largest entry of the row


def edges(circuit) -> int:
    return sum(len(node.children) for node in circuit.nodes)


def close(got, want, rtol: float = RTOL) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    return got.shape == want.shape and bool(
        np.all(np.abs(got - want) <= rtol * np.abs(want) + 1e-300))


def grads_close(got, want, rtol: float = GRAD_RTOL) -> bool:
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    scale = np.abs(want).max(axis=-1, keepdims=True)
    return bool(np.all(np.abs(got - want) <= rtol * scale))


class Run:
    """State shared by a workload and ``run.py``: inputs, outcome."""

    def __init__(self, seed: int, out_dir: str):
        self.rng = np.random.default_rng(seed)
        self.out_dir = out_dir
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def record(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 10:
                self.errors.append(what)


class Workload:
    name = ""
    # steps in one round of the loop, and the calibration made around them
    STEPS_PER_ROUND = 1
    CALIBRATION: tuple = ()

    def __init__(self, run: Run, tracer):
        self.run = run
        self.tr = tracer
        self.counts: dict[str, float] = {}
        self.reset_loop()

    def reset_loop(self) -> None:
        self.step_times: list[float] = []

    def guarded(self, n_ops: int, what: str, fn, *args) -> None:
        """Run one step; an exception fails every operation of the step."""
        try:
            fn(*args)
        except Exception as exc:  # the loop must go on and report it
            for _ in range(n_ops):
                self.run.record(False, f"{what}: {type(exc).__name__}: {exc}")

    def prepare(self) -> None:
        pass

    def parts(self) -> list:
        """One round of the loop, as calls ``run.py`` makes in order."""
        raise NotImplementedError

    def circuit_edges(self) -> int:
        raise NotImplementedError

    def probes(self) -> None:
        pass

    def in_turns(self, k: int, rows: int, *calls) -> None:
        """Make the calls of (span name, call) pairs whose times are
        compared, reversing their order on every other turn ``k``: in a
        fixed order the first was measured 5% slower than the same call
        made second."""
        for name, fn in calls if k % 2 == 0 else calls[::-1]:
            with self.tr.span(name, rows):
                fn()


# ---------------------------------------------------------------------------
# compile: DIMACS files to circuit files through the command line


@dataclasses.dataclass
class _Job:
    family: str
    src: str
    dst: str
    n_inputs: int
    count: int = 0
    query_sum: int = 0
    rows: np.ndarray | None = None
    wmc: np.ndarray | None = None
    clauses: list | None = None
    edges: int = 0


class Compile(Workload):
    """Three families, each using the compiler differently: addition sums
    (component caching), implication chains (unit propagation) and small
    random 3-CNFs (branching with few cache hits).

    One step of the loop is one pass over the whole input set, file to file.
    """

    name = "compile"
    CALIBRATION = calibration.PYTHON
    CHECK_ROWS = 4

    def __init__(self, run: Run, tracer):
        super().__init__(run, tracer)
        rng = run.rng
        sums = inputs.addition_sums(rng)
        randoms = [inputs.random_3cnf(rng) for _ in range(inputs.RANDOM_CNFS)]
        self.dir = os.path.join(run.out_dir, "compile")
        os.makedirs(self.dir, exist_ok=True)
        jobs = []
        for s in sums:
            # DIMACS has no auxiliary marker, so the file's carries are inputs
            jobs.append(_Job("addition", self._path(f"add{s}"), self._path(f"add{s}", "nnfc"),
                             21 * inputs.N_DIGITS, query_sum=s,
                             count=oracles.addition_model_count(inputs.N_DIGITS, s)))
        for length in inputs.CHAIN_LENGTHS:
            jobs.append(_Job("chain", self._path(f"chain{length}"),
                             self._path(f"chain{length}", "nnfc"), length,
                             count=oracles.chain_model_count(length),
                             clauses=inputs.chain_clauses(length)))
        for k, clauses in enumerate(randoms):
            jobs.append(_Job("random", self._path(f"rand{k}"), self._path(f"rand{k}", "nnfc"),
                             inputs.RANDOM_VARS, clauses=clauses))
        self.jobs = [jobs[i] for i in rng.permutation(len(jobs))]
        self.alone_out = os.path.join(self.dir, "alone.nnfc")

    def _path(self, stem: str, ext: str = "cnf") -> str:
        return os.path.join(self.dir, f"{stem}.{ext}")

    def setup(self) -> None:
        for job in self.jobs:
            if job.family == "addition":
                with self.tr.span("tasks.build_addition"):
                    problem = build_addition(inputs.N_DIGITS, job.query_sum)
                text = serialize_dimacs(problem.cnf)
            else:
                text = inputs.dimacs_text(job.n_inputs, job.clauses)
            with open(job.src, "w", encoding="utf-8") as fh:
                fh.write(text)

    def prepare(self) -> None:
        rng = self.run.rng
        for job in self.jobs:
            job.rows = inputs.probability_rows(rng, self.CHECK_ROWS, job.n_inputs)
            if job.family == "addition":
                # carries weigh 1/2 on both literals and each model fixes them
                n = inputs.N_DIGITS
                job.rows[:, 20 * n:] = 0.5
                job.wmc = oracles.addition_wmc(job.rows[:, :20 * n], n, job.query_sum) * 0.5 ** n
            elif job.family == "chain":
                job.wmc = oracles.chain_wmc(job.rows)
            else:
                models = oracles.cnf_models(job.n_inputs, job.clauses)
                job.count = int(models.sum())
                job.wmc = oracles.enumerated_wmc(models, job.rows)

    def warmup(self) -> None:
        for job in self.jobs:
            self._compile(job, record=False)

    def parts(self) -> list:
        return [functools.partial(self._compile, job) for job in self.jobs]

    def _compile(self, job: _Job, record: bool = True) -> None:
        out = io.StringIO()
        with redirect_stdout(out):
            t0 = clock()
            with self.tr.span("cli.main"):
                code = cli.main(["compile", "--dimacs", job.src, "--out", job.dst])
            dt = clock() - t0
        self.step_times.append(dt)  # one file; the step is the pass
        if self.tr.enabled:
            self._alone(job)
        self.guarded(1, f"compile {job.src}", self._check, job, code, out.getvalue(), record)

    def _alone(self, job: _Job) -> None:
        """The library calls `nesycirc compile` makes, each timed alone."""
        with open(job.src, encoding="utf-8") as fh:
            text = fh.read()
        tr = self.tr
        with tr.span("formula.parse_dimacs"):
            cnf = parse_dimacs(text)
        with tr.span(f"compiler.compile_cnf.{job.family}"):
            circuit = compile_cnf(cnf)
        with tr.span("compiler.smooth"):
            smoothed = smooth(circuit)
        with tr.span("layered.layerize"):
            lc = layerize(smoothed)
        with tr.span("compiler.save_circuit"):
            save_circuit(smoothed, self.alone_out, comments=layer_summary(lc).splitlines())
        self.counts[f"compiled:{job.src}"] = len(circuit.nodes)
        self.counts[f"smoothed:{job.src}"] = len(smoothed.nodes)
        self.counts[f"depth:{job.src}"] = len(lc.layers)

    def _check(self, job: _Job, code: int, stdout: str, record: bool) -> None:
        with self.tr.span("compiler.load_circuit"):
            circuit = load_circuit(job.dst)
        with self.tr.span("compiler.check_properties"):
            report = check_properties(circuit)
        lc = layerize(circuit)
        batch = LeafBatch.from_probabilities(job.rows, num_vars=circuit.num_vars,
                                             aux_vars=circuit.aux_vars)
        ok = (code == 0 and report.ok
              and stdout == f"nodes {len(circuit.nodes)} layers {len(lc.layers)}\n"
              and model_count(circuit) == job.count
              and close(evaluate(lc, batch), job.wmc))
        job.edges = edges(circuit)
        if record:
            self.run.record(ok, f"compile {job.src}: output fails its check")

    def circuit_edges(self) -> int:
        return sum(job.edges for job in self.jobs)


# ---------------------------------------------------------------------------
# train and descend: the three-digit addition constraint as a module


class _Addition(Workload):
    def setup(self) -> None:
        with self.tr.span("tasks.build_addition"):
            self.problem = build_addition(inputs.N_DIGITS, inputs.TRAIN_SUM)
        with self.tr.span("factory.module_from_dimacs"):
            self.module = ModuleFactory().module_from_dimacs(self.problem.cnf, "probability")
        self.lc = self.module.backend.layered

    def wmc(self, rows: np.ndarray) -> np.ndarray:
        return oracles.addition_wmc(rows, inputs.N_DIGITS, inputs.TRAIN_SUM)

    def wmc_grad(self, rows: np.ndarray) -> np.ndarray:
        return oracles.central_gradient(self.wmc, rows)

    def batch(self, rows: np.ndarray, tag: str) -> LeafBatch:
        with self.tr.span(f"layered.leaf_batch.{tag}", len(rows)):
            return LeafBatch.from_probabilities(rows, num_vars=self.lc.num_vars,
                                                aux_vars=self.lc.aux_vars)

    def circuit_edges(self) -> int:
        return edges(self.module.backend.circuit)

    def setup_breakdown(self) -> None:
        """compile_cnf, smooth and layerize alone on the constraint."""
        with self.tr.span("compiler.compile_cnf.addition"):
            circuit = compile_cnf(self.problem.cnf)
        with self.tr.span("compiler.smooth"):
            smoothed = smooth(circuit)
        with self.tr.span("layered.layerize"):
            lc = layerize(smoothed)
        self.counts["compiled"] = len(circuit.nodes)
        self.counts["smoothed"] = len(smoothed.nodes)
        self.counts["depth"] = len(lc.layers)

    def n_inputs(self) -> int:
        return 20 * inputs.N_DIGITS


class Train(_Addition):
    """Large-batch training: semantic loss and gradient under the log
    structure, then probability forward and backward on the same batch.

    One step of the loop is one batch of 1024 rows. One batch of 8192
    rows, checked like the others, comes first in every run, so the run's
    peak memory is that of the large batch; its time is not in the step
    latency, as a run has room for too few of them to give a steady figure
    on a shared host. The traced run times it (per-layer ``b8192``).
    """

    name = "train"
    CALIBRATION = calibration.WIDE
    BATCH = 1024
    LARGE = 8192
    CHECK_ROWS = 8

    def warmup(self) -> None:
        self.guarded(3, f"train step at batch {self.LARGE}", self.step, self.LARGE)

    def parts(self) -> list:
        return [functools.partial(self.guarded, 3, f"train step at batch {self.BATCH}",
                                  self.step, self.BATCH)]

    def step(self, b: int) -> None:
        rng = self.run.rng
        rows = inputs.probability_rows(rng, b, self.n_inputs())
        tr, tag = self.tr, f"b{b}"
        t0 = clock()
        batch = self.batch(rows, tag)
        with tr.span(f"tasks.semantic_loss_and_grad.{tag}", b):
            loss, loss_grad = semantic_loss_and_grad(self.module, batch)
        with tr.span(f"layered.evaluate.prob.{tag}", b):
            values = evaluate(self.lc, batch)
        with tr.span(f"layered.backward.prob.{tag}", b):
            grads = backward(self.lc, batch)
        self.step_times.append(clock() - t0)
        idx = rng.choice(b, size=self.CHECK_ROWS, replace=False)
        want, want_grad = self.wmc(rows[idx]), self.wmc_grad(rows[idx])
        self.run.record(close(values[idx], want), f"evaluate at batch {b}")
        self.run.record(grads_close(grads[idx], want_grad), f"backward at batch {b}")
        self.run.record(
            close(loss, np.mean(-np.log(values)))
            and grads_close(loss_grad[idx], -want_grad / want[:, None]),
            f"semantic_loss_and_grad at batch {b}")

    def probes(self) -> None:
        self.setup_breakdown()
        self.step(self.LARGE)
        rng = self.run.rng
        for b in (self.BATCH, self.LARGE):
            rows = inputs.probability_rows(rng, b, self.n_inputs())
            batch = self.batch(rows, f"b{b}")
            with self.tr.span(f"layered.evaluate.log.b{b}", b):
                log_values = evaluate(self.lc, batch, "log_probability")
            with self.tr.span(f"layered.backward.log.b{b}", b):
                log_grads = backward(self.lc, batch, "log_probability")
            idx = rng.choice(b, size=self.CHECK_ROWS, replace=False)
            want = self.wmc(rows[idx])
            self.run.record(close(log_values[idx], np.log(want))
                            and grads_close(log_grads[idx],
                                            self.wmc_grad(rows[idx]) / want[:, None]),
                            f"log-structure probe at batch {b}")


class Descend(_Addition):
    """Projected descent on the semantic loss, one row at a time, with a
    one-row module call after every update."""

    name = "descend"
    STEPS = STEPS_PER_ROUND = 25
    CALIBRATION = calibration.NARROW
    # the defaults of tasks.descend_semantic_loss
    STEP_SIZE = 0.05
    LO, HI = 0.001, 0.999
    PROBE_CALLS = 200

    def prepare(self) -> None:
        self.checked_reference = False

    def warmup(self) -> None:
        x = inputs.probability_rows(self.run.rng, 1, self.n_inputs())
        semantic_loss_and_grad(self.module, x)
        self.module(x[0])

    def parts(self) -> list:
        return [functools.partial(self.guarded, 2 * self.STEPS, "descent", self._descend)]

    def _descend(self) -> None:
        tr, m, run = self.tr, self.module, self.run
        start = np.clip(inputs.probability_rows(run.rng, 1, self.n_inputs())[0],
                        self.LO, self.HI)
        x = start
        losses, prev_value = [], None
        for k in range(self.STEPS):
            t0 = clock()
            with tr.span("tasks.semantic_loss_and_grad.b1", 1):
                loss, grad = semantic_loss_and_grad(m, x[None, :])
            x = np.clip(x - self.STEP_SIZE * grad[0], self.LO, self.HI)
            with tr.span("compose.module_call.b1", 1):
                value = m(x)
            self.step_times.append(clock() - t0)
            if k == 0:
                want = self.wmc(start[None, :])
                ok = grads_close(grad, -self.wmc_grad(start[None, :]) / want[:, None])
            else:
                # the previous call's value is the probability at this iterate
                ok = losses[-1] >= loss - 1e-12 * abs(loss)
                run.record(close(loss, -np.log(prev_value)), "one-row module call")
            run.record(ok, f"descent step {k}")
            losses.append(loss)
            prev_value = value
        final = -np.log(self.wmc(x[None, :]))[0]
        run.record(close(-np.log(prev_value), final) and losses[-1] >= final - 1e-12 * final,
                   "final loss against the closed form")
        if not self.checked_reference:
            # the loop above mirrors the library's own descent, step for step
            self.checked_reference = True
            ref_losses, ref_x = descend_semantic_loss(m, start, steps=self.STEPS)
            run.record(close(ref_losses[:-1], losses) and close(ref_x, x),
                       "descend_semantic_loss against the benchmark's loop")

    def probes(self) -> None:
        self.setup_breakdown()
        tr, lc, m = self.tr, self.lc, self.module
        rows = inputs.probability_rows(self.run.rng, self.PROBE_CALLS, self.n_inputs())
        for k, row in enumerate(rows):
            batch = self.batch(row[None, :], "b1")
            for s, tag in (("probability", "prob"), ("log_probability", "log")):
                with tr.span(f"layered.evaluate.{tag}.b1", 1):
                    evaluate(lc, batch, s)
                with tr.span(f"layered.backward.{tag}.b1", 1):
                    backward(lc, batch, s)
            self.in_turns(k, 1, ("compose.call_checked", lambda: m(row)),
                          ("compose.call_unchecked", lambda: m(row, check=False)))


# ---------------------------------------------------------------------------
# modules: formulas under five structures, wired into one DAG


_SHORT = {"fuzzy_product": "prod", "fuzzy_godel": "godel", "fuzzy_lukasiewicz": "luk"}
CIRCUIT_TAGS = ("probability", "log_probability")


class Modules(Workload):
    """Formula modules under every structure, called through wire_dag, plus
    fuzzy value-and-gradient calls for each fuzzy family."""

    name = "modules"
    CALIBRATION = calibration.NARROW
    BATCH = 256
    CORNERS = 8
    RANDOM_CHECK_ROWS = 8
    PROBE_CALLS = 50

    def __init__(self, run: Run, tracer):
        super().__init__(run, tracer)
        rng = np.random.default_rng(inputs.FORMULA_SEED)
        self.trees = [inputs.random_tree(rng) for _ in range(inputs.FORMULAS)]
        self.names = [f"x{i}" for i in range(inputs.FORMULA_VARS)]

    def setup(self) -> None:
        tr = self.tr
        factory = ModuleFactory()
        modules, self.nnfs, self.out_index = [], [], {}
        for k, tree in enumerate(self.trees):
            with tr.span("formula.parse_formula"):
                f = parse_formula(oracles.tree_text(tree, self.names),
                                  make_name_table(self.names))
            with tr.span("formula.to_nnf"):
                self.nnfs.append(to_nnf(f))
            built = []
            for tag in CIRCUIT_TAGS:
                with tr.span(f"factory.build_formula_module.{tag}"):
                    built.append((tag, factory.build_formula_module(f, tag, name=f"f{k}_{tag}")))
            for fam, short in _SHORT.items():
                names = [f"{short}_{n}" for n in self.names]
                with tr.span("formula.parse_formula"):
                    ff = parse_formula(oracles.tree_text(tree, names), make_name_table(names))
                with tr.span(f"factory.build_formula_module.{fam}"):
                    built.append((fam, factory.build_formula_module(ff, fam, name=f"f{k}_{fam}")))
            for tag, m in built:
                # every formula module names its output "score"; a DAG needs
                # each symbol produced once, so each output gets its own name
                out = SymTensor(f"{m.name}.score", structure=m.output_spec[0].structure)
                modules.append(dataclasses.replace(m, output_spec=(out,)))
                self.out_index[out.symbols[0]] = (k, tag)
        self.modules = modules
        externals = [SymTensor(self.names, "probability")]
        externals += [SymTensor([f"{s}_{n}" for n in self.names], fam)
                      for fam, s in _SHORT.items()]
        with tr.span("compose.wire_dag"):
            self.dag = wire_dag(modules, externals)

    def prepare(self) -> None:
        self.models = [oracles.tree_models(t, inputs.FORMULA_VARS) for t in self.trees]
        self.sinks = [self.out_index[spec.symbols[0]] for spec in self.dag.output_spec]

    def warmup(self) -> None:
        rows = self.rows()
        self.dag(*[rows] * 4)

    def rows(self) -> np.ndarray:
        rng, n = self.run.rng, inputs.FORMULA_VARS
        return np.vstack([inputs.corner_rows(rng, self.CORNERS, n),
                          inputs.probability_rows(rng, self.BATCH - self.CORNERS, n)])

    def parts(self) -> list:
        return [functools.partial(self.guarded, 1 + 3 * len(self.trees), "modules step",
                                  self.step)]

    def step(self) -> None:
        tr, run = self.tr, self.run
        rows = self.rows()
        t0 = clock()
        with tr.span("compose.dag_call", self.BATCH):
            outs = self.dag(rows, rows, rows, rows)
        fuzzy = []
        for nnf in self.nnfs:
            for fam in oracles.FUZZY_FAMILIES:
                with tr.span(f"semantics.fuzzy_value_and_grad.{fam}", self.BATCH):
                    fuzzy.append(fuzzy_value_and_grad(nnf, fam, rows))
        self.step_times.append(clock() - t0)

        idx = np.concatenate([np.arange(self.CORNERS), run.rng.choice(
            np.arange(self.CORNERS, self.BATCH), self.RANDOM_CHECK_ROWS, replace=False)])
        run.record(self.dag_ok(outs, rows, idx), "DAG call")
        j = 0
        for k, tree in enumerate(self.trees):
            for fam in oracles.FUZZY_FAMILIES:
                value, grad = fuzzy[j]
                j += 1
                run.record(grad.shape == rows.shape and bool(np.all(np.isfinite(grad)))
                           and close(value[idx], oracles.tnorm_value(tree, fam, rows[idx]),
                                     rtol=1e-12),
                           f"fuzzy_value_and_grad {fam} formula {k}")

    def dag_ok(self, outs, rows: np.ndarray, idx: np.ndarray) -> bool:
        """Every DAG output against enumeration or the t-norms; every
        structure against the truth value on the Boolean corner rows."""
        sub = rows[idx]
        corners = idx < self.CORNERS
        for out, (k, tag) in zip(outs, self.sinks):
            got = np.asarray(out)[idx]
            tree = self.trees[k]
            if tag in CIRCUIT_TAGS:
                want = oracles.enumerated_wmc(self.models[k], sub)
                prob = np.exp(got) if tag == "log_probability" else got
                ok = close(prob, want) and (tag == "probability" or close(
                    got[~corners], np.log(want[~corners])))
            else:
                ok = close(got, oracles.tnorm_value(tree, tag, sub), rtol=1e-12)
            truth = oracles.tree_truth(tree, sub[corners]).astype(np.float64)
            value = np.exp(got[corners]) if tag == "log_probability" else got[corners]
            if not (ok and np.array_equal(value, truth)):
                return False
        return True

    def circuit_edges(self) -> int:
        return sum(edges(m.backend.circuit) for m in self.modules if m.backend is not None)

    def probes(self) -> None:
        tr = self.tr
        for k, nnf in enumerate(self.nnfs):
            with tr.span("formula.to_cnf"):
                cnf = to_cnf(nnf, num_vars=inputs.FORMULA_VARS)
            self.counts[f"tseitin:{k}"] = len(cnf.clauses)
        depth = [len(m.backend.layered.layers) for m in self.modules if m.backend is not None]
        self.counts["depth"] = max(depth)
        for k in range(self.PROBE_CALLS):
            rows = self.rows()
            for nnf in self.nnfs:
                for fam in oracles.FUZZY_FAMILIES:
                    with tr.span(f"semantics.evaluate_fuzzy.{fam}", self.BATCH):
                        evaluate_fuzzy(nnf, fam, rows)
            with tr.span("semantics.transform"):
                log_rows = transform(rows, "probability", "log_probability")

            def direct():
                for m in self.modules:
                    m(log_rows if m.output_spec[0].structure == "log_probability" else rows,
                      check=False)

            self.in_turns(k, self.BATCH,
                          ("compose.call_checked", lambda: self.dag(rows, rows, rows, rows)),
                          ("compose.call_unchecked",
                           lambda: self.dag(rows, rows, rows, rows, check=False)),
                          ("compose.modules_direct", direct))


WORKLOADS = {w.name: w for w in (Compile, Train, Descend, Modules)}
