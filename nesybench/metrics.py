"""Metric definitions and how each is computed from a finished run.

``END_TO_END`` and ``PER_LAYER`` list (name, unit, better) in the order
BENCHMARK.json declares them. Every workload reports every metric: a
per-layer figure for a call the workload never makes reads 0.
"""

from __future__ import annotations

import resource
import statistics


END_TO_END = (
    ("setup_s", "s", "lower"),
    ("circuit_edges", "count", "lower"),
    ("step_ms_ref", "ms", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)

_FAMILIES = ("fuzzy_product", "fuzzy_godel", "fuzzy_lukasiewicz")
_TAGS = ("probability", "log_probability") + _FAMILIES
_BATCHES = (1, 1024, 8192)

PER_LAYER = (
    ("formula.parse_dimacs_s", "s", "lower"),
    ("formula.parse_formula_s", "s", "lower"),
    ("formula.to_nnf_s", "s", "lower"),
    ("formula.to_cnf_s", "s", "lower"),
    ("formula.tseitin_clauses", "count", "lower"),
    ("compiler.compile_cnf_s.addition", "s", "lower"),
    ("compiler.compile_cnf_s.chain", "s", "lower"),
    ("compiler.compile_cnf_s.random", "s", "lower"),
    ("compiler.smooth_s", "s", "lower"),
    ("compiler.check_properties_s", "s", "lower"),
    ("compiler.save_circuit_s", "s", "lower"),
    ("compiler.load_circuit_s", "s", "lower"),
    ("compiler.nodes_compiled", "count", "lower"),
    ("compiler.nodes_smoothed", "count", "lower"),
    ("compiler.circuit_depth", "count", "lower"),
    ("layered.layerize_s", "s", "lower"),
    *((f"layered.forward_us_per_row.{s}.b{b}", "us/row", "lower")
      for s in ("prob", "log") for b in _BATCHES),
    *((f"layered.backward_us_per_row.{s}.b{b}", "us/row", "lower")
      for s in ("prob", "log") for b in _BATCHES),
    ("layered.backward_over_forward.prob.b1024", "ratio", "lower"),
    ("layered.backward_over_forward.log.b1024", "ratio", "lower"),
    ("layered.leaf_batch_us.b1", "us", "lower"),
    ("layered.leaf_batch_us.b8192", "us", "lower"),
    ("layered.edges_per_s.b8192", "edges/s", "higher"),
    ("layered.gather_bytes_per_row", "bytes", "lower"),
    *((f"semantics.evaluate_fuzzy_us_per_row.{f}", "us/row", "lower") for f in _FAMILIES),
    ("semantics.transform_us", "us", "lower"),
    *((f"semantics.fuzzy_value_and_grad_us_per_row.{f}", "us/row", "lower") for f in _FAMILIES),
    ("compose.wire_dag_s", "s", "lower"),
    ("compose.dag_call_us", "us", "lower"),
    ("compose.dag_overhead_us", "us", "lower"),
    ("compose.validate_us", "us", "lower"),
    ("compose.module_call_us.b1", "us", "lower"),
    *((f"factory.build_formula_module_s.{t}", "s", "lower") for t in _TAGS),
    ("factory.module_from_dimacs_s", "s", "lower"),
    *((f"tasks.semantic_loss_and_grad_us_per_row.b{b}", "us/row", "lower") for b in _BATCHES),
    ("tasks.build_addition_s", "s", "lower"),
    ("cli.compile_overhead_s", "s", "lower"),
    ("bench.trace_overhead_pct", "%", "lower"),
)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # Linux: KiB


def at_reference(ratios: list[float], cal) -> float:
    """Median of the times over their calibrations' times, in seconds at
    the calibration's reference speed (``calibration.py``)."""
    return statistics.median(ratios) * cal.reference_ms / 1e3


def end_to_end(w, setup_s: float, step_s: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "circuit_edges": w.circuit_edges(),
        "step_ms_ref": step_s * 1e3,
        "peak_rss_mb": peak_rss_mb(),
    }


class _SelfTimes:
    def __init__(self, table: dict):
        self.t = table

    def total(self, name: str) -> float:
        return self.t[name]["self_s"] if name in self.t else 0.0

    def per_call(self, name: str, scale: float = 1.0) -> float:
        e = self.t.get(name)
        return scale * e["self_s"] / len(e["each"]) if e else 0.0

    def median_gap(self, name: str, other: str, scale: float = 1.0) -> float:
        """Median over turns of one call's self time minus the other's,
        for two calls made in turns (``Workload.in_turns``)."""
        a, b = self.t.get(name), self.t.get(other)
        if not (a and b):
            return 0.0
        return scale * statistics.median(x - y for x, y in zip(a["each"], b["each"]))

    def per_row(self, name: str) -> float:
        e = self.t.get(name)
        return 1e6 * e["self_s"] / e["rows"] if e and e["rows"] else 0.0

    def calls(self, name: str) -> int:
        return len(self.t[name]["each"]) if name in self.t else 0


def _sum_counts(counts: dict, prefix: str) -> float:
    return sum(v for k, v in counts.items() if k.startswith(prefix))


def per_layer(w, table: dict, overhead_pct: float) -> dict[str, float]:
    st = _SelfTimes(table)
    out: dict[str, float] = {}
    for name in ("parse_dimacs", "parse_formula", "to_nnf", "to_cnf"):
        out[f"formula.{name}_s"] = st.per_call(f"formula.{name}")
    out["formula.tseitin_clauses"] = _sum_counts(w.counts, "tseitin")
    for fam in ("addition", "chain", "random"):
        out[f"compiler.compile_cnf_s.{fam}"] = st.per_call(f"compiler.compile_cnf.{fam}")
    for name in ("smooth", "check_properties", "save_circuit", "load_circuit"):
        out[f"compiler.{name}_s"] = st.per_call(f"compiler.{name}")
    out["compiler.nodes_compiled"] = _sum_counts(w.counts, "compiled")
    out["compiler.nodes_smoothed"] = _sum_counts(w.counts, "smoothed")
    out["compiler.circuit_depth"] = max(
        [v for k, v in w.counts.items() if k.startswith("depth")], default=0)
    out["layered.layerize_s"] = st.per_call("layered.layerize")
    for s in ("prob", "log"):
        for b in _BATCHES:
            out[f"layered.forward_us_per_row.{s}.b{b}"] = st.per_row(f"layered.evaluate.{s}.b{b}")
            out[f"layered.backward_us_per_row.{s}.b{b}"] = st.per_row(f"layered.backward.{s}.b{b}")
        fwd = out[f"layered.forward_us_per_row.{s}.b1024"]
        bwd = out[f"layered.backward_us_per_row.{s}.b1024"]
        out[f"layered.backward_over_forward.{s}.b1024"] = bwd / fwd if fwd else 0.0
    for b in (1, 8192):
        out[f"layered.leaf_batch_us.b{b}"] = st.per_call(f"layered.leaf_batch.b{b}", 1e6)
    edges = w.circuit_edges()
    fwd8192 = out["layered.forward_us_per_row.prob.b8192"]
    out["layered.edges_per_s.b8192"] = edges / fwd8192 * 1e6 if fwd8192 else 0.0
    # computed, not measured: one float64 gathered per child edge and row
    out["layered.gather_bytes_per_row"] = 8 * edges
    for fam in _FAMILIES:
        out[f"semantics.evaluate_fuzzy_us_per_row.{fam}"] = st.per_row(
            f"semantics.evaluate_fuzzy.{fam}")
    out["semantics.transform_us"] = st.per_call("semantics.transform", 1e6)
    for fam in _FAMILIES:
        out[f"semantics.fuzzy_value_and_grad_us_per_row.{fam}"] = st.per_row(
            f"semantics.fuzzy_value_and_grad.{fam}")
    out["compose.wire_dag_s"] = st.per_call("compose.wire_dag")
    out["compose.dag_call_us"] = st.per_call("compose.dag_call", 1e6)
    # differences of two calls made in turns, paired turn by turn: the
    # host's speed drifts by more than the few percent they differ by
    out["compose.dag_overhead_us"] = st.median_gap("compose.call_unchecked",
                                                   "compose.modules_direct", 1e6)
    out["compose.validate_us"] = st.median_gap("compose.call_checked",
                                               "compose.call_unchecked", 1e6)
    out["compose.module_call_us.b1"] = st.per_call("compose.module_call.b1", 1e6)
    for tag in _TAGS:
        out[f"factory.build_formula_module_s.{tag}"] = st.per_call(
            f"factory.build_formula_module.{tag}")
    out["factory.module_from_dimacs_s"] = st.per_call("factory.module_from_dimacs")
    for b in _BATCHES:
        out[f"tasks.semantic_loss_and_grad_us_per_row.b{b}"] = st.per_row(
            f"tasks.semantic_loss_and_grad.b{b}")
    out["tasks.build_addition_s"] = st.per_call("tasks.build_addition")
    # `nesycirc compile` minus the library calls it makes, each timed alone
    parts = ("formula.parse_dimacs", "compiler.compile_cnf.addition", "compiler.compile_cnf.chain",
             "compiler.compile_cnf.random", "compiler.smooth", "layered.layerize",
             "compiler.save_circuit")
    cli_calls = st.calls("cli.main")
    out["cli.compile_overhead_s"] = ((st.total("cli.main") - sum(st.total(p) for p in parts))
                                     / cli_calls if cli_calls else 0.0)
    out["bench.trace_overhead_pct"] = overhead_pct
    return out
