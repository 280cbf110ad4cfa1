"""Compile logical constraints into circuits and evaluate them batched,
exactly, and differentiably under pluggable semantics.

The pipeline: parse a constraint (DIMACS or formula text), compile it into
a decomposable, deterministic, smooth circuit, then evaluate batches of
weight rows in layered passes with exact gradients. Semantics are swapped
by tag (boolean, probability, log-probability, fuzzy families); modules
carry symbolic interface annotations so larger systems wire themselves by
name. Task builders cover semantic-loss training and a two-number addition
benchmark with an independent oracle.
"""

from .compiler import (Circuit, CircuitNode, PropertyReport, check_properties,
                       circuit_from_text, circuit_to_text, compile_cnf,
                       load_circuit, model_count, save_circuit, smooth)
from .compose import (AnnotatedModule, Manifest, SymTensor, Violation, chain,
                      fresh_symbol, identity_module, load_manifest,
                      manifest_for, reshape_input, save_manifest, validate,
                      wire_dag)
from .errors import (CarrierError, CircuitError, CompositionError, DimacsError,
                     FormulaError, IncompatibleStructures, NesycircError,
                     StructureError)
from .factory import (Aggregator, CircuitBackend, EqualityPredicate,
                      ModuleFactory, Predicate, builtin_aggregators,
                      load_factory_config, p_mean)
from .formula import (CNF, brute_force_models, brute_force_wmc,
                      cnf_to_formula, eval_assignment, formula_names,
                      formula_vars, is_nnf, make_name_table, parse_dimacs,
                      parse_formula, serialize_dimacs, to_cnf, to_nnf)
from .layered import (LayeredCircuit, LeafBatch, backward, evaluate,
                      evaluate_recursive, layer_summary, layerize)
from .semantics import (FuzzyConnectives, Structure, builtin_structures,
                        evaluate_fuzzy, fuzzy_structure_from_ops,
                        fuzzy_value_and_grad, get_structure, transform,
                        transform_pairs)
from .tasks import (AdditionProblem, TimingReport, addition_batch, bench,
                    build_addition, convolution_oracle, descend_semantic_loss,
                    read_weight_rows, semantic_loss, semantic_loss_and_grad,
                    write_weight_rows)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # formula
    "CNF", "parse_dimacs", "serialize_dimacs", "parse_formula",
    "make_name_table", "to_nnf", "is_nnf", "to_cnf", "cnf_to_formula",
    "formula_vars", "formula_names", "eval_assignment", "brute_force_wmc",
    "brute_force_models",
    # compiler
    "Circuit", "CircuitNode", "PropertyReport", "compile_cnf", "smooth",
    "check_properties", "model_count", "circuit_to_text", "circuit_from_text",
    "save_circuit", "load_circuit",
    # layered evaluation
    "LayeredCircuit", "LeafBatch", "layerize", "layer_summary", "evaluate",
    "evaluate_recursive", "backward",
    # semantics
    "Structure", "FuzzyConnectives", "builtin_structures", "get_structure",
    "fuzzy_structure_from_ops", "evaluate_fuzzy", "fuzzy_value_and_grad",
    "transform", "transform_pairs",
    # composition
    "SymTensor", "AnnotatedModule", "Manifest", "Violation", "validate",
    "reshape_input", "chain", "wire_dag", "identity_module", "fresh_symbol",
    "manifest_for", "save_manifest", "load_manifest",
    # factory
    "ModuleFactory", "CircuitBackend", "Aggregator", "Predicate",
    "EqualityPredicate", "p_mean", "builtin_aggregators", "load_factory_config",
    # tasks
    "AdditionProblem", "TimingReport", "build_addition", "addition_batch",
    "convolution_oracle", "semantic_loss", "semantic_loss_and_grad",
    "descend_semantic_loss", "bench", "read_weight_rows", "write_weight_rows",
    # errors
    "NesycircError", "DimacsError", "FormulaError", "CircuitError",
    "StructureError", "IncompatibleStructures", "CarrierError",
    "CompositionError",
]
