"""The benchmark under ``nesybench/`` imports only names the package has.

Each benchmark file is parsed, not imported, so this fails in the test
suite when a public name the benchmark reads is renamed or removed.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "nesybench"


def _imports():
    """(file, module, name) for each name a benchmark file imports from nesycirc."""
    out = []
    for path in sorted(BENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level == 0 and \
                    (node.module or "").split(".")[0] == "nesycirc":
                out += [(path.name, node.module, alias.name) for alias in node.names]
            elif isinstance(node, ast.Import):
                out += [(path.name, alias.name, None) for alias in node.names
                        if alias.name.split(".")[0] == "nesycirc"]
    return out


def test_benchmark_imports_something():
    assert len(_imports()) >= 40


def _resolves(module, name):
    mod = importlib.import_module(module)
    if name is None or hasattr(mod, name):
        return True
    return hasattr(mod, "__path__") and importlib.util.find_spec(f"{module}.{name}") is not None


@pytest.mark.parametrize("where,module,name", _imports())
def test_benchmark_import_resolves(where, module, name):
    assert _resolves(module, name), \
        f"nesybench/{where} imports {name!r} from {module}, which has no such name"
