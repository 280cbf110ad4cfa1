"""The code-line counter in ``scripts/code_lines.py``."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "code_lines.py"

# Each line's comment says whether it counts as code.
MODULE = '''\
"""Module docstring,
over two lines."""

import os  # code: an import with a trailing comment
# comment-only


def f(x):
    """Function docstring."""
    # indented comment-only

    text = """a string that is
not a docstring
"""
    total = x + \\
        len(os.sep)
    return text, total
'''
# counted: the import, the def, the three lines of the non-docstring string,
# both lines of the backslash continuation, and the return
EXPECTED = 8


def _load():
    spec = importlib.util.spec_from_file_location("code_lines", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_lines_of_a_synthetic_module(tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(MODULE)
    assert _load().code_lines(path) == EXPECTED


def test_script_reports_each_module_and_the_total(tmp_path):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    out = subprocess.run([sys.executable, str(SCRIPT), str(tmp_path)],
                         capture_output=True, text=True, check=True).stdout
    assert out.split("\n")[:3] == [f"{EXPECTED:6d}  a.py", f"{1:6d}  b.py",
                                   f"{EXPECTED + 1:6d}  total"]
