"""The repository's own tools: the code-line counter."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def load_tool(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "tools" / ("%s.py" % name))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SNIPPET = '''"""A module docstring
over two lines."""

import math  # a trailing comment counts as code


# a comment line
def area(radius,
         scale=1.0):
    """A function docstring."""
    text = """a string that is
not a docstring"""

    return (math.pi * radius**2
            * scale), text
'''


def test_code_lines_leave_out_docstrings_comments_and_blank_lines():
    code_lines = load_tool("code_lines").code_lines
    # import, def + its continuation, the two lines of the string, return + continuation
    assert code_lines(SNIPPET) == 7
    assert code_lines("") == 0
    assert code_lines('"""Only a docstring."""\n# and a comment\n\n') == 0


def test_code_lines_prints_each_module_and_the_total(tmp_path):
    module = tmp_path / "snippet.py"
    module.write_text(SNIPPET)
    done = subprocess.run([sys.executable, str(ROOT / "tools" / "code_lines.py"), str(module),
                           str(module)], capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["7", str(module), "7", str(module), "14", "total"]

