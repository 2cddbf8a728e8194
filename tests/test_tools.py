"""The repository's own tools: the code-line counter and the untested-line lister."""

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



TWO_FUNCTIONS = '''def called(x):
    """Runs."""
    y = x + 1
    return y


def not_called(x):
    """Never runs,
    over two lines."""
    if x:
        return [i for i in range(x)]
    return 0
'''


def test_untested_lines_lists_the_body_of_the_function_not_run(tmp_path):
    tool = load_tool("untested_lines")
    module_path = tmp_path / "two.py"
    module_path.write_text(TWO_FUNCTIONS)
    # the def lines and docstrings hold no instruction of a function body
    assert tool.executable_lines(TWO_FUNCTIONS, str(module_path)) == {3, 4, 10, 11, 12}
    spec = importlib.util.spec_from_file_location("two", module_path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    previous = sys.gettrace()
    missing = tool.untested_lines(lambda: module.called(1), tmp_path)
    assert sys.gettrace() is previous
    assert missing == {module_path.resolve(): [10, 11, 12]}
