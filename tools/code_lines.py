"""Count the code lines of Python modules: no docstrings, comments or blank lines.

A line counts when a token other than a comment or a line break sits on
it; a token that spans lines (a triple-quoted string) counts every line
it covers.  Docstrings, found with ``ast``, are left out.  Run from the
repository root:

    python3 tools/code_lines.py            # src/tomospectra/*.py
    python3 tools/code_lines.py FILE ...   # any modules

It prints one line per module and then the total.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree):
    """The line numbers of every module, class and function docstring in ``tree``."""
    lines = set()
    for node in ast.walk(tree):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            lines.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    return lines


def code_lines(source):
    """The number of code lines in the Python ``source`` text."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(argv):
    paths = [Path(p) for p in argv] or sorted(Path("src/tomospectra").glob("*.py"))
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print("%6d  %s" % (count, path))
    print("%6d  total" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
