"""Tests and demos use the public API only."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
FILES = sorted((ROOT / "tests").glob("*.py")) + sorted((ROOT / "demos").glob("*.py"))


def private_imports(path):
    """``tomospectra`` imports in ``path`` that name a ``_``-prefixed module or object."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            if (node.module or "").split(".")[0] != "tomospectra":
                continue
            names = node.module.split(".")[1:] + [a.name for a in node.names]
        elif isinstance(node, ast.Import):
            names = [part for a in node.names if a.name.split(".")[0] == "tomospectra"
                     for part in a.name.split(".")[1:]]
        else:
            continue
        found += ["line %d: %s" % (node.lineno, name)
                  for name in names if name.startswith("_")]
    return found


def test_no_private_tomospectra_imports():
    offenders = {path.relative_to(ROOT).as_posix(): private_imports(path)
                 for path in FILES}
    assert {path: found for path, found in offenders.items() if found} == {}
