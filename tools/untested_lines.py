"""List the function-body lines of ``src/tomospectra`` that no test executes.

Needs no coverage package: pytest runs in this process under a
``sys.settrace`` line tracer that follows only frames whose code lives in
the package.  A line counts when the compiled body of a function, method,
lambda or comprehension holds an instruction on it; the ``def`` line,
module and class bodies, comments and docstrings (which compile to no
instruction, as ``tools/code_lines.py`` leaves them out) do not count.
Calls made while the package is first imported are traced too.

Forked pool workers (``run_ensemble(..., workers=2)``) and subprocesses
are not traced, so a line that runs only there is listed.  Run from the
repository root, with any pytest arguments after the tool's name:

    python3 tools/untested_lines.py                                  # tests/
    python3 tools/untested_lines.py tests --ignore=tests/test_acceptance.py

It prints one ``path:line  source`` row per untested line and then the
count.
"""

import collections
import inspect
import os
import sys
import threading
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def executable_lines(source, filename):
    """The lines of ``source`` on which a function body holds an instruction."""
    lines = set()
    pending = [compile(source, filename, "exec")]
    while pending:
        code = pending.pop()
        pending.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
        if code.co_flags & inspect.CO_OPTIMIZED:  # a function body, not a module or class
            lines.update(line for _, _, line in code.co_lines()
                         if line is not None and line != code.co_firstlineno)
    return lines


def untested_lines(run, package):
    """Call ``run()`` under the tracer; ``{module path: sorted untested lines}`` in ``package``."""
    prefix = str(Path(package).resolve()) + os.sep
    executed = collections.defaultdict(set)

    def trace_lines(frame, event, arg):
        if event == "line":
            executed[frame.f_code.co_filename].add(frame.f_lineno)
        return trace_lines

    def trace_calls(frame, event, arg):
        return trace_lines if frame.f_code.co_filename.startswith(prefix) else None

    previous = sys.gettrace(), threading.gettrace()
    sys.settrace(trace_calls)
    threading.settrace(trace_calls)
    try:
        run()
    finally:
        sys.settrace(previous[0])
        threading.settrace(previous[1])
    missing = {}
    for path in sorted(Path(package).resolve().glob("*.py")):
        untested = executable_lines(path.read_text(encoding="utf-8"), str(path)) - executed[str(path)]
        if untested:
            missing[path] = sorted(untested)
    return missing


def main(argv):
    import pytest

    sys.path.insert(0, str(ROOT / "src"))
    missing = untested_lines(lambda: pytest.main(argv or ["tests"]), ROOT / "src" / "tomospectra")
    total = 0
    for path, lines in missing.items():
        source = path.read_text(encoding="utf-8").splitlines()
        for line in lines:
            print("%s:%d  %s" % (path.relative_to(ROOT), line, source[line - 1].strip()))
        total += len(lines)
    print("%d untested lines" % total)


if __name__ == "__main__":
    main(sys.argv[1:])
