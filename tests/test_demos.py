"""The demos and the README's examples still match the package.

The demos that replay replicas through the estimator, and the ones that
take a few seconds at most, run to completion: each runs in a fresh
interpreter with ``src`` on the import path, as ``python demos/<name>.py``
would from the repository root.  ``minimum_counts_ghz.py`` (6 s) is left
to the name check: every ``tomospectra`` name that a demo or a README
``python`` block uses is read with ``ast`` and resolved.
"""

import ast
import importlib
import os
import re
import subprocess
import sys
import types
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env,
                          capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_rank_certification_demo():
    """Runtime ~4 s: 60 replicas at n=6, then replica 0 replayed for its eigenvectors."""
    out = run_demo("rank_certification.py")
    assert "accepted rank: 3" in out
    assert "physical reconstruction from replica 0:" in out


def test_complete_vs_overcomplete_demo():
    """Runtime ~2 s: 400 replicas per scheme at n=4."""
    out = run_demo("complete_vs_overcomplete.py")
    assert "complete      m2 =" in out
    assert "each cloud prefers its own law" in out


def test_single_qubit_spectrum_demo():
    """Runtime ~1 s: 10^5 one-qubit replicas at N=100."""
    out = run_demo("single_qubit_spectrum.py")
    assert "sup |empirical CDF - Gaussian-law CDF| = 0.00730\n" in out


def test_semicircle_noise_floor_demo():
    """Runtime ~1.5 s: 3000 replicas at n=4, N=200."""
    out = run_demo("semicircle_noise_floor.py")
    assert "m4/m2^2 = 1.9985   (Catalan: 2)" in out


def test_unphysical_rates_demo():
    """Runtime ~2.6 s: white noise at N=100 for n = 1..4; n = 1 reads the one-qubit law."""
    out = run_demo("unphysical_rates.py")
    assert "  1   0.00000     20000      (one-qubit law)           1.00000" in out
    for row in ("  2   0.00000     20000      +0.08417                  1.00000",
                "  3   0.30640     5000       -0.02707                  0.69855",
                "  4   1.00000     2000       -0.07638                  0.01747",
                "  2   44            25", "  4   494           435",
                "  6   5487          5317", "  8   60967         60491"):
        assert row in out


def tomospectra_names(source):
    """Every dotted ``tomospectra`` name ``source`` uses, as (module, attribute path).

    A name bound by ``import tomospectra[.sub] [as x]`` or ``from
    tomospectra[.sub] import y [as x]`` is followed through each attribute
    chain rooted at it, so ``ts.models.overcomplete_law`` yields
    ("tomospectra", ("models", "overcomplete_law")).
    """
    tree = ast.parse(source)
    bound, names = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "tomospectra":
                    if alias.asname:
                        bound[alias.asname] = (alias.name, ())
                    else:
                        bound["tomospectra"] = ("tomospectra", ())
                    names.add((alias.name, ()))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "tomospectra":
            for alias in node.names:
                bound[alias.asname or alias.name] = (node.module, (alias.name,))
                names.add((node.module, (alias.name,)))
    for node in ast.walk(tree):
        chain = []
        while isinstance(node, ast.Attribute):
            chain.insert(0, node.attr)
            node = node.value
        if chain and isinstance(node, ast.Name) and node.id in bound:
            module, path = bound[node.id]
            names.add((module, path + tuple(chain)))
    return names


def readme_python_blocks():
    return re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(encoding="utf-8"),
                      re.DOTALL)


def resolves(module, path):
    obj = importlib.import_module(module)
    for attr in path:
        if isinstance(obj, types.ModuleType) and not hasattr(obj, attr):
            importlib.import_module("%s.%s" % (obj.__name__, attr))  # a submodule
        obj = getattr(obj, attr)
    return obj


SOURCES = {path.name: path.read_text(encoding="utf-8")
           for path in sorted((ROOT / "demos").glob("*.py"))}
SOURCES.update(("README block %d" % i, block) for i, block in enumerate(readme_python_blocks()))


@pytest.mark.parametrize("name", sorted(SOURCES))
def test_every_tomospectra_name_a_demo_or_the_readme_uses_exists(name):
    names = tomospectra_names(SOURCES[name])
    assert names
    missing = []
    for module, path in sorted(names):
        try:
            resolves(module, path)
        except (ImportError, AttributeError):
            missing.append(".".join((module,) + path))
    assert not missing, missing


def test_the_name_reader_follows_imports_and_attribute_chains():
    source = ("import tomospectra as ts\n"
              "from tomospectra.gof import estimate_rank as er\n"
              "ts.models.overcomplete_law(2, 100).radius\n"
              "er.missing\n")
    assert tomospectra_names(source) == {
        ("tomospectra", ()), ("tomospectra", ("models",)),
        ("tomospectra", ("models", "overcomplete_law")),
        ("tomospectra.gof", ("estimate_rank",)), ("tomospectra.gof", ("estimate_rank", "missing"))}
    with pytest.raises(AttributeError):
        resolves("tomospectra.gof", ("estimate_rank", "missing"))
