"""Import hygiene: the public API, the register helpers, the names the benchmark wraps,
and what a fresh import loads.
"""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

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


def numpy_calls(path, names):
    """Calls or imports of ``numpy`` functions named in ``names`` in ``path``."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Attribute) and node.attr in names:
            found.append("line %d: %s" % (node.lineno, node.attr))
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += ["line %d: %s" % (node.lineno, a.name)
                      for a in node.names if a.name in names]
    return found


def test_register_products_live_in_pauli_only():
    """Kronecker chains and per-qubit contractions go through ``pauli``'s helpers."""
    package = ROOT / "src" / "tomospectra"
    offenders = {path.name: numpy_calls(path, {"kron", "tensordot"})
                 for path in sorted(package.glob("*.py")) if path.name != "pauli.py"}
    assert {name: found for name, found in offenders.items() if found} == {}
    assert numpy_calls(package / "pauli.py", {"kron", "tensordot"})


def test_the_born_rule_lives_in_estimation_only():
    """Both schemes clip their probabilities in one ``estimation`` helper, ``ensemble`` in none.

    While the complete scheme clipped its own projector probabilities in
    ``ensemble``, a state the overcomplete scheme refused ran there as a
    different, clipped state.
    """
    package = ROOT / "src" / "tomospectra"
    assert numpy_calls(package / "ensemble.py", {"clip"}) == []
    assert len(numpy_calls(package / "estimation.py", {"clip"})) == 1


def test_the_law_choice_lives_in_the_library_only():
    """``cli`` names no law constructor and ``ensemble`` no law class.

    ``models.overcomplete_law`` and ``ExperimentConfig.law`` choose the
    law.  While ``cli`` held its own copy of the choice, the library had
    no answer to which law describes an ensemble, and while ``predict``
    built its own semicircle, it reported another law than the one
    ``analyze`` overlaid at n = 1.
    """
    def names(module):
        tree = ast.parse((ROOT / "src" / "tomospectra" / module).read_text())
        return {getattr(node, "id", None) or getattr(node, "attr", None) or node.name
                for node in ast.walk(tree)
                if isinstance(node, (ast.Name, ast.Attribute, ast.alias))}

    constructors = {"SemicircleModel", "SingleQubitModel", "for_state"}
    assert names("cli.py") & (constructors | {"laplace_model"}) == set()
    assert names("ensemble.py") & constructors == set()


def test_benchmark_tracer_names_exist_on_ensemble():
    """Every call the benchmark tracer wraps is still looked up on ``ensemble``.

    The tracer skips a name the package no longer has, so a function that
    moves out of ``tomospectra.ensemble``'s namespace would make its
    per-layer metric read 0 without failing the benchmark.  The list is
    read from the source with ``ast``, so nothing under ``benchmarks/`` is
    imported or written.
    """
    import tomospectra.ensemble

    tree = ast.parse((ROOT / "benchmarks" / "tracing.py").read_text())
    [calls] = [ast.literal_eval(node.value) for node in tree.body
               if isinstance(node, ast.Assign)
               and any(getattr(t, "id", None) == "ENSEMBLE_CALLS" for t in node.targets)]
    assert calls
    assert [attr for attr, _ in calls if not hasattr(tomospectra.ensemble, attr)] == []


COLD_START = r"""
import json, sys, tempfile

HEAVY = ("scipy", "concurrent.futures", "multiprocessing")

def heavy_modules():
    return sorted(m for m in sys.modules
                  if any(m == h or m.startswith(h + ".") for h in HEAVY))

import tomospectra as ts
import tomospectra.cli
after_import = heavy_modules()

config = ts.ExperimentConfig.overcomplete(
    ts.StateSpec(kind="ghz_plus_noise", n=3, q=0.6),
    ts.CountModel(ts.MULTINOMIAL, 200), replicas=3, master_seed=11)
with tempfile.TemporaryDirectory() as tmp:
    loaded = ts.load_ensemble(ts.save_ensemble(ts.run_ensemble(config, workers=1), tmp))
    loaded.summary()
rank_report = ts.estimate_rank(loaded.spectra[0], 3, 200).to_json()
a2_cdf = ts.a2_null_cdf(2.0)
after_rank_test = heavy_modules()

laplace = ts.laplace_model(3, 1e5)
single_qubit_cdf = ts.SingleQubitModel(100).cdf(0.5)
after_models = heavy_modules()

with tempfile.TemporaryDirectory() as tmp:
    one, three = tmp + "/one", tmp + "/three"
    exit_codes = [tomospectra.cli.main(argv) for argv in (
        ["predict", "--qubits", "3", "--counts", "100"],
        ["min-counts", "--qubits", "6", "--q", "0.8"],
        ["simulate", "--qubits", "1", "--counts", "100", "--reps", "20",
         "--threads", "1", "--out", one],
        ["analyze", "--in", one],
        ["simulate", "--qubits", "3", "--state", "ghz", "--q", "0.6", "--counts", "200",
         "--reps", "2", "--threads", "1", "--out", three],
        ["rank-test", "--in", three],
    )]
after_cli = heavy_modules()

print(json.dumps({
    "after_import": after_import,
    "after_rank_test": after_rank_test,
    "after_models": after_models,
    "after_cli": after_cli,
    "exit_codes": exit_codes,
    "row": loaded.spectra[0].tolist(),
    "rank_report": rank_report,
    "a2_cdf": a2_cdf,
    "single_qubit_cdf": single_qubit_cdf,
    "laplace": [laplace.center, laplace.alpha],
}))
"""


def test_import_loads_no_scipy():
    """A fresh import, a one-worker run, every model and every CLI command leave SciPy unloaded.

    SciPy is a test-only dependency: the package itself, the one-qubit law
    included, runs on NumPy, click and the standard library.  The pytest
    process has SciPy loaded already, hence the subprocess.
    """
    from tomospectra import SingleQubitModel, a2_null_cdf, estimate_rank, laplace_model

    path = filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    out = subprocess.run([sys.executable, "-c", COLD_START], env=env, cwd=ROOT,
                         capture_output=True, text=True, check=True, timeout=120)
    cold = json.loads(out.stdout.splitlines()[-1])
    assert cold["after_import"] == []
    assert cold["after_rank_test"] == []
    assert cold["after_models"] == []
    assert cold["after_cli"] == []
    assert cold["exit_codes"] == [0] * 6
    # the cold process gives the in-process values, and the lazy import resolves
    assert cold["rank_report"] == estimate_rank(cold["row"], 3, 200).to_json()
    assert cold["a2_cdf"] == a2_null_cdf(2.0)
    assert cold["single_qubit_cdf"] == SingleQubitModel(100).cdf(0.5)
    laplace = laplace_model(3, 1e5)
    assert cold["laplace"] == [laplace.center, laplace.alpha]


def third_party_imports(package):
    """Top-level modules outside the standard library imported anywhere under ``package``.

    ``ast.walk`` reaches imports inside functions too, so a lazy import counts.
    """
    found = set()
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                found.update(a.name.split(".")[0] for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found.add(node.module.split(".")[0])
    return found - set(sys.stdlib_module_names) - {"tomospectra"}


def requirement_names(requirements):
    return {re.match(r"[A-Za-z0-9_.-]+", req).group(0).lower().replace("-", "_")
            for req in requirements}


def test_pyproject_version_is_the_package_version():
    """A versioned output change edits both by hand; they must agree."""
    import tomospectra

    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    assert project["version"] == tomospectra.__version__


def test_imports_match_the_declared_dependencies():
    """The package imports exactly its run-time dependencies, and SciPy is test-only."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads((ROOT / "pyproject.toml").read_text())["project"]
    runtime = requirement_names(project["dependencies"])
    assert third_party_imports(ROOT / "src" / "tomospectra") == runtime
    extras = {name: requirement_names(reqs)
              for name, reqs in project["optional-dependencies"].items()}
    assert "scipy" not in runtime
    assert [name for name, reqs in extras.items() if "scipy" in reqs] == ["test"]
