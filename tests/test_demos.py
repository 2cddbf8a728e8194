"""The demos that replay replicas through the estimator run to completion.

Each demo runs in a fresh interpreter with ``src`` on the import path, as
``python demos/<name>.py`` would from the repository root.
"""

import os
import subprocess
import sys
from pathlib import Path

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
