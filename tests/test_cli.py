"""The command-line surface: flags, formats, files, exit codes."""

import json

import jsonschema
import numpy as np
import pytest

from tomospectra import models
from tomospectra.cli import HISTOGRAM_FILE, OVERLAY_FILE, SUMMARY_FILE, main
from tomospectra.ensemble import load_ensemble
from tomospectra.schemas import load_schema


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    return json.loads(out)


def validate(doc, schema_name):
    jsonschema.validate(doc, load_schema(schema_name))


# --- predict / min-counts -------------------------------------------------------


def test_predict_white_noise(capsys):
    doc = run_json(capsys, "predict", "--qubits", "6", "--counts", "100")
    validate(doc, "predict")
    assert doc["rank"] == 0
    assert doc["center"] == pytest.approx(1 / 64, rel=1e-12)
    assert doc["radius"] == pytest.approx(0.115741, abs=1e-6)
    assert doc["width"] == pytest.approx(2 * doc["radius"], rel=1e-12)
    assert "min_counts" not in doc
    assert doc["physicality_probability"] < 1e-6


def test_predict_with_signal(capsys):
    doc = run_json(
        capsys, "predict", "--qubits", "6", "--counts", "132921", "--q", "0.8"
    )
    validate(doc, "predict")
    assert doc["rank"] == 1  # defaults to 1 once q > 0
    assert doc["center"] == pytest.approx(0.2 / 63, abs=1e-7)
    # the quoted radius for a single signal eigenvalue skips the rank shrink
    assert doc["radius"] == pytest.approx(models.semicircle_radius(6, 132921), rel=1e-12)
    assert doc["min_counts"] == 132921
    assert doc["physicality_probability"] == 1.0


def test_predict_table_output(capsys):
    code, out, _ = run_cli(capsys, "predict", "--qubits", "2", "--counts", "400")
    assert code == 0
    lines = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert lines["center"].strip() == "0.25"
    assert float(lines["radius"]) == pytest.approx(
        models.semicircle_radius(2, 400), abs=1e-6
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("predict", "--qubits", "0", "--counts", "100"),
        ("predict", "--qubits", "11", "--counts", "100"),
        ("predict", "--qubits", "3", "--counts", "0"),
        ("predict", "--qubits", "3", "--counts", "100", "--q", "1.0"),
        ("predict", "--qubits", "3", "--counts", "100", "--rank", "8"),
        ("min-counts", "--qubits", "3", "--q", "1.0"),
        ("min-counts", "--qubits", "3"),
        (),
        ("no-such-command",),
    ],
)
def test_usage_errors_exit_1(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err  # something was said on stderr


def test_min_counts_outputs(capsys):
    code, out, _ = run_cli(capsys, "min-counts", "--qubits", "6", "--q", "0.8")
    assert code == 0
    assert out.strip() == "132921"
    doc = run_json(capsys, "min-counts", "--qubits", "1", "--q", "0.5")
    validate(doc, "min_counts")
    assert doc["min_counts"] == 14


def test_version_and_help(capsys):
    assert run_cli(capsys, "--version")[0] == 0
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "simulate" in out


# --- simulate -------------------------------------------------------------------


def test_simulate_writes_ensemble(tmp_path, capsys):
    out = tmp_path / "run"
    doc = run_json(
        capsys,
        "simulate", "--qubits", "1", "--counts", "60", "--reps", "40",
        "--seed", "3", "--out", str(out),
    )
    validate(doc, "summary")
    assert doc["replicas"] == 40 and doc["qubits"] == 1
    assert doc["scheme"] == "overcomplete"
    assert doc["master_seed"] == 3
    ens = load_ensemble(str(out))
    assert ens.spectra.shape == (40, 2)
    assert ens.summary()["m2"] == doc["m2"]


def test_simulate_threads_are_byte_identical(tmp_path, capsys):
    dirs = []
    for threads, name in ((1, "a"), (2, "b")):
        out = tmp_path / name
        code, _, err = run_cli(
            capsys,
            "simulate", "--qubits", "2", "--counts", "50", "--reps", "30",
            "--seed", "11", "--threads", str(threads), "--out", str(out),
        )
        assert code == 0, err
        dirs.append(out)
    a = (dirs[0] / "spectra.csv").read_bytes()
    b = (dirs[1] / "spectra.csv").read_bytes()
    assert a == b


@pytest.mark.parametrize(
    "argv",
    [
        # overcomplete scheme must not take --total-counts
        ("simulate", "--qubits", "2", "--counts", "50", "--total-counts", "100",
         "--reps", "2", "--out", "x"),
        # complete scheme must not take --counts
        ("simulate", "--qubits", "2", "--scheme", "complete", "--counts", "50",
         "--total-counts", "100", "--reps", "2", "--out", "x"),
        ("simulate", "--qubits", "2", "--scheme", "complete", "--reps", "2",
         "--out", "x"),
        ("simulate", "--qubits", "2", "--reps", "2", "--out", "x"),
        ("simulate", "--qubits", "2", "--counts", "50", "--reps", "0", "--out", "x"),
        ("simulate", "--qubits", "2", "--counts", "50", "--reps", "2"),
        ("simulate", "--qubits", "2", "--state", "plasma", "--counts", "50",
         "--reps", "2", "--out", "x"),
        # negative signal weight is rejected by the state validation
        ("simulate", "--qubits", "2", "--state", "ghz", "--q", "-0.2",
         "--counts", "50", "--reps", "2", "--out", "x"),
    ],
)
def test_simulate_usage_errors(tmp_path, capsys, argv):
    argv = [a if a != "x" else str(tmp_path / "run") for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err


def test_simulate_poisson_empty_setting_is_a_runtime_error(tmp_path, capsys):
    """Poisson mode aborts the run when a setting draws zero events.

    Each setting is empty with probability e^-N; at N = 1 the very first
    setting of replica 0 already is, and the message names both.
    """
    out = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--qubits", "2", "--counts", "1",
                           "--count-mode", "poisson", "--reps", "10", "--out", str(out))
    assert code == 2
    assert "replica 0, setting 0 drew zero events" in err
    assert not out.exists()


def test_simulate_complete_scheme(tmp_path, capsys):
    out = tmp_path / "run"
    doc = run_json(
        capsys,
        "simulate", "--qubits", "2", "--scheme", "complete",
        "--total-counts", "20000", "--reps", "5", "--seed", "1",
        "--out", str(out),
    )
    validate(doc, "summary")
    assert doc["scheme"] == "complete"
    # the identity-component rescale pins every trace, hence the pooled mean
    assert doc["pooled_mean"] == pytest.approx(0.25, abs=1e-12)


# --- analyze --------------------------------------------------------------------


def simulate_small(tmp_path, capsys, **kw):
    args = {
        "qubits": "2", "counts": "80", "reps": "25", "seed": "7",
        "state": "wn", "q": "0.0",
    }
    args.update({k.replace("_", "-"): v for k, v in kw.items()})
    out = tmp_path / "ens"
    argv = ["simulate", "--out", str(out)]
    for key, val in args.items():
        argv += ["--%s" % key, val]
    code, _, err = run_cli(capsys, *argv)
    assert code == 0, err
    return out


def test_analyze_semicircle_overlay(tmp_path, capsys):
    ens_dir = simulate_small(tmp_path, capsys)
    doc = run_json(capsys, "analyze", "--in", str(ens_dir), "--bins", "24")
    validate(doc, "summary")
    assert doc["model"]["family"] == "semicircle"
    assert doc["model"]["radius"] == pytest.approx(
        models.semicircle_radius(2, 80), rel=1e-12
    )
    assert 0.0 <= doc["sup_cdf_distance"] <= 1.0
    hist = (ens_dir / HISTOGRAM_FILE).read_text().splitlines()
    assert hist[0] == "bin_left,bin_right,count,density"
    assert len(hist) == 25
    counts = [int(line.split(",")[2]) for line in hist[1:]]
    assert sum(counts) == 25 * 4  # every pooled eigenvalue lands in a bin
    overlay = (ens_dir / OVERLAY_FILE).read_text().splitlines()
    assert overlay[0] == "lambda,pdf,cdf"
    assert len(overlay) == 514
    stored = json.loads((ens_dir / SUMMARY_FILE).read_text())
    assert stored == doc


def test_analyze_single_qubit_family(tmp_path, capsys):
    ens_dir = simulate_small(tmp_path, capsys, qubits="1", counts="100", reps="30")
    doc = run_json(capsys, "analyze", "--in", str(ens_dir))
    assert doc["model"]["family"] == "single_qubit"
    assert doc["model"]["counts"] == 100


def test_analyze_laplace_family(tmp_path, capsys):
    out = tmp_path / "ens"
    code, _, err = run_cli(
        capsys,
        "simulate", "--qubits", "2", "--scheme", "complete",
        "--total-counts", "30000", "--reps", "8", "--out", str(out),
    )
    assert code == 0, err
    doc = run_json(capsys, "analyze", "--in", str(out))
    assert doc["model"]["family"] == "laplace"
    assert doc["model"]["alpha"] == pytest.approx(
        models.laplace_model(2, 30000).alpha, rel=1e-12
    )


def test_analyze_separate_out_dir(tmp_path, capsys):
    ens_dir = simulate_small(tmp_path, capsys)
    report_dir = tmp_path / "report"
    doc = run_json(
        capsys, "analyze", "--in", str(ens_dir), "--out", str(report_dir)
    )
    assert (report_dir / HISTOGRAM_FILE).exists()
    assert (report_dir / OVERLAY_FILE).exists()
    assert doc["files"]["summary"].startswith(str(report_dir))


def test_analyze_error_paths(tmp_path, capsys):
    # nonexistent path is a usage error (caught by the flag validation)
    code, _, _ = run_cli(capsys, "analyze", "--in", str(tmp_path / "missing"))
    assert code == 1
    # an existing but empty directory is a runtime error
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = run_cli(capsys, "analyze", "--in", str(empty))
    assert code == 2
    assert "error:" in err


def test_analyze_detects_corruption(tmp_path, capsys):
    ens_dir = simulate_small(tmp_path, capsys)
    spectra = ens_dir / "spectra.csv"
    data = spectra.read_bytes()
    spectra.write_bytes(data[:-20] + b"0" * 20)
    code, _, err = run_cli(capsys, "analyze", "--in", str(ens_dir))
    assert code == 2
    assert "digest" in err


# --- rank-test ------------------------------------------------------------------


def write_eigenvalues(path, values):
    path.write_text("\n".join(repr(float(v)) for v in values) + "\n")


def synthetic_rank1_spectrum():
    rng = np.random.default_rng(42)
    center = 0.4 / 7  # 1 - signal weight, spread over 7 noise eigenvalues
    radius = models.semicircle_radius(3, 3000, 1)
    noise = center + radius * (2.0 * rng.beta(1.5, 1.5, 7) - 1.0)
    return np.sort(np.concatenate([noise, [0.6]]))


def test_rank_test_from_file(tmp_path, capsys):
    eig_path = tmp_path / "eigs.txt"
    write_eigenvalues(eig_path, synthetic_rank1_spectrum())
    doc = run_json(
        capsys, "rank-test", "--eigenvalues", str(eig_path), "--counts", "3000"
    )
    validate(doc, "rank_report")
    assert doc["qubits"] == 3  # inferred from the 8 eigenvalues
    assert doc["counts"] == 3000
    assert doc["chosen_rank"] == 1
    assert doc["source"] == str(eig_path)
    assert doc["candidates"][0]["p_eff"] == 0.0  # signal breaks the r=0 fit


def test_rank_test_table_format(tmp_path, capsys):
    eig_path = tmp_path / "eigs.txt"
    write_eigenvalues(eig_path, synthetic_rank1_spectrum())
    code, out, _ = run_cli(
        capsys, "rank-test", "--eigenvalues", str(eig_path), "--counts", "3000"
    )
    assert code == 0
    assert out.splitlines()[0].split() == [
        "rank", "center", "radius", "statistic", "p_value", "p_eff",
        "in_support", "signals",
    ]
    assert out.strip().endswith("chosen rank: 1")


def test_rank_test_from_ensemble(tmp_path, capsys):
    ens_dir = simulate_small(tmp_path, capsys, qubits="3", counts="500", reps="4")
    doc = run_json(
        capsys, "rank-test", "--in", str(ens_dir), "--replica", "2"
    )
    validate(doc, "rank_report")
    assert doc["counts"] == 500  # pulled from the stored config
    assert doc["qubits"] == 3
    assert doc["source"].endswith(":replica=2")


def test_rank_test_usage_errors(tmp_path, capsys):
    eig_path = tmp_path / "eigs.txt"
    write_eigenvalues(eig_path, synthetic_rank1_spectrum())
    ens_dir = simulate_small(tmp_path, capsys, qubits="3", counts="500", reps="4")
    cases = [
        # both inputs
        ("rank-test", "--eigenvalues", str(eig_path), "--in", str(ens_dir)),
        # neither input
        ("rank-test",),
        # counts required with a bare eigenvalue file
        ("rank-test", "--eigenvalues", str(eig_path)),
        # replica outside the stored range
        ("rank-test", "--in", str(ens_dir), "--replica", "99"),
        # significance bounds
        ("rank-test", "--in", str(ens_dir), "--significance", "1.0"),
        # qubit override contradicting the ensemble
        ("rank-test", "--in", str(ens_dir), "--qubits", "2"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err


def test_rank_test_rejects_wrong_eigenvalue_count(tmp_path, capsys):
    eig_path = tmp_path / "seven.txt"
    write_eigenvalues(eig_path, np.linspace(0.0, 0.25, 7))
    code, _, err = run_cli(
        capsys, "rank-test", "--eigenvalues", str(eig_path), "--counts", "100"
    )
    assert code == 1
    assert "eigenvalues" in err
