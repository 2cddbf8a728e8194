"""The command-line surface: flags, formats, files, exit codes."""

import json

import click
import jsonschema
import numpy as np
import pytest

import tomospectra
from tomospectra import models
from tomospectra.cli import HISTOGRAM_FILE, OVERLAY_FILE, SUMMARY_FILE, main
from tomospectra.ensemble import load_ensemble
from tomospectra.pauli import STATE_KINDS
from tomospectra.schemas import load_schema


THREADS_ENV = "TOMOSPECTRA_THREADS"


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
        ("predict", "--qubits", "3", "--counts", "100", "--rank", "9"),
        ("min-counts", "--qubits", "3", "--q", "1.0"),
        ("min-counts", "--qubits", "3"),
        (),
        ("no-such-command",),
        ("predict", "--qubits", "3", "--counts", "100", "--q", "-0.2"),
        ("min-counts", "--qubits", "11", "--q", "0.5"),
        ("min-counts", "--qubits", "3", "--q", "-0.5"),
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
    code, out, _ = run_cli(capsys, "--version")
    assert code == 0 and out.strip() == "tomospectra, version %s" % tomospectra.__version__
    code, out, _ = run_cli(capsys, "--help")
    assert code == 0 and "simulate" in out


@pytest.mark.parametrize("q", ["0", "0.5"])
@pytest.mark.parametrize("rank", ["0", "1", "2", "4"])
def test_predict_prints_min_counts_for_a_rank_1_bulk_only(capsys, q, rank):
    """min_counts is the rank-1 threshold; q = 0, r = 0 and r = 2**n are white noise."""
    doc = run_json(capsys, "predict", "--qubits", "2", "--counts", "100", "--q", q,
                   "--rank", rank)
    validate(doc, "predict")
    if (q, rank) == ("0.5", "1"):
        assert doc["min_counts"] == 100
    else:
        assert "min_counts" not in doc


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


def test_simulate_threads_are_byte_identical(tmp_path, capsys, monkeypatch):
    """--threads, or else $TOMOSPECTRA_THREADS, schedules the run and changes no byte.

    120 replicas at n=4 are three stacks, so two workers run them in a pool.
    """
    spectra = []
    for name, threads, env in (("flag", ["--threads", "1"], None), ("env", [], "2"),
                               ("flag-over-env", ["--threads", "2"], "abc")):
        if env is None:
            monkeypatch.delenv(THREADS_ENV, raising=False)
        else:
            monkeypatch.setenv(THREADS_ENV, env)
        out = tmp_path / name
        code, _, err = run_cli(
            capsys,
            "simulate", "--qubits", "4", "--counts", "50", "--reps", "120",
            "--seed", "11", *threads, "--out", str(out),
        )
        assert code == 0, err
        spectra.append((out / "spectra.csv").read_bytes())
    assert spectra[1] == spectra[0] and spectra[2] == spectra[0]


SIMULATE_USAGE_ERRORS = [
    # overcomplete scheme must not take --total-counts
    (("simulate", "--qubits", "2", "--counts", "50", "--total-counts", "100",
      "--reps", "2", "--out", "x"), None),
    # complete scheme must not take --counts
    (("simulate", "--qubits", "2", "--scheme", "complete", "--counts", "50",
      "--total-counts", "100", "--reps", "2", "--out", "x"), None),
    (("simulate", "--qubits", "2", "--scheme", "complete", "--reps", "2",
      "--out", "x"), None),
    (("simulate", "--qubits", "2", "--reps", "2", "--out", "x"), None),
    (("simulate", "--qubits", "2", "--counts", "50", "--reps", "0", "--out", "x"), None),
    (("simulate", "--qubits", "2", "--counts", "50", "--reps", "2"), None),
    (("simulate", "--qubits", "2", "--state", "plasma", "--counts", "50",
      "--reps", "2", "--out", "x"), None),
    # negative signal weight is rejected by the state validation
    (("simulate", "--qubits", "2", "--state", "ghz", "--q", "-0.2",
      "--counts", "50", "--reps", "2", "--out", "x"), None),
    # the worker count, from the flag or from the environment
    (("simulate", "--qubits", "1", "--counts", "10", "--reps", "2", "--threads", "0",
      "--out", "x"), None),
    (("simulate", "--qubits", "1", "--counts", "10", "--reps", "2", "--out", "x"), "abc"),
    # a state seed outside the 64-bit Philox key word, caught before the run starts
    (("simulate", "--qubits", "2", "--state", "pure", "--q", "0.5", "--state-seed", "-1",
      "--counts", "50", "--reps", "2", "--out", "x"), None),
    (("simulate", "--qubits", "2", "--counts", "50", "--reps", "2", "--seed", "-1",
      "--out", "x"), None),
    (("simulate", "--qubits", "2", "--scheme", "complete", "--total-counts", "0",
      "--reps", "2", "--out", "x"), None),
    # a master seed past 2**64 would replay the stream of seed - 2**64
    (("simulate", "--qubits", "2", "--counts", "50", "--reps", "2",
      "--seed", "18446744073709551616", "--out", "x"), None),
    (("simulate", "--qubits", "1", "--counts", "10", "--reps", "2", "--out", "x"), "2.5"),
    (("simulate", "--qubits", "1", "--counts", "10", "--reps", "2", "--out", "x"), "0"),
    # replica indices past 2**32 - 1 have no seed stream, refused before any row is allocated
    (("simulate", "--qubits", "1", "--counts", "10", "--reps", "4294967297", "--out", "x"), None),
]


@pytest.mark.parametrize("argv, threads_env", SIMULATE_USAGE_ERRORS,
                         ids=["argv%d" % i for i in range(len(SIMULATE_USAGE_ERRORS))])
def test_simulate_usage_errors(tmp_path, capsys, monkeypatch, argv, threads_env):
    if threads_env is None:
        monkeypatch.delenv(THREADS_ENV, raising=False)
    else:
        monkeypatch.setenv(THREADS_ENV, threads_env)
    out = tmp_path / "run"
    argv = [a if a != "x" else str(out) for a in argv]
    code, _, err = run_cli(capsys, *argv)
    assert code == 1
    assert err
    if threads_env is not None:  # click names the variable the bad value came from
        assert THREADS_ENV in err
    assert not out.exists()


SHORT_STATE_NAMES = {"wn": "white_noise", "white-noise": "white_noise",
                     "pure": "pure_plus_noise", "rank": "rank_r_plus_noise",
                     "ghz": "ghz_plus_noise", "dicke": "dicke_plus_noise"}


@pytest.mark.parametrize("name", sorted(SHORT_STATE_NAMES) + list(STATE_KINDS))
def test_simulate_takes_every_short_name_and_every_stored_kind(tmp_path, capsys, name):
    """A short alias or a state kind a config.json can hold; an explicit matrix is not one."""
    out = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--qubits", "1", "--state", name,
                           "--excitations", "1", "--counts", "10", "--reps", "2",
                           "--out", str(out))
    if name == "explicit_matrix":
        assert code == 1
        assert "unknown state 'explicit_matrix' (use wn, pure, rank, ghz or dicke)" in err
        assert not out.exists()
    else:
        assert code == 0, err
        assert load_ensemble(str(out)).config.state.kind == SHORT_STATE_NAMES.get(name, name)


def test_simulate_aborted_by_ctrl_c_exits_130(tmp_path, capsys, monkeypatch):
    def interrupted(*args, **kwargs):
        raise KeyboardInterrupt

    monkeypatch.setattr("tomospectra.cli.run_ensemble", interrupted)
    out = tmp_path / "run"
    code, _, err = run_cli(capsys, "simulate", "--qubits", "1", "--counts", "10",
                           "--reps", "2", "--out", str(out))
    assert code == 130
    assert "aborted" in err
    assert not out.exists()


def test_a_click_runtime_error_exits_2(tmp_path, capsys, monkeypatch):
    def failing(*args, **kwargs):
        raise click.ClickException("the disk is read-only")

    monkeypatch.setattr("tomospectra.cli.save_ensemble", failing)
    code, _, err = run_cli(capsys, "simulate", "--qubits", "1", "--counts", "10",
                           "--reps", "2", "--out", str(tmp_path / "run"))
    assert code == 2
    assert "Error: the disk is read-only" in err


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
    # a signal state at q = 0 is white noise too: the rank-0 law, as in `predict`
    for state in ("wn", "ghz"):
        ens_dir = simulate_small(tmp_path / state, capsys, state=state)
        doc = run_json(capsys, "analyze", "--in", str(ens_dir), "--bins", "24")
        validate(doc, "summary")
        assert doc["model"]["family"] == "semicircle"
        assert doc["model"]["center"] == 0.25
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


def test_analyze_reads_a_full_rank_signal_as_white_noise(tmp_path, capsys):
    """A rank-2**n signal is I/2**n, so the state is white noise and gets its law."""
    ens_dir = simulate_small(tmp_path, capsys, state="rank", state_rank="4", q="0.5",
                             counts="100", reps="20")
    doc = run_json(capsys, "analyze", "--in", str(ens_dir))
    assert doc["model"]["family"] == "semicircle"
    assert doc["model"]["center"] == 0.25
    assert doc["model"]["radius"] == models.semicircle_radius(2, 100)


@pytest.mark.parametrize("rank", ["2", "4"])
def test_predict_and_analyze_build_one_bulk(tmp_path, capsys, rank):
    """For one state, `predict` and `analyze`'s overlay give the same semicircle.

    A rank-4 signal at n=2 is I/4: `predict` reports it as asked, with
    the white-noise bulk.
    """
    predicted = run_json(capsys, "predict", "--qubits", "2", "--counts", "100",
                         "--q", "0.5", "--rank", rank)
    validate(predicted, "predict")
    assert predicted["rank"] == int(rank)
    ens_dir = simulate_small(tmp_path, capsys, state="rank", state_rank=rank, q="0.5",
                             counts="100", reps="20")
    overlay = run_json(capsys, "analyze", "--in", str(ens_dir))["model"]
    assert (overlay["center"], overlay["radius"]) == (predicted["center"], predicted["radius"])
    if rank == "4":
        assert predicted["center"] == 0.25
        assert predicted["radius"] == models.semicircle_radius(2, 100)


def test_analyze_single_qubit_family(tmp_path, capsys):
    ens_dir = simulate_small(tmp_path, capsys, qubits="1", counts="100", reps="30")
    doc = run_json(capsys, "analyze", "--in", str(ens_dir))
    assert doc["model"]["family"] == "single_qubit"
    assert doc["model"]["counts"] == 100


@pytest.mark.parametrize("state, family", [
    ({"state": "pure", "q": "0"}, "single_qubit"),
    ({"state": "rank", "state_rank": "2", "q": "0.5"}, "single_qubit"),
    ({"state": "pure", "q": "0.5"}, "semicircle"),
], ids=["pure-q0", "rank2", "pure"])
def test_analyze_gives_every_one_qubit_white_noise_the_one_qubit_law(tmp_path, capsys, state,
                                                                     family):
    """At n=1 a state that is I/2 gets the one-qubit law, whatever its kind (wn: see above)."""
    ens_dir = simulate_small(tmp_path, capsys, qubits="1", counts="100", reps="30", **state)
    assert run_json(capsys, "analyze", "--in", str(ens_dir))["model"]["family"] == family


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


def test_analyze_reads_a_complete_ensemble_below_one_count(tmp_path, capsys):
    """Any positive budget simulate accepts has a Laplace law analyze can draw."""
    out = tmp_path / "ens"
    code, _, err = run_cli(
        capsys,
        "simulate", "--qubits", "1", "--scheme", "complete", "--total-counts", "0.5",
        "--reps", "2", "--seed", "19", "--out", str(out),
    )
    assert code == 0, err
    doc = run_json(capsys, "analyze", "--in", str(out))
    assert doc["model"]["alpha"] == pytest.approx(0.5, rel=1e-15)


def test_analyze_separate_out_dir(tmp_path, capsys):
    ens_dir = simulate_small(tmp_path, capsys)
    report_dir = tmp_path / "report"
    doc = run_json(
        capsys, "analyze", "--in", str(ens_dir), "--out", str(report_dir)
    )
    assert (report_dir / HISTOGRAM_FILE).exists()
    assert (report_dir / OVERLAY_FILE).exists()
    assert doc["files"]["summary"].startswith(str(report_dir))


def test_analyze_table_flattens_the_model_and_files(tmp_path, capsys):
    ens_dir = simulate_small(tmp_path, capsys)
    code, out, _ = run_cli(capsys, "analyze", "--in", str(ens_dir), "--bins", "8")
    assert code == 0
    rows = dict(line.split(None, 1) for line in out.strip().splitlines())
    assert rows["model.family"] == "semicircle"
    assert rows["model.center"] == "0.25"
    assert rows["files.histogram"] == str(ens_dir / HISTOGRAM_FILE)
    assert rows["bins"] == "8"


def test_analyze_error_paths(tmp_path, capsys):
    ens_dir = simulate_small(tmp_path, capsys)
    code, _, err = run_cli(capsys, "analyze", "--in", str(ens_dir), "--bins", "0")
    assert code == 1
    assert "Invalid value for '--bins': 0 is not in the range x>=1" in err
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
    code, out, _ = run_cli(capsys, "rank-test", "--eigenvalues", str(eig_path), "--counts",
                           "3000", "--significance", "0.999999")
    assert code == 0
    assert out.strip().endswith("chosen rank: none accepted at significance 0.999999")


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
        # no events per setting
        ("rank-test", "--eigenvalues", str(eig_path), "--counts", "0"),
    ]
    for argv in cases:
        code, _, err = run_cli(capsys, *argv)
        assert code == 1, argv
        assert err


def test_rank_test_needs_counts_for_a_complete_ensemble(tmp_path, capsys):
    out = tmp_path / "ens"
    code, _, err = run_cli(capsys, "simulate", "--qubits", "3", "--scheme", "complete",
                           "--total-counts", "30000", "--reps", "2", "--out", str(out))
    assert code == 0, err
    code, _, err = run_cli(capsys, "rank-test", "--in", str(out))
    assert code == 1
    assert "required for complete-scheme ensembles" in err


@pytest.mark.parametrize("content, message", [
    (b"0.5\n\xff0.5\n", "cannot parse"),
    (b"", "expected 2 eigenvalues, got 0"),
    (b"1.0\n", "expected 2 eigenvalues, got 1"),
], ids=["not-utf-8", "empty", "one-value"])
def test_rank_test_reports_a_bad_eigenvalue_file_as_a_usage_error(tmp_path, capsys, content,
                                                                  message):
    """A file that is not UTF-8 cannot be parsed; too few values are too few eigenvalues.

    A stray byte used to exit 2 with the raw codec error, and 0 or 1
    values read as a qubit number out of range, which the user never gave.
    """
    eig_path = tmp_path / "eigs.txt"
    eig_path.write_bytes(content)
    code, _, err = run_cli(
        capsys, "rank-test", "--eigenvalues", str(eig_path), "--counts", "100"
    )
    assert code == 1
    assert message in err
    assert "qubit number" not in err


def test_rank_test_reports_a_nan_eigenvalue_as_a_usage_error(tmp_path, capsys):
    """A NaN eigenvalue used to exit 0 with a NaN statistic, which is not JSON."""
    eig_path = tmp_path / "eigs.txt"
    eig_path.write_text("nan " + " ".join(["0.125"] * 7) + "\n")
    code, out, err = run_cli(capsys, "rank-test", "--eigenvalues", str(eig_path),
                             "--counts", "100", "--format", "json")
    assert code == 1
    assert "eigenvalues must be finite" in err
    assert out == ""


def test_rank_test_rejects_wrong_eigenvalue_count(tmp_path, capsys):
    eig_path = tmp_path / "seven.txt"
    write_eigenvalues(eig_path, np.linspace(0.0, 0.25, 7))
    code, _, err = run_cli(
        capsys, "rank-test", "--eigenvalues", str(eig_path), "--counts", "100"
    )
    assert code == 1
    assert "eigenvalues" in err
