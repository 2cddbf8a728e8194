"""Ensemble runner, persistence round trips and failure modes."""

import functools
import hashlib
import json
import math
import os
import tempfile

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from tomospectra.ensemble import (
    CHECKSUM_FILE,
    CONFIG_FILE,
    SPECTRA_FILE,
    THREADS_ENV,
    ChecksumMismatchError,
    DimensionMismatchError,
    EnsembleRunError,
    ExperimentConfig,
    MalformedEnsembleError,
    SchemaVersionError,
    SpectrumEnsemble,
    empirical_moments,
    load_ensemble,
    replica_estimator,
    run_ensemble,
    save_ensemble,
)
from tomospectra.pauli import StateSpec
from tomospectra.sampling import MULTINOMIAL, POISSON, CountModel


def small_config(reps=8, seed=123, n=2, events=200):
    return ExperimentConfig.overcomplete(
        StateSpec(kind="white_noise", n=n),
        CountModel(mode=MULTINOMIAL, events_per_setting=events),
        replicas=reps,
        master_seed=seed,
    )


# --- config validation ---------------------------------------------------------


def test_config_scheme_compatibility():
    state = StateSpec(kind="white_noise", n=2)
    model = CountModel(mode=MULTINOMIAL, events_per_setting=100)
    with pytest.raises(ValueError):
        ExperimentConfig(state=state, scheme="overcomplete")  # no count model
    with pytest.raises(ValueError):
        ExperimentConfig(state=state, scheme="complete", count_model=model)
    with pytest.raises(ValueError):
        ExperimentConfig(
            state=state, scheme="overcomplete", count_model=model, total_counts=10.0
        )
    with pytest.raises(ValueError):
        ExperimentConfig(state=state, scheme="diagonal", count_model=model)
    with pytest.raises(ValueError):
        ExperimentConfig(state=state, scheme="complete", total_counts=-5.0)
    with pytest.raises(ValueError):
        small_config(reps=0)
    with pytest.raises(ValueError):
        small_config(seed=-1)
    with pytest.raises(TypeError):
        ExperimentConfig(state="white_noise", scheme="overcomplete", count_model=model)


def test_config_json_round_trip():
    for cfg in (
        small_config(),
        ExperimentConfig.complete(
            StateSpec(kind="ghz_plus_noise", n=3, q=0.7),
            total_counts=5e4,
            replicas=11,
            master_seed=9,
        ),
    ):
        assert ExperimentConfig.from_json(cfg.to_json()) == cfg


# --- running -------------------------------------------------------------------


def test_run_ensemble_shapes_and_rows():
    ens = run_ensemble(small_config())
    assert ens.spectra.shape == (8, 4)
    assert np.all(np.diff(ens.spectra, axis=1) >= 0)
    np.testing.assert_allclose(ens.spectra.sum(axis=1), 1.0, atol=1e-9)
    assert ens.n == 2 and ens.replicas == 8
    assert ens.pooled.shape == (32,)


def test_run_ensemble_deterministic_across_workers():
    cfg = small_config(reps=10)
    seq = run_ensemble(cfg, workers=1)
    par = run_ensemble(cfg, workers=3)
    np.testing.assert_array_equal(seq.spectra, par.spectra)


def test_run_ensemble_builds_the_probability_table_once(monkeypatch):
    """One table per run, however many batches; workers get it prebuilt."""
    import tomospectra.ensemble as ensemble_module

    calls = []
    build = ensemble_module.setting_probability_table

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(ensemble_module, "setting_probability_table", counted)
    cfg = ExperimentConfig.overcomplete(
        StateSpec(kind="rank_r_plus_noise", n=3, q=0.6, r=2, seed=4),
        CountModel(mode=MULTINOMIAL, events_per_setting=150),
        replicas=12, master_seed=31)
    batches = []
    seq = run_ensemble(cfg, workers=1, progress=lambda d, t: batches.append(d))
    assert len(batches) >= 4
    assert len(calls) == 1
    par = run_ensemble(cfg, workers=2)
    assert len(calls) == 2
    assert par.spectra.tobytes() == seq.spectra.tobytes()


def test_run_ensemble_extends_prefix():
    """Replica i's spectrum is independent of how many replicas follow."""
    short = run_ensemble(small_config(reps=4))
    long = run_ensemble(small_config(reps=9))
    np.testing.assert_array_equal(short.spectra, long.spectra[:4])


SPLIT_REPLICAS = 12


@functools.lru_cache(maxsize=None)
def split_case(n, scheme, mode):
    """A 12-replica run, its estimator and the estimates one replica at a time."""
    state = StateSpec(kind="ghz_plus_noise", n=n, q=0.6)
    if scheme == "complete":
        config = ExperimentConfig.complete(state, 2e4 * 2**n, replicas=SPLIT_REPLICAS,
                                           master_seed=n)
    else:
        config = ExperimentConfig.overcomplete(state, CountModel(mode, 200),
                                               replicas=SPLIT_REPLICAS, master_seed=n)
    estimate = replica_estimator(config)
    singles = np.concatenate([estimate([r]) for r in range(SPLIT_REPLICAS)])
    return estimate, singles, run_ensemble(config).spectra


@hyp_settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([1, 2, 3]),
       case=st.sampled_from([("overcomplete", MULTINOMIAL), ("overcomplete", POISSON),
                             ("complete", None)]),
       cuts=st.sets(st.integers(min_value=1, max_value=SPLIT_REPLICAS - 1)))
def test_any_split_into_stacks_replays_the_run(n, case, cuts):
    """Stacked estimates are the one-replica estimates, bit for bit, however split."""
    estimate, singles, spectra = split_case(n, *case)
    edges = [0, *sorted(cuts), SPLIT_REPLICAS]
    # NumPy index arrays work as well as ranges
    stacked = np.concatenate([estimate(np.arange(a, b)) for a, b in zip(edges, edges[1:])])
    assert stacked.tobytes() == singles.tobytes()
    assert np.linalg.eigvalsh(stacked).tobytes() == spectra.tobytes()


def test_run_ensemble_progress_callback():
    calls = []
    run_ensemble(small_config(reps=12), progress=lambda d, t: calls.append((d, t)))
    assert calls[-1] == (12, 12)
    dones = [d for d, _ in calls]
    assert dones == sorted(dones)
    assert all(t == 12 for _, t in calls)


def test_run_ensemble_worker_env_and_validation(monkeypatch):
    monkeypatch.setenv(THREADS_ENV, "2")
    cfg = small_config(reps=6)
    ens = run_ensemble(cfg)  # workers=None -> env var
    np.testing.assert_array_equal(ens.spectra, run_ensemble(cfg, workers=1).spectra)
    with pytest.raises(ValueError):
        run_ensemble(cfg, workers=0)


def test_run_ensemble_failure_reports_completed():
    # Poisson with one expected event per setting hits an all-zero draw
    # almost immediately; the error records how far the run got
    cfg = ExperimentConfig.overcomplete(
        StateSpec(kind="white_noise", n=1),
        CountModel(mode=POISSON, events_per_setting=1),
        replicas=2000,
        master_seed=0,
    )
    with pytest.raises(EnsembleRunError) as err:
        run_ensemble(cfg)
    assert 0 <= err.value.completed < 2000
    assert "replicas" in str(err.value)


def test_complete_scheme_runs():
    cfg = ExperimentConfig.complete(
        StateSpec(kind="white_noise", n=2),
        total_counts=40000.0,
        replicas=6,
        master_seed=5,
    )
    ens = run_ensemble(cfg)
    assert ens.spectra.shape == (6, 4)
    np.testing.assert_allclose(ens.spectra.sum(axis=1), 1.0, atol=1e-9)
    summary = ens.summary()
    assert summary["scheme"] == "complete"


# --- the ensemble container ------------------------------------------------------


def test_spectrum_ensemble_validation():
    cfg = small_config(reps=2)
    good = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.1, 0.4, 0.5]])
    ens = SpectrumEnsemble(config=cfg, spectra=good)
    with pytest.raises(ValueError):
        ens.spectra[0, 0] = 5.0  # read-only view
    with pytest.raises(ValueError):
        SpectrumEnsemble(config=cfg, spectra=good[:1])  # wrong replica count
    with pytest.raises(ValueError):
        SpectrumEnsemble(config=cfg, spectra=good[:, ::-1])  # descending
    with pytest.raises(ValueError):
        SpectrumEnsemble(config=cfg, spectra=good + 0.1)  # trace off


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_spectrum_ensemble_rejects_non_finite_rows(bad):
    # NaN fails every comparison, so sorting and trace checks alone pass it
    rows = np.array([[0.1, 0.2, 0.3, 0.4], [bad, 0.1, 0.4, 0.5]])
    with pytest.raises(ValueError, match="finite"):
        SpectrumEnsemble(config=small_config(reps=2), spectra=rows)


def test_moments_by_hand():
    cfg = small_config(reps=2)
    rows = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.1, 0.4, 0.5]])
    ens = SpectrumEnsemble(config=cfg, spectra=rows)
    pooled = rows.ravel()
    centered = pooled - pooled.mean()
    m = ens.moments(4)
    assert m[2] == pytest.approx(np.mean(centered**2), rel=1e-15)
    assert m[3] == pytest.approx(np.mean(centered**3), rel=1e-15)
    assert m[4] == pytest.approx(np.mean(centered**4), rel=1e-15)
    # the helper also accepts bare arrays
    assert empirical_moments(rows, 2)[2] == m[2]
    with pytest.raises(ValueError):
        empirical_moments(rows, 1)
    with pytest.raises(ValueError):
        empirical_moments(np.empty((0, 4)))


def test_summary_contents():
    ens = run_ensemble(small_config(reps=20, events=500))
    s = ens.summary()
    assert s["replicas"] == 20 and s["qubits"] == 2
    assert s["scheme"] == "overcomplete"
    assert s["pooled_mean"] == pytest.approx(0.25, abs=1e-12)
    assert s["m2"] > 0
    assert "m4_over_m2_sq" in s and "m6_over_m2_cube" in s
    assert 0.0 <= s["unphysical_fraction"] <= 1.0


# --- persistence ------------------------------------------------------------------


def test_save_load_round_trip(tmp_path):
    ens = run_ensemble(small_config(reps=7, seed=77))
    out = tmp_path / "run"
    save_ensemble(ens, str(out))
    assert sorted(os.listdir(out)) == sorted([CONFIG_FILE, SPECTRA_FILE, CHECKSUM_FILE])
    loaded = load_ensemble(str(out))
    assert loaded.config == ens.config
    np.testing.assert_array_equal(loaded.spectra, ens.spectra)
    # 17 significant digits survive the text round trip bit-exactly
    text = (out / SPECTRA_FILE).read_text()
    assert text.startswith("replica,l_1,l_2,l_3,l_4\n")


def test_load_checksum_mismatch(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    spectra_path = out / SPECTRA_FILE
    data = spectra_path.read_bytes()
    spectra_path.write_bytes(data.replace(b"0.2", b"0.3", 1))
    with pytest.raises(ChecksumMismatchError):
        load_ensemble(str(out))


def _rewrite_spectra(out, new_bytes):
    """Replace spectra.csv and keep the checksum consistent with it."""
    (out / SPECTRA_FILE).write_bytes(new_bytes)
    digest = hashlib.sha256(new_bytes).hexdigest()
    (out / CHECKSUM_FILE).write_text(digest + "\n")


def test_load_rejects_non_finite_spectra(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    lines = (out / SPECTRA_FILE).read_bytes().splitlines()
    lines[1] = b"0,nan,nan,nan,nan"
    _rewrite_spectra(out, b"\n".join(lines) + b"\n")
    with pytest.raises(MalformedEnsembleError, match="finite"):
        load_ensemble(str(out))


def test_load_truncated_rows(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=5)), str(out))
    lines = (out / SPECTRA_FILE).read_bytes().splitlines()
    _rewrite_spectra(out, b"\n".join(lines[:-2]) + b"\n")
    with pytest.raises(MalformedEnsembleError):
        load_ensemble(str(out))


def test_load_dimension_mismatch(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    lines = (out / SPECTRA_FILE).read_bytes().splitlines()
    stripped = [b",".join(line.split(b",")[:-1]) for line in lines]
    _rewrite_spectra(out, b"\n".join(stripped) + b"\n")
    with pytest.raises(DimensionMismatchError):
        load_ensemble(str(out))


def test_load_schema_version(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    meta = json.loads((out / CONFIG_FILE).read_text())
    meta["schema_version"] = 99
    (out / CONFIG_FILE).write_text(json.dumps(meta))
    with pytest.raises(SchemaVersionError):
        load_ensemble(str(out))


def test_load_malformed_config(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    (out / CONFIG_FILE).write_text("{not json")
    with pytest.raises(MalformedEnsembleError):
        load_ensemble(str(out))
    with pytest.raises(MalformedEnsembleError):
        load_ensemble(str(tmp_path / "no_such_dir"))


@pytest.mark.parametrize("path, value", [
    (("replicas",), 3.9),
    (("count_model", "events_per_setting"), 100.7),
    (("master_seed",), 1.2),
], ids=["replicas", "events_per_setting", "master_seed"])
def test_load_rejects_non_integral_config_numbers(tmp_path, path, value):
    """A non-integral count or seed is malformed, not truncated to another run."""
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    meta = json.loads((out / CONFIG_FILE).read_text())
    block = meta["config"]
    for key in path[:-1]:
        block = block[key]
    block[path[-1]] = value
    (out / CONFIG_FILE).write_text(json.dumps(meta))
    with pytest.raises(MalformedEnsembleError, match=path[-1].replace("_", "[_ ]")):
        load_ensemble(str(out))


@pytest.mark.parametrize("name", [CONFIG_FILE, CHECKSUM_FILE])
def test_load_non_utf8_text_file_is_malformed(tmp_path, name):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    path = out / name
    path.write_bytes(b"\xff" + path.read_bytes()[1:])
    with pytest.raises(MalformedEnsembleError):
        load_ensemble(str(out))


@pytest.fixture(scope="module")
def saved_files(tmp_path_factory):
    """The bytes of the three files of one small saved ensemble."""
    out = tmp_path_factory.mktemp("saved")
    save_ensemble(run_ensemble(small_config(reps=3, n=1)), str(out))
    return {name: (out / name).read_bytes()
            for name in (CONFIG_FILE, SPECTRA_FILE, CHECKSUM_FILE)}


@hyp_settings(max_examples=150, deadline=None)
@given(name=st.sampled_from([CONFIG_FILE, SPECTRA_FILE, CHECKSUM_FILE]),
       edits=st.lists(st.tuples(st.integers(min_value=0), st.integers(0, 255)),
                      min_size=1, max_size=8))
def test_byte_corruption_raises_only_typed_errors(saved_files, name, edits):
    """Overwritten bytes in any file load or raise one of the four typed errors."""
    data = bytearray(saved_files[name])
    for pos, byte in edits:
        data[pos % len(data)] = byte
    with tempfile.TemporaryDirectory() as tmp:
        for other, content in saved_files.items():
            with open(os.path.join(tmp, other), "wb") as fh:
                fh.write(bytes(data) if other == name else content)
        try:
            loaded = load_ensemble(tmp)
        except (MalformedEnsembleError, SchemaVersionError,
                ChecksumMismatchError, DimensionMismatchError):
            return
    assert isinstance(loaded, SpectrumEnsemble)


def test_loaded_statistics_match(tmp_path):
    """Statistics computed before and after a round trip agree exactly."""
    ens = run_ensemble(small_config(reps=10, events=300, seed=4))
    out = tmp_path / "run"
    save_ensemble(ens, str(out))
    loaded = load_ensemble(str(out))
    assert loaded.summary() == ens.summary()


def test_expected_moment_scale():
    """White-noise n=2 m2 lands near the predicted (R/2)^2 even at low stats."""
    from tomospectra.models import semicircle_radius

    ens = run_ensemble(small_config(reps=400, events=400, seed=99))
    target = (semicircle_radius(2, 400) / 2.0) ** 2
    m2 = ens.moments(2)[2]
    assert m2 == pytest.approx(target, rel=0.15)
