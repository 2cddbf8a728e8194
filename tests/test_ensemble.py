"""Ensemble runner, persistence round trips and failure modes."""

import functools
import hashlib
import inspect
import io
import json
import os
import pathlib
import subprocess
import sys
import tempfile
import tracemalloc

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from tomospectra.ensemble import (
    CHECKSUM_FILE,
    COMPLETE,
    CONFIG_FILE,
    OVERCOMPLETE,
    SPECTRA_FILE,
    ChecksumMismatchError,
    DimensionMismatchError,
    EnsembleRunError,
    ExperimentConfig,
    MalformedEnsembleError,
    SchemaVersionError,
    SpectrumEnsemble,
    load_ensemble,
    replica_estimator,
    run_ensemble,
    save_ensemble,
)
from tomospectra.estimation import build_complete_frame
from tomospectra.models import (LaplaceModel, SemicircleModel, SingleQubitModel, laplace_model,
                                semicircle_center, semicircle_radius)
from tomospectra.pauli import StateSpec, build_state
from tomospectra.sampling import MULTINOMIAL, POISSON, CountModel, stream
from tomospectra.schemas import load_schema


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
    with pytest.raises(ValueError, match="complete scheme requires total_counts"):
        ExperimentConfig(state=state, scheme="complete")
    with pytest.raises(ValueError):
        small_config(reps=0)
    with pytest.raises(ValueError):
        small_config(seed=-1)
    with pytest.raises(TypeError):
        ExperimentConfig(state="white_noise", scheme="overcomplete", count_model=model)
    for total in ("1e5", True):
        with pytest.raises(ValueError, match="total_counts"):
            ExperimentConfig.complete(state, total, replicas=1)
    assert ExperimentConfig.complete(state, np.float32(1e4), replicas=1).total_counts == 1e4


def test_master_seed_is_one_64_bit_key_word(tmp_path):
    """Past 2**64 a master seed would alias: stream() keys on it mod 2**64."""
    for seed in (-1, 2**64, 2**64 + 5):
        message = "master_seed must lie in 0..%d, got %d" % (2**64 - 1, seed)
        with pytest.raises(ValueError, match=message):
            small_config(seed=seed)
    save_ensemble(run_ensemble(small_config(reps=1, seed=2**64 - 1)), str(tmp_path))
    meta = json.loads((tmp_path / CONFIG_FILE).read_text())
    schema = load_schema("ensemble_config")
    meta["config"]["state"]["seed"] = 2**64 - 1
    jsonschema.validate(meta, schema)
    for block, key in ((meta["config"], "master_seed"), (meta["config"]["state"], "seed")):
        block[key] = 2**64
        with pytest.raises(jsonschema.ValidationError):
            jsonschema.validate(meta, schema)
        block[key] = 2**64 - 1


@pytest.mark.parametrize("total", [np.nan, np.inf])
def test_complete_config_rejects_a_non_finite_budget(total):
    with pytest.raises(ValueError, match="total_counts must be finite"):
        ExperimentConfig.complete(StateSpec(kind="white_noise", n=1), total, replicas=1)


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


def _overcomplete_at_100(kind, n, **state):
    return ExperimentConfig.overcomplete(StateSpec(kind=kind, n=n, **state),
                                         CountModel(MULTINOMIAL, 100), replicas=1)


@pytest.mark.parametrize("config, law", [
    (ExperimentConfig.complete(StateSpec(kind="white_noise", n=2), 3e4, replicas=1),
     LaplaceModel(center=0.25, alpha=laplace_model(2, 3e4).alpha)),
    (_overcomplete_at_100("white_noise", 1), SingleQubitModel(100)),
    (_overcomplete_at_100("pure_plus_noise", 1, q=0.0), SingleQubitModel(100)),
    (_overcomplete_at_100("rank_r_plus_noise", 1, q=0.5, r=2), SingleQubitModel(100)),
    (_overcomplete_at_100("pure_plus_noise", 1, q=0.5),
     SemicircleModel(center=0.5, radius=semicircle_radius(1, 100))),
    (_overcomplete_at_100("rank_r_plus_noise", 2, q=0.5, r=4),
     SemicircleModel(center=0.25, radius=semicircle_radius(2, 100))),
    # Poisson totals keep the multinomial bulk at their mean N
    (ExperimentConfig.overcomplete(StateSpec(kind="ghz_plus_noise", n=3, q=0.6),
                                   CountModel(POISSON, 200), replicas=1),
     SemicircleModel(center=semicircle_center(3, 0.6, 1), radius=semicircle_radius(3, 200))),
], ids=["complete", "wn-n1", "pure-q0-n1", "rank2-n1", "pure-n1", "rank4-n2", "ghz-poisson"])
def test_a_config_picks_its_law(config, law):
    """`ExperimentConfig.law` picks the family from the config alone, with no run."""
    assert config.law() == law


# --- running -------------------------------------------------------------------


def test_run_ensemble_shapes_and_rows():
    ens = run_ensemble(small_config())
    assert ens.spectra.shape == (8, 4)
    assert np.all(np.diff(ens.spectra, axis=1) >= 0)
    np.testing.assert_allclose(ens.spectra.sum(axis=1), 1.0, atol=1e-9)
    assert ens.n == 2 and ens.replicas == 8
    assert ens.pooled.shape == (32,)


def test_run_ensemble_deterministic_across_workers():
    cfg = small_config(reps=120, n=4)  # stacks of 50, 50 and 20 replicas
    seq = run_ensemble(cfg, workers=1)
    par = run_ensemble(cfg, workers=3)
    np.testing.assert_array_equal(seq.spectra, par.spectra)


class RecordingPool:
    """Stands in for ProcessPoolExecutor: records its size and maps in process.

    The initializer is not run: it would pin this process's BLAS threads.
    """

    sizes = []

    def __init__(self, max_workers, initializer=None):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, iterable, chunksize=1):
        return map(fn, iterable)


@pytest.mark.parametrize("config, pool_sizes", [
    (small_config(reps=6), []),  # one stack
    (small_config(reps=120, n=4), [3]),  # stacks of 50, 50 and 20
], ids=["one-stack", "three-stacks"])
def test_a_run_starts_no_more_workers_than_stacks(monkeypatch, config, pool_sizes):
    import concurrent.futures

    plain = run_ensemble(config, workers=1)
    monkeypatch.setattr(RecordingPool, "sizes", [])
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    capped = run_ensemble(config, workers=4)
    assert RecordingPool.sizes == pool_sizes
    assert capped.spectra.tobytes() == plain.spectra.tobytes()


def _blas_threads():
    """Threads of NumPy's bundled OpenBLAS, or None if it cannot be asked."""
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, name, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return getter()
    return None


def _spectra_in_one_blas_thread(estimate, replicas):
    """The stack's spectra, computed only in a worker that runs one BLAS thread."""
    threads = _blas_threads()
    if threads != 1:
        raise RuntimeError("a pool worker runs %s BLAS threads" % threads)
    return np.linalg.eigvalsh(estimate(replicas))


def test_pool_workers_run_one_blas_thread_and_leave_the_parent_alone(monkeypatch):
    import tomospectra.ensemble as ensemble_module

    parent = _blas_threads()
    if parent is None:
        pytest.skip("NumPy's OpenBLAS cannot be asked its thread count")
    config = small_config(reps=120, n=4)  # three stacks
    plain = run_ensemble(config)
    # forked workers look the stack function up in the patched module
    monkeypatch.setattr(ensemble_module, "_stack_spectra", _spectra_in_one_blas_thread)
    pooled = run_ensemble(config, workers=2)
    assert _blas_threads() == parent
    assert pooled.spectra.tobytes() == plain.spectra.tobytes()


def test_the_pool_initializer_sets_one_blas_thread():
    """`_one_blas_thread` runs only in forked workers, so here it runs in a fresh interpreter.

    The environment leaves out every thread-count variable, so OpenBLAS
    starts with its default pool, one thread per core.
    """
    script = inspect.getsource(_blas_threads) + (
        "import os\n"
        "import numpy as np\n"
        "import tomospectra.ensemble as ensemble\n"
        "before = _blas_threads()\n"
        "ensemble._one_blas_thread()\n"
        "print(before, _blas_threads())\n")
    env = {key: value for key, value in os.environ.items()
           if key not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(pathlib.Path(__file__).resolve().parents[1] / "src"),
                    env.get("PYTHONPATH")) if p)
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    before, after = done.stdout.split()
    if before in ("None", "1"):
        pytest.skip("no bundled OpenBLAS to ask, or it already runs one thread")
    assert after == "1"


def test_run_ensemble_builds_the_probability_table_once(monkeypatch):
    """One table per run, however many stacks; workers get it prebuilt."""
    import tomospectra.ensemble as ensemble_module

    calls = []
    build = ensemble_module.setting_probability_table

    def counted(*args):
        calls.append(args)
        return build(*args)

    monkeypatch.setattr(ensemble_module, "setting_probability_table", counted)
    # stacks of 50 replicas at n=4: 50, 50 and 20
    cfg = ExperimentConfig.overcomplete(
        StateSpec(kind="rank_r_plus_noise", n=4, q=0.6, r=2, seed=4),
        CountModel(mode=MULTINOMIAL, events_per_setting=150),
        replicas=120, master_seed=31)
    runs = {}
    for workers in (1, 2):
        stacks = []
        runs[workers] = run_ensemble(cfg, workers=workers,
                                     progress=lambda d, t: stacks.append(d))
        assert stacks == [50, 100, 120]
        assert len(calls) == workers
    assert runs[2].spectra.tobytes() == runs[1].spectra.tobytes()


def count_streams_and_draws(monkeypatch):
    """Record every `stream` call of the ensemble module and every count draw."""
    import tomospectra.ensemble as ensemble_module

    streams, draws = [], []
    make = ensemble_module.stream

    class Counted:
        def __init__(self, rng):
            self._rng = rng

        def __getattr__(self, name):
            return getattr(self._rng, name)

        def multinomial(self, *args):
            draws.append(args)
            return self._rng.multinomial(*args)

        def poisson(self, *args):
            draws.append(args)
            return self._rng.poisson(*args)

    def counted(*args):
        streams.append(args)
        return Counted(make(*args))

    monkeypatch.setattr(ensemble_module, "stream", counted)
    return streams, draws


@pytest.mark.parametrize("config, draws_per_replica", [
    (ExperimentConfig.overcomplete(StateSpec(kind="white_noise", n=2),
                                   CountModel(MULTINOMIAL, 100), replicas=3000,
                                   master_seed=52), 9),
    (ExperimentConfig.complete(StateSpec(kind="white_noise", n=6), 4e6, replicas=2,
                               master_seed=7), 1),
])
def test_one_stream_per_stack_and_one_draw_per_setting(monkeypatch, config, draws_per_replica):
    """A stack builds one generator; each (replica, setting) is one draw call."""
    plain = run_ensemble(config, workers=1)
    streams, draws = count_streams_and_draws(monkeypatch)
    stacks = []
    counted = run_ensemble(config, workers=1, progress=lambda d, t: stacks.append(d))
    assert len(stacks) == 2  # 1820 + 1180 replicas at n=2, one replica per stack at n=6
    assert len(streams) == len(stacks)
    assert len(draws) == config.replicas * draws_per_replica
    assert counted.spectra.tobytes() == plain.spectra.tobytes()


# every key of a stack is checked before its first replica draws
@pytest.mark.parametrize("replicas", [[-1], [2**32], [0, 2**32]],
                         ids=["-1", "4294967296", "0-4294967296"])
def test_an_out_of_range_replica_draws_nothing(monkeypatch, replicas):
    from tomospectra.ensemble import replica_frequencies

    _, draws = count_streams_and_draws(monkeypatch)
    with pytest.raises(ValueError, match="replica index"):
        replica_frequencies(np.full((9, 4), 0.25), CountModel(MULTINOMIAL, 10), 3, replicas)
    assert draws == []


@pytest.mark.parametrize("scheme", [OVERCOMPLETE, COMPLETE])
def test_an_empty_replica_sequence_estimates_an_empty_stack(scheme):
    state = StateSpec(kind="white_noise", n=2)
    if scheme == COMPLETE:
        config = ExperimentConfig.complete(state, 1e4, replicas=3)
    else:
        config = ExperimentConfig.overcomplete(state, CountModel(MULTINOMIAL, 10), replicas=3)
    estimates = replica_estimator(config)([])
    assert estimates.shape == (0, 4, 4)
    assert estimates.dtype == complex


def test_a_degenerate_complete_replica_is_named():
    """A replica with no computational-basis counts is named, as an empty setting is.

    One qubit of white noise at a budget of 2 events expects one |0> or
    |1> event and sees none with probability e**-1; the first replica
    that sees none is found by replaying its stream.
    """
    config = ExperimentConfig.complete(StateSpec(kind="white_noise", n=1), 2.0, replicas=40,
                                       master_seed=5)
    frame = build_complete_frame(1)
    intensity = frame.intensity([1.0, 0.0, 0.0, 0.0], 2.0)
    first = next(r for r in range(40) if stream(5, r, 0).poisson(intensity)[:2].sum() == 0)
    assert first > 0
    message = "degenerate data: replica %d drew no computational-basis counts" % first
    with pytest.raises(EnsembleRunError, match=message):
        run_ensemble(config)
    with pytest.raises(ValueError, match=message):
        replica_estimator(config)(range(first + 1))
    # the smallest budget aborts at replica 0 with the same message
    with pytest.raises(EnsembleRunError, match="replica 0 drew no computational-basis counts"):
        run_ensemble(ExperimentConfig.complete(StateSpec(kind="white_noise", n=1), 1e-3,
                                               replicas=2))


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


@pytest.mark.parametrize("workers, error", [
    (1, None),
    (0, "worker count must be >= 1, got 0"),
    (2.7, "worker count must be an integer"),
    (True, "worker count must be an integer"),
    ("2", "worker count must be an integer"),
], ids=["one", "zero", "float", "bool", "string"])
def test_run_ensemble_worker_env_and_validation(monkeypatch, workers, error):
    """The worker count is an argument only: a stray $TOMOSPECTRA_THREADS is not read."""
    monkeypatch.setenv("TOMOSPECTRA_THREADS", "abc")
    cfg = small_config(reps=6)
    if error is None:
        ens = run_ensemble(cfg, workers=workers)
        np.testing.assert_array_equal(ens.spectra, run_ensemble(cfg).spectra)
    else:
        with pytest.raises(ValueError, match=error):
            run_ensemble(cfg, workers=workers)


def test_numpy_integers_are_integers(tmp_path):
    """replicas, master_seed and workers follow StateSpec's rule: any integer type."""
    plain = run_ensemble(small_config(reps=3, seed=9), workers=1)
    numpy = run_ensemble(small_config(reps=np.int64(3), seed=np.int64(9)),
                         workers=np.int64(1))
    save_ensemble(plain, str(tmp_path / "plain"))
    save_ensemble(numpy, str(tmp_path / "numpy"))
    config = json.loads((tmp_path / "numpy" / CONFIG_FILE).read_text())["config"]
    assert type(config["replicas"]) is int and type(config["master_seed"]) is int
    assert ((tmp_path / "numpy" / SPECTRA_FILE).read_bytes()
            == (tmp_path / "plain" / SPECTRA_FILE).read_bytes())


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


@pytest.mark.parametrize("counts, replicas, master_seed, failure, workers, completed", [
    # stacks of 1820 replicas at n=2, each its own task at two workers; at
    # 9 expected events per setting, master seed 0 draws its first empty
    # setting in the second stack
    (9, 5000, 0, "replica 2777, setting 8", 1, 1820),
    (9, 5000, 0, "replica 2777, setting 8", 2, 1820),
    # 20 stacks, so two workers get tasks of three stacks; at 11 expected
    # events per setting, master seed 14 draws its first empty setting in
    # stack 4, the second stack of the second task
    (11, 20 * 1820, 14, "replica 7876, setting 5", 1, 4 * 1820),
    (11, 20 * 1820, 14, "replica 7876, setting 5", 2, 3 * 1820),
])
def test_a_failed_run_counts_the_stacks_before_its_stack_or_task(
        counts, replicas, master_seed, failure, workers, completed):
    """``completed`` is every replica before the failing stack (in process) or task (pool)."""
    cfg = ExperimentConfig.overcomplete(
        StateSpec(kind="white_noise", n=2),
        CountModel(mode=POISSON, events_per_setting=counts),
        replicas=replicas,
        master_seed=master_seed,
    )
    with pytest.raises(EnsembleRunError, match=failure) as err:
        run_ensemble(cfg, workers=workers)
    assert err.value.completed == completed


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


def test_a_frame_edited_by_one_caller_reaches_no_later_run():
    """Each `build_complete_frame` call builds its own frame, arrays included.

    While the frame was cached, every caller got the same writable arrays:
    adding 0.01 to two entries of one caller's n=2 frame changed the
    spectra of every later n=2 complete-scheme run in the process.
    """
    cfg = ExperimentConfig.complete(StateSpec(kind="white_noise", n=2), total_counts=40000.0,
                                    replicas=6, master_seed=5)
    before = run_ensemble(cfg).spectra.tobytes()
    frame, other = build_complete_frame(2), build_complete_frame(2)
    assert frame is not other
    assert not np.shares_memory(frame.entries, other.entries)
    frame.entries[0, :2] += 0.01
    assert run_ensemble(cfg).spectra.tobytes() == before


@pytest.mark.parametrize("scheme", [OVERCOMPLETE, COMPLETE])
def test_an_explicit_matrix_runs_as_the_state_it_copies(scheme):
    """An explicit copy of a built state draws the same spectra, bit for bit."""
    built = StateSpec(kind="ghz_plus_noise", n=3, q=0.6)
    explicit = StateSpec(kind="explicit_matrix", n=3, matrix=build_state(built).copy())

    def config(state):
        if scheme == OVERCOMPLETE:
            return ExperimentConfig.overcomplete(
                state, CountModel(mode=MULTINOMIAL, events_per_setting=200),
                replicas=6, master_seed=11)
        return ExperimentConfig.complete(state, 1e5, replicas=6, master_seed=11)

    spectra = run_ensemble(config(explicit)).spectra
    assert spectra.tobytes() == run_ensemble(config(built)).spectra.tobytes()


def test_a_non_hermitian_explicit_matrix_aborts_before_any_replica():
    matrix = np.eye(2, dtype=complex) / 2
    matrix[0, 1] = 0.1
    cfg = ExperimentConfig.overcomplete(
        StateSpec(kind="explicit_matrix", n=1, matrix=matrix),
        CountModel(mode=MULTINOMIAL, events_per_setting=100), replicas=4)
    with pytest.raises(EnsembleRunError, match="not Hermitian") as info:
        run_ensemble(cfg)
    assert info.value.completed == 0


def test_a_non_positive_explicit_matrix_aborts_both_schemes_alike():
    """diag(1.2, -0.2) gives the outcome probability -0.2 in either scheme.

    The complete scheme used to clip its projector probabilities at 0 and
    run a different state, row 0 = [-0.00942, 1.00942] at N_total = 1000,
    seed 0, where the overcomplete scheme refused the state.
    """
    state = StateSpec(kind="explicit_matrix", n=1, matrix=np.diag([1.2, -0.2]))
    model = CountModel(mode=MULTINOMIAL, events_per_setting=1000)
    messages = []
    for cfg in (ExperimentConfig.overcomplete(state, model, replicas=4),
                ExperimentConfig.complete(state, 1000.0, replicas=4)):
        with pytest.raises(EnsembleRunError) as info:
            run_ensemble(cfg)
        assert info.value.completed == 0
        messages.append(str(info.value))
    assert messages == ["ensemble aborted after 0 of 4 replicas: "
                        "probabilities below tolerance: min -0.2"] * 2


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


def test_an_ensemble_does_not_share_a_callers_writeable_rows(tmp_path):
    """Rows passed in are copied unless no one can write them; every result is read-only."""
    cfg = small_config(reps=2)
    rows = np.array([[0.1, 0.2, 0.3, 0.4], [0.0, 0.1, 0.4, 0.5]])
    before = rows.copy()
    view = rows.view()
    view.setflags(write=False)  # read-only, but the memory is still rows'
    ensembles = [SpectrumEnsemble(config=cfg, spectra=a) for a in (rows, view)]
    rows[:] = 0.25
    for ens in ensembles:
        np.testing.assert_array_equal(ens.spectra, before)
    ran = run_ensemble(cfg)
    save_ensemble(ran, str(tmp_path))
    for ens in ensembles + [ran, load_ensemble(str(tmp_path))]:
        assert not ens.spectra.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            ens.spectra[0, 0] = 0.0


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
    assert ens.moments(2) == {2: m[2]}
    with pytest.raises(ValueError, match="k_max"):
        ens.moments(1)
    # the order is an integer: no truncated float, no bool standing in for 1
    assert ens.moments(np.int64(3)) == {k: m[k] for k in (2, 3)}
    for bad in (6.0, True, "4"):
        with pytest.raises(ValueError, match="k_max must be an integer"):
            ens.moments(bad)


def test_summary_contents():
    ens = run_ensemble(small_config(reps=20, events=500))
    s = ens.summary()
    assert s["replicas"] == 20 and s["qubits"] == 2
    assert s["scheme"] == "overcomplete"
    assert s["pooled_mean"] == pytest.approx(0.25, abs=1e-12)
    assert s["m2"] > 0
    assert "m4_over_m2_sq" in s and "m6_over_m2_cube" in s
    assert 0.0 <= s["unphysical_fraction"] <= 1.0


def test_summary_moments_have_the_bits_of_moments():
    """`summary` computes only m2, m4 and m6, each with the bits `moments` gives it."""
    ens = run_ensemble(small_config(reps=20, events=500))
    s, m = ens.summary(), ens.moments(6)
    assert [s["m%d" % k].hex() for k in (2, 4, 6)] == [m[k].hex() for k in (2, 4, 6)]


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
    assert text.startswith("l_1,l_2,l_3,l_4\n")


def test_load_checksum_mismatch(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    spectra_path = out / SPECTRA_FILE
    data = spectra_path.read_bytes()
    spectra_path.write_bytes(data.replace(b"0.2", b"0.3", 1))
    with pytest.raises(ChecksumMismatchError):
        load_ensemble(str(out))


@pytest.mark.parametrize("edit", [(b"0.2", b"0.3"), (b"0.2", b"0.x"), (b",", b"")],
                         ids=["parses", "breaks-parsing", "drops-a-column"])
def test_a_stale_checksum_is_reported_before_the_rows(tmp_path, edit):
    """Under a stale checksum any edit is a checksum mismatch, whether or not it parses."""
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    spectra_path = out / SPECTRA_FILE
    header, _, body = spectra_path.read_bytes().partition(b"\n")
    assert edit[0] in body
    spectra_path.write_bytes(header + b"\n" + body.replace(*edit, 1))
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
    lines[1] = b"nan,nan,nan,nan"
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
    _rewrite_spectra(out, b"")
    with pytest.raises(MalformedEnsembleError, match="is empty"):
        load_ensemble(str(out))


def test_load_rejects_a_header_without_rows(tmp_path):
    """A consistent checksum over no data row is malformed, not a loadtxt warning."""
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    header = (out / SPECTRA_FILE).read_bytes().partition(b"\n")[0]
    for body in (b"\n", b"\n\n", b"\r\n\n"):
        _rewrite_spectra(out, header + body)
        with pytest.raises(MalformedEnsembleError, match="holds 0 rows"):
            load_ensemble(str(out))
    # the format has no comment lines: one is a row that does not parse
    _rewrite_spectra(out, header + b"\n# no rows\n")
    with pytest.raises(MalformedEnsembleError, match="cannot parse"):
        load_ensemble(str(out))
    # the header goes through the parser, which reports it before the row count
    _rewrite_spectra(out, header + b"\xff\n")
    with pytest.raises(MalformedEnsembleError, match="cannot parse .* byte 0xff"):
        load_ensemble(str(out))


def test_an_empty_checksum_is_malformed(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    for text in ("", " \n"):
        (out / CHECKSUM_FILE).write_text(text)
        with pytest.raises(MalformedEnsembleError, match="checksum.txt is empty"):
            load_ensemble(str(out))


def test_an_interrupted_overwrite_does_not_load(tmp_path, monkeypatch):
    """A save that fails before spectra.csv leaves no checksum, so no stale rows load."""
    import builtins

    import tomospectra.ensemble as ensemble_module

    out = str(tmp_path / "run")
    save_ensemble(run_ensemble(small_config(reps=3, seed=1)), out)

    def failing_open(file, *args, **kwargs):
        if os.path.basename(file) == SPECTRA_FILE:
            raise OSError("disk full")
        return builtins.open(file, *args, **kwargs)

    monkeypatch.setattr(ensemble_module, "open", failing_open, raising=False)
    with pytest.raises(OSError, match="disk full"):
        save_ensemble(run_ensemble(small_config(reps=3, seed=2)), out)
    monkeypatch.undo()
    assert not os.path.exists(os.path.join(out, CHECKSUM_FILE))
    with pytest.raises(MalformedEnsembleError, match=CHECKSUM_FILE):
        load_ensemble(out)


def synthetic_ensemble(n, rows, seed=0):
    """An ensemble of sorted Dirichlet rows: valid spectra without a run."""
    dim = 2**n
    spectra = np.sort(np.random.default_rng(seed).dirichlet(np.ones(dim), size=rows), axis=1)
    return SpectrumEnsemble(config=small_config(reps=rows, n=n), spectra=spectra)


@pytest.mark.parametrize("n", [1, 6])
@pytest.mark.parametrize("extra", [-1, 0, 1], ids=["block-1", "block", "block+1"])
def test_spectra_csv_across_block_boundaries(tmp_path, n, extra):
    """Blocked writes give the bytes of a one-shot formatter, and load to the same bits."""
    import tomospectra.ensemble as ensemble_module

    rows = ensemble_module._CSV_BLOCK_VALUES // 2**n + extra
    ens = synthetic_ensemble(n, rows, seed=rows)
    out = tmp_path / "run"
    save_ensemble(ens, str(out))
    expected = io.BytesIO()
    np.savetxt(expected, ens.spectra, fmt="%.17g", delimiter=",",
               header=",".join("l_%d" % k for k in range(1, 2**n + 1)), comments="")
    assert (out / SPECTRA_FILE).read_bytes() == expected.getvalue()
    assert load_ensemble(str(out)).spectra.tobytes() == ens.spectra.tobytes()


@pytest.mark.parametrize("block", [1, 7, 2**16])
def test_load_verdicts_do_not_depend_on_the_hash_block(tmp_path, monkeypatch, block):
    """A header or a row split across read blocks is still hashed, counted and found.

    spectra.csv is read through a buffer of ``block`` bytes, so the lines the
    parser and the hash see are pieced together from many reads.
    """
    out = tmp_path / "run"
    ens = run_ensemble(small_config(reps=3))
    save_ensemble(ens, str(out))
    _open_spectra_through(monkeypatch, io.FileIO, buffer_size=block)
    assert load_ensemble(str(out)).spectra.tobytes() == ens.spectra.tobytes()
    header = (out / SPECTRA_FILE).read_bytes().partition(b"\n")[0]
    _rewrite_spectra(out, header + b"\n\r\n")
    with pytest.raises(MalformedEnsembleError, match="holds 0 rows"):
        load_ensemble(str(out))
    _rewrite_spectra(out, header + b",l_5\n")
    with pytest.raises(DimensionMismatchError, match="5 eigenvalue columns"):
        load_ensemble(str(out))


class _CountingFile(io.FileIO):
    """A raw file that adds every byte read from it to ``read_bytes``."""

    read_bytes = 0

    def readinto(self, buffer):
        got = super().readinto(buffer)
        type(self).read_bytes += got or 0
        return got

    def readall(self):
        data = super().readall()
        type(self).read_bytes += len(data)
        return data


def _open_spectra_through(monkeypatch, raw_file, buffer_size=io.DEFAULT_BUFFER_SIZE):
    """Make the ensemble module read spectra.csv through ``raw_file``; return the opened paths."""
    import builtins

    import tomospectra.ensemble as ensemble_module

    opened = []

    def patched_open(file, mode="r", *args, **kwargs):
        if os.path.basename(file) != SPECTRA_FILE:
            return builtins.open(file, mode, *args, **kwargs)
        assert mode == "rb"
        opened.append(file)
        return io.BufferedReader(raw_file(file, "r"), buffer_size)

    monkeypatch.setattr(ensemble_module, "open", patched_open, raising=False)
    return opened


@pytest.mark.parametrize("body", ["valid", "bad-row", "stale-checksum"])
def test_a_load_reads_spectra_csv_once(tmp_path, monkeypatch, body):
    """Every byte of spectra.csv is read once, whether the load succeeds or not."""
    out = tmp_path / "run"
    save_ensemble(synthetic_ensemble(2, 3000), str(out))
    lines = (out / SPECTRA_FILE).read_bytes().split(b"\n")
    if body == "bad-row":  # the parser stops at row 2, the hash goes on
        lines[3] = b"x" + lines[3]
        _rewrite_spectra(out, b"\n".join(lines))
    elif body == "stale-checksum":
        (out / SPECTRA_FILE).write_bytes(b"\n".join(lines[:-2]) + b"\n")
    monkeypatch.setattr(_CountingFile, "read_bytes", 0)
    opened = _open_spectra_through(monkeypatch, _CountingFile)
    if body == "valid":
        load_ensemble(str(out))
    else:
        with pytest.raises((MalformedEnsembleError, ChecksumMismatchError)):
            load_ensemble(str(out))
    assert len(opened) == 1
    assert _CountingFile.read_bytes == (out / SPECTRA_FILE).stat().st_size


class _FailingFile(io.FileIO):
    """A raw file whose second read fails, as a disk error partway through would."""

    reads = 0

    def readinto(self, buffer):
        self.reads += 1
        if self.reads == 2:
            raise OSError("read error")
        return super().readinto(buffer)


def test_a_read_error_partway_through_spectra_csv_is_malformed(tmp_path, monkeypatch):
    out = tmp_path / "run"
    save_ensemble(synthetic_ensemble(2, 3000), str(out))  # many read buffers long
    _open_spectra_through(monkeypatch, _FailingFile)
    with pytest.raises(MalformedEnsembleError, match="cannot read ensemble files: read error"):
        load_ensemble(str(out))


def test_a_load_works_under_a_trace_function(tmp_path):
    """A debugger's trace function holds a copy of the frame's locals; the load still resizes.

    pdb, ``python -m trace`` and IDE debuggers install one with
    ``sys.settrace``; its copy of the locals is one more reference to the
    parsed table, and numpy's default reference check refused the resize.
    """
    import sys

    ens = synthetic_ensemble(2, 50)
    out = str(tmp_path / "run")
    save_ensemble(ens, out)

    def tracer(frame, event, arg):
        frame.f_locals  # what a debugger reads at every line
        return tracer

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        loaded = load_ensemble(out)
    finally:
        sys.settrace(previous)
    assert loaded.spectra.tobytes() == ens.spectra.tobytes()


def _traced_peak(fn, *args):
    """Peak bytes that ``fn(*args)`` holds at once, by tracemalloc."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_store_memory_is_bounded_by_the_file_size(tmp_path):
    """Saving holds less than the csv file at once, loading less than three times it."""
    ens = synthetic_ensemble(2, 20000)
    out = str(tmp_path / "run")
    save_peak = _traced_peak(save_ensemble, ens, out)
    load_peak = _traced_peak(load_ensemble, out)
    size = os.path.getsize(os.path.join(out, SPECTRA_FILE))
    print("csv %.2f MB, save peak %.2f MB, load peak %.2f MB"
          % (size / 1e6, save_peak / 1e6, load_peak / 1e6))
    assert save_peak < 1.0 * size
    assert load_peak < 3.0 * size


def test_a_load_holds_no_copy_of_the_file(tmp_path):
    """Loading holds the parsed table, not the csv bytes.

    On 20 000 n=2 rows (0.64 MB of spectra, a 1.72 MB file) tracemalloc
    put the load peak at 4.24 times the spectra's bytes when the file was
    read whole, and at 2.51 times when it was hashed in blocks and parsed
    from the open file into a table (1.25 times, with its index column)
    that the ensemble copied its rows from.  Compacting the table in place
    into the ensemble's rows put it at 1.56 times, and dropping the index
    column from the file (schema 2, a 1.62 MB file) at 1.31 times.
    """
    ens = synthetic_ensemble(2, 20000)
    out = str(tmp_path / "run")
    save_ensemble(ens, out)
    assert _traced_peak(load_ensemble, out) < 1.5 * ens.spectra.nbytes


def test_a_loaded_ensemble_owns_its_rows(tmp_path):
    """The parsed table itself becomes the spectra, with no copy."""
    ens = synthetic_ensemble(2, 3000)
    out = str(tmp_path / "run")
    save_ensemble(ens, out)
    spectra = load_ensemble(out).spectra
    assert spectra.flags.owndata and spectra.base is None
    assert not spectra.flags.writeable
    assert spectra.tobytes() == ens.spectra.tobytes()


def test_moments_hold_one_buffer_beside_the_rows():
    """The moments hold one buffer of powers, centred and raised in place.

    On 20 000 n=2 rows tracemalloc put the peak at 2.00 times the pooled
    bytes when a centred copy was held beside each power, at 1.10 times
    with one buffer filled from centred blocks, and at 1.003 times with
    the buffer centred and raised in place.
    """
    ens = synthetic_ensemble(2, 20000)
    assert _traced_peak(ens.moments, 8) < 1.05 * ens.pooled.nbytes


@hyp_settings(max_examples=60, deadline=None)
@given(length=st.sampled_from(["one", "block-1", "block", "block+1"]),
       k_max=st.integers(min_value=2, max_value=8),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       scale=st.floats(min_value=1e-6, max_value=1e3))
def test_moments_have_the_bits_of_the_one_shot_expression(length, k_max, seed, scale):
    import tomospectra.ensemble as ensemble_module

    block = ensemble_module._CSV_BLOCK_VALUES
    size = {"one": 1, "block-1": block - 1, "block": block, "block+1": block + 1}[length]
    x = 2.0**-6 + scale * np.random.default_rng(seed).standard_normal(size)
    centered = x - x.mean()
    expected = {k: float(np.mean(centered**k)).hex() for k in range(2, k_max + 1)}
    moments = ensemble_module._central_moments(x, range(2, k_max + 1))
    assert {k: m.hex() for k, m in moments.items()} == expected


def test_a_run_holds_its_rows_once(monkeypatch):
    """A run's peak is its rows, one float per row and one stack: the rows are not copied.

    A stack's memory does not grow with the replica count, so a cheap
    stand-in estimator keeps 10**6 n=1 replicas quick and rows-dominated;
    the float per row is the unit-trace check.  tracemalloc put the peak
    at 2.01 times the rows' 16 MB when the ensemble copied them, and at
    1.51 times when it takes them as they are.
    """
    import tomospectra.ensemble as ensemble_module

    rho = np.diag([0.25, 0.75])
    monkeypatch.setattr(ensemble_module, "replica_estimator", lambda config: (
        lambda replicas: np.broadcast_to(rho, (len(replicas), 2, 2))))
    stack = ensemble_module._STACK_ENTRIES // 6
    one_stack = _traced_peak(run_ensemble, small_config(reps=stack, n=1))
    replicas = 10**6
    peak = _traced_peak(run_ensemble, small_config(reps=replicas, n=1))
    rows = replicas * 2 * 8
    print("rows %.2f MB, one stack %.2f MB, run peak %.2f MB"
          % (rows / 1e6, one_stack / 1e6, peak / 1e6))
    assert peak < rows + replicas * 8 + one_stack


def test_load_dimension_mismatch(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    lines = (out / SPECTRA_FILE).read_bytes().splitlines()
    stripped = [b",".join(line.split(b",")[:-1]) for line in lines]
    _rewrite_spectra(out, b"\n".join(stripped) + b"\n")
    with pytest.raises(DimensionMismatchError):
        load_ensemble(str(out))
    # a header alone, with no line end, is still the line the columns are counted on
    _rewrite_spectra(out, stripped[0])
    with pytest.raises(DimensionMismatchError):
        load_ensemble(str(out))
    # a header of 2**n columns over rows of one more field: the rows are judged too
    wide = [lines[0]] + [line + b",0" for line in lines[1:]]
    _rewrite_spectra(out, b"\n".join(wide) + b"\n")
    with pytest.raises(DimensionMismatchError, match="rows carry 5 eigenvalues but config says 4"):
        load_ensemble(str(out))


def test_load_schema_version(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    meta = json.loads((out / CONFIG_FILE).read_text())
    # 2.0 compares equal to 2, but only the integer 2 is version 2;
    # version 1 rows led with a replica index (test_a_schema_1_directory_is_refused)
    for version in (99, 1, 2.0):
        meta["schema_version"] = version
        (out / CONFIG_FILE).write_text(json.dumps(meta))
        with pytest.raises(SchemaVersionError):
            load_ensemble(str(out))


def test_a_schema_1_directory_is_refused(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    # schema 1 led each row with its replica index, under a ``replica,`` header
    header, *rows = (out / SPECTRA_FILE).read_bytes().splitlines()
    lines = [b"replica," + header] + [b"%d,%s" % (r, row) for r, row in enumerate(rows)]
    _rewrite_spectra(out, b"\n".join(lines) + b"\n")
    # under its own config.json a schema 1 directory is refused by version
    meta = json.loads((out / CONFIG_FILE).read_text())
    (out / CONFIG_FILE).write_text(json.dumps(dict(meta, schema_version=1)))
    with pytest.raises(SchemaVersionError, match="schema version 1 not supported"):
        load_ensemble(str(out))
    # its rows under a schema 2 config.json carry one column too many
    (out / CONFIG_FILE).write_text(json.dumps(meta))
    with pytest.raises(DimensionMismatchError, match="5 eigenvalue columns but config says"):
        load_ensemble(str(out))


def test_load_malformed_config(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    (out / CONFIG_FILE).write_text("{not json")
    with pytest.raises(MalformedEnsembleError):
        load_ensemble(str(out))
    for doc in ({"code_version": "0.2.5", "config": {}}, [1]):
        (out / CONFIG_FILE).write_text(json.dumps(doc))
        with pytest.raises(MalformedEnsembleError, match="lacks a schema_version"):
            load_ensemble(str(out))
    with pytest.raises(MalformedEnsembleError):
        load_ensemble(str(tmp_path / "no_such_dir"))


def test_load_rejects_a_state_that_is_not_an_object(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    meta = json.loads((out / CONFIG_FILE).read_text())
    meta["config"]["state"] = []
    (out / CONFIG_FILE).write_text(json.dumps(meta))
    with pytest.raises(MalformedEnsembleError, match="state must be a JSON object"):
        load_ensemble(str(out))


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


def test_load_refuses_more_replicas_than_the_seed_scheme_keys(tmp_path):
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    meta = json.loads((out / CONFIG_FILE).read_text())
    meta["config"]["replicas"] = 2**33
    (out / CONFIG_FILE).write_text(json.dumps(meta))
    with pytest.raises(MalformedEnsembleError,
                       match="replicas must lie in 1..4294967296, got 8589934592"):
        load_ensemble(str(out))


@pytest.mark.parametrize("path, key", [
    ((), "extra"),
    (("config",), "replcas"),
    (("config", "count_model"), "evnts"),
], ids=["top-level", "config", "count_model"])
def test_load_rejects_unknown_keys(tmp_path, path, key):
    """config.json holds to its schema's ``additionalProperties: false`` at every level."""
    out = tmp_path / "run"
    save_ensemble(run_ensemble(small_config(reps=3)), str(out))
    meta = json.loads((out / CONFIG_FILE).read_text())
    block = meta
    for name in path:
        block = block[name]
    block[key] = 7
    (out / CONFIG_FILE).write_text(json.dumps(meta))
    with pytest.raises(MalformedEnsembleError, match="unknown .* keys .*%s" % key):
        load_ensemble(str(out))


@pytest.mark.parametrize("config", [
    small_config(reps=2),
    ExperimentConfig.complete(StateSpec(kind="pure_plus_noise", n=2, q=0.5, seed=3),
                              1e4, replicas=2, master_seed=4),
], ids=["overcomplete", "complete"])
def test_saved_config_matches_the_shipped_schema(tmp_path, config):
    save_ensemble(run_ensemble(config), str(tmp_path))
    meta = json.loads((tmp_path / CONFIG_FILE).read_text())
    jsonschema.validate(meta, load_schema("ensemble_config"))


@pytest.mark.parametrize("kind, key, value", [
    ("dicke_plus_noise", "k", 1.5),
    ("rank_r_plus_noise", "r", 2.0),
    ("pure_plus_noise", "seed", 3.7),
    ("pure_plus_noise", "seed", True),
], ids=["k", "r", "seed", "seed-bool"])
def test_load_rejects_non_integral_state_numbers(tmp_path, kind, key, value):
    """k=1.5 would build a NaN state and seed=3.7 would replay seed 3."""
    out = tmp_path / "run"
    cfg = ExperimentConfig.overcomplete(
        StateSpec(kind=kind, n=2, q=0.5, r=2, k=1, seed=3),
        CountModel(mode=MULTINOMIAL, events_per_setting=100), replicas=2)
    save_ensemble(run_ensemble(cfg), str(out))
    meta = json.loads((out / CONFIG_FILE).read_text())
    meta["config"]["state"][key] = value
    (out / CONFIG_FILE).write_text(json.dumps(meta))
    with pytest.raises(MalformedEnsembleError, match="%s must be an integer" % key):
        load_ensemble(str(out))


@pytest.mark.parametrize("value", [True, "0.5"], ids=["bool", "string"])
def test_load_rejects_non_numeric_signal_weight(tmp_path, value):
    """``"q": true`` is not a signal weight of 1; ``"q": "0.5"`` is not a number."""
    out = tmp_path / "run"
    cfg = ExperimentConfig.overcomplete(
        StateSpec(kind="ghz_plus_noise", n=2, q=0.5),
        CountModel(mode=MULTINOMIAL, events_per_setting=100), replicas=2)
    save_ensemble(run_ensemble(cfg), str(out))
    meta = json.loads((out / CONFIG_FILE).read_text())
    meta["config"]["state"]["q"] = value
    (out / CONFIG_FILE).write_text(json.dumps(meta))
    with pytest.raises(MalformedEnsembleError, match="q must be a number"):
        load_ensemble(str(out))


def complete_run_with_total_counts(tmp_path, value):
    """A saved complete-scheme run whose config.json records ``value`` as total_counts."""
    out = tmp_path / "run"
    cfg = ExperimentConfig.complete(StateSpec(kind="white_noise", n=1), 1e4,
                                    replicas=2, master_seed=5)
    save_ensemble(run_ensemble(cfg), str(out))
    meta = json.loads((out / CONFIG_FILE).read_text())
    meta["config"]["total_counts"] = value
    (out / CONFIG_FILE).write_text(json.dumps(meta))
    return str(out)


@pytest.mark.parametrize("value", ["1e5", True, None], ids=["string", "bool", "null"])
def test_load_rejects_non_numeric_total_counts(tmp_path, value):
    with pytest.raises(MalformedEnsembleError, match="total_counts"):
        load_ensemble(complete_run_with_total_counts(tmp_path, value))


def test_load_accepts_a_json_integer_total_counts(tmp_path):
    loaded = load_ensemble(complete_run_with_total_counts(tmp_path, 10000))
    assert loaded.config.total_counts == 1e4
    assert type(loaded.config.total_counts) is float


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


@hyp_settings(max_examples=300, deadline=None)
@given(name=st.sampled_from([CONFIG_FILE, SPECTRA_FILE, CHECKSUM_FILE]),
       edits=st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                                st.integers(min_value=0), st.integers(0, 255)),
                      min_size=1, max_size=8),
       fresh_checksum=st.booleans())
def test_byte_corruption_raises_only_typed_errors(saved_files, name, edits, fresh_checksum):
    """Overwritten, inserted or deleted bytes in any file load or raise one of the four typed errors.

    With ``fresh_checksum`` a corrupted spectra.csv gets a checksum that
    matches it, so its bytes reach the parser.
    """
    files = dict(saved_files)
    data = bytearray(saved_files[name])
    for op, pos, byte in edits:
        if op == "insert" or not data:
            data.insert(pos % (len(data) + 1), byte)
        elif op == "set":
            data[pos % len(data)] = byte
        else:
            del data[pos % len(data)]
    files[name] = bytes(data)
    if fresh_checksum and name == SPECTRA_FILE:
        files[CHECKSUM_FILE] = hashlib.sha256(files[name]).hexdigest().encode() + b"\n"
    with tempfile.TemporaryDirectory() as tmp:
        for other, content in files.items():
            with open(os.path.join(tmp, other), "wb") as fh:
                fh.write(content)
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
