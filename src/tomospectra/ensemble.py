"""Monte-Carlo ensembles of linear tomography estimates.

The driver repeats the full chain

    exact outcome probabilities -> sampled counts -> linear inversion
    -> eigenvalue spectrum

over many replicas and stacks the sorted spectra as rows of a single
array.  Each (replica, setting) pair owns a private counter-based
random stream derived from the master seed, so the ensemble is a pure
function of its configuration: the same master seed gives bit-identical
rows no matter how replicas are scheduled over worker processes.  The
chain up to the estimate is written once, in `replica_estimator` (with
the count draws in `replica_frequencies`), and runs on a stack of
replicas at a time: one generator, one Walsh-Hadamard product, one
reconstruction and one `eigvalsh` call per stack.  The runner and every
replay of a single replica go through it.

On disk an ensemble is a plain directory:

    config.json   experiment parameters + schema/code version
    spectra.csv   header ``replica,l_1,...,l_{2^n}``, one row per
                  replica, eigenvalues ascending, 17 significant digits
    checksum.txt  SHA-256 hex digest of the csv bytes

Loading verifies the checksum and re-validates the spectrum invariants,
with a distinct error type per failure mode.
"""

import dataclasses
import functools
import hashlib
import io
import json
import math
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from .estimation import (
    build_complete_frame,
    correlations_from_frequencies,
    estimate_complete,
    reconstruct_from_values,
)
from .pauli import (
    StateSpec,
    build_state,
    correlation_tensor_values,
    setting_probability_table,
)
from .sampling import MULTINOMIAL, CountModel, EmptySettingError, rekey, stream

OVERCOMPLETE = "overcomplete"
COMPLETE = "complete"
SCHEMES = (OVERCOMPLETE, COMPLETE)

#: environment variable consulted for the default worker count
THREADS_ENV = "TOMOSPECTRA_THREADS"

SCHEMA_VERSION = 1

CONFIG_FILE = "config.json"
SPECTRA_FILE = "spectra.csv"
CHECKSUM_FILE = "checksum.txt"


class EnsembleRunError(RuntimeError):
    """A run aborted partway; ``completed`` replicas finished cleanly."""

    def __init__(self, message, completed):
        super().__init__(message)
        self.completed = completed


class EnsembleIOError(Exception):
    """Base class for ensemble (de)serialization failures."""


class MalformedEnsembleError(EnsembleIOError):
    """File set is missing pieces, truncated, or not parseable."""


class SchemaVersionError(EnsembleIOError):
    """config.json was written by an incompatible schema version."""


class ChecksumMismatchError(EnsembleIOError):
    """spectra.csv does not hash to the recorded digest."""


class DimensionMismatchError(EnsembleIOError):
    """Row length in spectra.csv contradicts the configured qubit count."""


def _code_version():
    from . import __version__

    return __version__


@dataclasses.dataclass(frozen=True)
class ExperimentConfig:
    """Everything needed to reproduce one ensemble, seeds included.

    ``scheme`` selects the measurement model: ``"overcomplete"`` runs
    the 3^n local Pauli settings and needs ``count_model``;
    ``"complete"`` runs the 4^n-projector scheme with independent
    Poissonian counts and needs ``total_counts`` (the nominal event
    budget for the whole run).
    """

    state: StateSpec
    scheme: str = OVERCOMPLETE
    count_model: CountModel = None
    total_counts: float = None
    replicas: int = 1
    master_seed: int = 0

    def __post_init__(self):
        if not isinstance(self.state, StateSpec):
            raise TypeError("state must be a StateSpec")
        if self.scheme not in SCHEMES:
            raise ValueError("scheme must be one of %s" % (SCHEMES,))
        if self.scheme == OVERCOMPLETE:
            if not isinstance(self.count_model, CountModel):
                raise ValueError("overcomplete scheme requires a count model")
            if self.total_counts is not None:
                raise ValueError("total_counts applies to the complete scheme only")
        else:
            if self.count_model is not None:
                raise ValueError("count_model applies to the overcomplete scheme only")
            if self.total_counts is None or not self.total_counts > 0:
                raise ValueError("complete scheme requires positive total_counts")
        # exact int type: a bool or a float read from config.json is rejected
        if type(self.replicas) is not int or self.replicas < 1:
            raise ValueError("replicas must be a positive integer")
        if type(self.master_seed) is not int or self.master_seed < 0:
            raise ValueError("master_seed must be a nonnegative integer")

    @classmethod
    def overcomplete(cls, state, count_model, replicas, master_seed=0):
        return cls(state=state, scheme=OVERCOMPLETE, count_model=count_model,
                   replicas=replicas, master_seed=master_seed)

    @classmethod
    def complete(cls, state, total_counts, replicas, master_seed=0):
        return cls(state=state, scheme=COMPLETE, total_counts=float(total_counts),
                   replicas=replicas, master_seed=master_seed)

    def to_json(self):
        doc = {
            "state": self.state.to_json(),
            "scheme": self.scheme,
            "replicas": self.replicas,
            "master_seed": self.master_seed,
        }
        if self.scheme == OVERCOMPLETE:
            doc["count_model"] = {
                "mode": self.count_model.mode,
                "events_per_setting": self.count_model.events_per_setting,
            }
        else:
            doc["total_counts"] = self.total_counts
        return doc

    @classmethod
    def from_json(cls, doc):
        state = StateSpec.from_json(doc["state"])
        scheme = doc["scheme"]
        count_model = None
        total_counts = None
        if scheme == OVERCOMPLETE:
            cm = doc["count_model"]
            count_model = CountModel(mode=cm["mode"],
                                     events_per_setting=cm["events_per_setting"])
        else:
            total_counts = float(doc["total_counts"])
        # integer fields are passed on uncast, so 3.9 is rejected, not truncated
        return cls(state=state, scheme=scheme, count_model=count_model,
                   total_counts=total_counts, replicas=doc["replicas"],
                   master_seed=doc["master_seed"])


@dataclasses.dataclass(frozen=True, eq=False)
class SpectrumEnsemble:
    """Stack of sorted eigenvalue rows plus the config that produced it."""

    config: ExperimentConfig
    spectra: np.ndarray

    def __post_init__(self):
        spectra = np.asarray(self.spectra, dtype=float)
        dim = 2 ** self.config.state.n
        if spectra.ndim != 2 or spectra.shape != (self.config.replicas, dim):
            raise ValueError("expected a (%d, %d) spectra array"
                             % (self.config.replicas, dim))
        if not np.isfinite(spectra).all():
            raise ValueError("spectra must be finite (no NaN or inf)")
        if np.any(np.diff(spectra, axis=1) < 0):
            raise ValueError("each spectrum row must be sorted ascending")
        if np.abs(spectra.sum(axis=1) - 1.0).max() > 1e-9:
            raise ValueError("each spectrum row must sum to 1 (unit trace)")
        spectra = spectra.copy()
        spectra.setflags(write=False)
        object.__setattr__(self, "spectra", spectra)

    @property
    def n(self):
        return self.config.state.n

    @property
    def replicas(self):
        return self.config.replicas

    @property
    def pooled(self):
        """All eigenvalues of all replicas as one flat array."""
        return self.spectra.ravel()

    def moments(self, k_max=6):
        return empirical_moments(self, k_max)

    def unphysical_fraction(self):
        """Fraction of replicas with at least one negative eigenvalue."""
        from .gof import unphysical_fraction

        return unphysical_fraction(self.spectra)

    def summary(self):
        """Headline numbers: pooled mean, central moments, ratios, physicality."""
        m = self.moments(6)
        out = {
            "replicas": self.replicas,
            "qubits": self.n,
            "scheme": self.config.scheme,
            "pooled_mean": float(self.pooled.mean()),
            "m2": m[2],
            "m4": m[4],
            "m6": m[6],
            "unphysical_fraction": self.unphysical_fraction(),
        }
        if m[2] > 0:
            out["m4_over_m2_sq"] = m[4] / m[2] ** 2
            out["m6_over_m2_cube"] = m[6] / m[2] ** 3
        return out


def empirical_moments(ensemble, k_max=6):
    """Central moments m_2 .. m_k_max of the pooled eigenvalue sample.

    All replicas' eigenvalues are pooled into one sample and the
    moments are taken about the pooled mean (which sits at 2^-n up to
    sampling error, since the trace of every estimate is one).
    Returns a dict keyed by moment order.
    """
    spectra = getattr(ensemble, "spectra", ensemble)
    pooled = np.asarray(spectra, dtype=float).ravel()
    if pooled.size == 0:
        raise ValueError("cannot take moments of an empty ensemble")
    if k_max < 2:
        raise ValueError("k_max must be at least 2")
    centered = pooled - pooled.mean()
    return {k: float(np.mean(centered**k)) for k in range(2, k_max + 1)}


#: at most this many frequency-table entries (3**n x 2**n per replica) in
#: one stack of replicas: the stacked back end drops per-replica call
#: overhead at small n, and the cap keeps a stack of n=6 tables (one
#: replica there) from growing the run's peak memory
_STACK_ENTRIES = 2**16


def _draw_stack(master_seed, replicas, rates, draw):
    """Counts of a stack of replicas, shape (len(replicas),) + rates.shape.

    Row s of replica r is ``draw(rng, rates[s])`` with ``rng`` at the
    start of the stream ``stream(master_seed, r, s)``.  One generator
    serves the whole stack: built for the first (replica, row) stream and
    `rekey`-ed to each later one, which draws the same counts as a fresh
    generator per stream (at n=6 a stack is one replica, where a
    redundant first rekey would show in the complete scheme's cost).
    The counts are stored as floats, exact below 2**53, so callers
    normalize the stack in place and no integer copy of it is held.
    """
    counts = np.empty((len(replicas),) + rates.shape)
    rng = None
    for i, replica in enumerate(replicas):
        # indexed, not iterated: an ndarray iterator ends on a raised IndexError
        for s in range(len(rates)):
            if rng is None:
                rng = stream(master_seed, replica, s)
            else:
                rekey(rng, master_seed, replica, s)
            counts[i, s] = draw(rng, rates[s])
    return counts


def replica_frequencies(probs, model, master_seed, replicas):
    """The (len(replicas), 3**n, 2**n) frequency tables of a stack of replicas.

    Row s of replica r holds the counts of setting s, drawn from the
    stream ``stream(master_seed, r, s)`` under the count model, divided
    by their total.  ``probs`` is the table of exact outcome
    probabilities from `setting_probability_table`.  A setting that drew
    no events (possible under Poisson counts) raises
    ``EmptySettingError`` naming the first such replica and setting in
    draw order.
    """
    budget = model.events_per_setting
    if model.mode == MULTINOMIAL:
        freqs = _draw_stack(master_seed, replicas, probs,
                            lambda rng, p: rng.multinomial(budget, p))
        freqs /= budget  # a multinomial row always totals the budget
        return freqs
    freqs = _draw_stack(master_seed, replicas, budget * probs,
                        lambda rng, lam: rng.poisson(lam))
    totals = freqs.sum(axis=-1, keepdims=True)
    empty = np.argwhere(totals[..., 0] == 0)
    if len(empty):
        i, s = empty[0]
        raise EmptySettingError(
            "replica %d, setting %d drew zero events" % (replicas[i], s))
    freqs /= totals
    return freqs


def _overcomplete_estimate(probs, model, master_seed, n, replicas):
    freqs = replica_frequencies(probs, model, master_seed, replicas)
    values, _ = correlations_from_frequencies(freqs, n)
    return reconstruct_from_values(values, n)


def _complete_estimate(frame, intensity, n_flux, master_seed, replicas):
    counts = _draw_stack(master_seed, replicas, intensity[None],
                         lambda rng, lam: rng.poisson(lam))
    return estimate_complete(frame, counts[:, 0], n_flux)


def replica_estimator(config):
    """The map ``replicas -> rho_hats`` of one configuration.

    The state and its probability table (overcomplete scheme) or frame
    (complete scheme) are built once, here; each call then draws the
    given replicas (a sequence of indices) from their own seed streams
    and returns their linear estimates as one (len(replicas), 2**n, 2**n)
    stack, so ``replica_estimator(config)([i])[0]`` replays replica ``i``
    of ``run_ensemble(config)`` bit for bit, eigenvectors included, and
    so does any split of the replicas into stacks.  The map is a
    picklable ``functools.partial``, so worker processes get the
    prebuilt table or frame instead of building their own.
    """
    rho = build_state(config.state)
    n = config.state.n
    seed = config.master_seed
    if config.scheme == COMPLETE:
        frame = build_complete_frame(n)
        # detection intensity per projector: the nominal budget N_total
        # spread so that the white-noise state detects N_total events
        # in expectation (the 4^n projector sums to 2^n * identity-ish
        # total weight, hence the 2^n divisor)
        p_v = np.clip(frame.probabilities(correlation_tensor_values(rho)), 0.0, None)
        intensity = p_v * (config.total_counts / 2**n)
        n_flux = config.total_counts / 4**n
        return functools.partial(_complete_estimate, frame, intensity, n_flux, seed)
    probs = setting_probability_table(rho, n)
    return functools.partial(_overcomplete_estimate, probs, config.count_model, seed, n)


def _block_rows(estimate, start, stop, stack):
    """The spectra rows of replicas [start, stop), ``stack`` replicas per estimate call."""
    return np.concatenate([
        np.linalg.eigvalsh(estimate(range(a, min(a + stack, stop))))
        for a in range(start, stop, stack)])


def _resolve_workers(workers):
    if workers is None:
        value = os.environ.get(THREADS_ENV, "").strip()
        workers = int(value) if value else 1
    workers = int(workers)
    if workers < 1:
        raise ValueError("worker count must be at least 1")
    return workers


def run_ensemble(config, workers=None, progress=None):
    """Run every replica of ``config`` and collect the sorted spectra.

    ``workers=None`` consults the environment variable named by
    ``THREADS_ENV`` and falls back to 1 (in-process).  Because every
    (replica, setting) pair has its own seed stream, the result is
    identical for any worker count.  ``progress``, if given, is called
    as ``progress(done, total)`` after each completed batch.

    Raises ``EnsembleRunError`` carrying the number of cleanly finished
    replicas if any replica fails partway.
    """
    workers = _resolve_workers(workers)
    total = config.replicas
    rows = np.empty((total, 2 ** config.state.n))
    completed = 0
    # batches keep progress callbacks cheap and bound per-task pickling
    batch = max(1, min(1024, math.ceil(total / (4 * workers))))
    edges = [(a, min(a + batch, total)) for a in range(0, total, batch)]
    try:
        estimate = replica_estimator(config)
        stack = max(1, _STACK_ENTRIES // 6**config.state.n)
        if workers == 1:
            for a, b in edges:
                rows[a:b] = _block_rows(estimate, a, b, stack)
                completed += b - a
                if progress is not None:
                    progress(completed, total)
        else:
            with ProcessPoolExecutor(max_workers=workers) as pool:
                futures = [pool.submit(_block_rows, estimate, a, b, stack)
                           for a, b in edges]
                for (a, b), fut in zip(edges, futures):
                    rows[a:b] = fut.result()
                    completed += b - a
                    if progress is not None:
                        progress(completed, total)
    except EnsembleIOError:
        raise
    except Exception as exc:
        raise EnsembleRunError(
            "ensemble aborted after %d of %d replicas: %s" % (completed, total, exc),
            completed) from exc
    return SpectrumEnsemble(config=config, spectra=rows)


def _format_csv(ensemble):
    dim = ensemble.spectra.shape[1]
    header = "replica," + ",".join("l_%d" % (k + 1) for k in range(dim))
    lines = [header]
    for i, row in enumerate(ensemble.spectra):
        lines.append("%d," % i + ",".join("%.17g" % x for x in row))
    return ("\n".join(lines) + "\n").encode("ascii")


def save_ensemble(ensemble, path):
    """Write config.json, spectra.csv and checksum.txt under ``path``."""
    os.makedirs(path, exist_ok=True)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "code_version": _code_version(),
        "config": ensemble.config.to_json(),
    }
    csv_bytes = _format_csv(ensemble)
    digest = hashlib.sha256(csv_bytes).hexdigest()
    with open(os.path.join(path, CONFIG_FILE), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    with open(os.path.join(path, SPECTRA_FILE), "wb") as fh:
        fh.write(csv_bytes)
    with open(os.path.join(path, CHECKSUM_FILE), "w") as fh:
        fh.write(digest + "\n")
    return path


def load_ensemble(path):
    """Read an ensemble directory back; inverse of :func:`save_ensemble`.

    Failure modes are kept distinct: ``MalformedEnsembleError`` for
    missing/truncated/unparseable pieces, ``SchemaVersionError`` for a
    version we did not write, ``ChecksumMismatchError`` when the csv
    bytes do not hash to the recorded digest, ``DimensionMismatchError``
    when row length contradicts the configured qubit count.
    """
    try:
        with open(os.path.join(path, CONFIG_FILE), encoding="utf-8") as fh:
            meta = json.load(fh)
    except OSError as exc:
        raise MalformedEnsembleError("cannot read %s: %s" % (CONFIG_FILE, exc))
    except ValueError as exc:  # invalid JSON or not UTF-8
        raise MalformedEnsembleError("%s is not valid JSON: %s" % (CONFIG_FILE, exc))
    if not isinstance(meta, dict) or "schema_version" not in meta:
        raise MalformedEnsembleError("%s lacks a schema_version" % CONFIG_FILE)
    if meta["schema_version"] != SCHEMA_VERSION:
        raise SchemaVersionError("schema version %r not supported (expected %d)"
                                 % (meta["schema_version"], SCHEMA_VERSION))
    try:
        config = ExperimentConfig.from_json(meta["config"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedEnsembleError("bad config block: %s" % exc)

    try:
        with open(os.path.join(path, SPECTRA_FILE), "rb") as fh:
            csv_bytes = fh.read()
        with open(os.path.join(path, CHECKSUM_FILE), encoding="utf-8") as fh:
            recorded = fh.read().split()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedEnsembleError("cannot read ensemble files: %s" % exc)
    if not recorded:
        raise MalformedEnsembleError("%s is empty" % CHECKSUM_FILE)
    digest = hashlib.sha256(csv_bytes).hexdigest()
    if digest != recorded[0]:
        raise ChecksumMismatchError("spectra.csv digest %s != recorded %s"
                                    % (digest, recorded[0]))

    text = csv_bytes.decode("ascii", errors="replace")
    lines = text.splitlines()
    if not lines:
        raise MalformedEnsembleError("%s is empty" % SPECTRA_FILE)
    n_cols = len(lines[0].split(","))
    dim = 2 ** config.state.n
    if n_cols - 1 != dim:
        raise DimensionMismatchError(
            "%s has %d eigenvalue columns but config says 2^%d = %d"
            % (SPECTRA_FILE, n_cols - 1, config.state.n, dim))
    try:
        data = np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)
    except ValueError as exc:
        raise MalformedEnsembleError("cannot parse %s: %s" % (SPECTRA_FILE, exc))
    if data.shape[0] != config.replicas:
        raise MalformedEnsembleError(
            "%s holds %d rows but config says %d replicas"
            % (SPECTRA_FILE, data.shape[0], config.replicas))
    if data.shape[1] - 1 != dim:
        raise DimensionMismatchError(
            "%s rows carry %d eigenvalues but config says %d"
            % (SPECTRA_FILE, data.shape[1] - 1, dim))
    if not np.array_equal(data[:, 0], np.arange(config.replicas)):
        raise MalformedEnsembleError("replica index column is not 0..replicas-1")
    try:
        return SpectrumEnsemble(config=config, spectra=data[:, 1:])
    except ValueError as exc:
        raise MalformedEnsembleError("spectra violate invariants: %s" % exc)
