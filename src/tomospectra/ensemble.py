"""Monte-Carlo ensembles of linear tomography estimates.

The driver repeats the full chain

    exact outcome probabilities -> sampled counts -> linear inversion
    -> eigenvalue spectrum

over many replicas and stacks the sorted spectra as rows of a single
array.  Each (replica, setting) pair owns a private counter-based
random stream derived from the master seed, so the ensemble is a pure
function of its configuration: the same master seed gives bit-identical
rows no matter how replicas are scheduled over worker processes.  The
chain up to the estimate is written once, in `replica_estimator`, and
runs on a stack of replicas at a time: one generator, one per-qubit map
from frequencies to correlation values, one reconstruction and one
`eigvalsh` call per stack.  This module only picks the rates and the
draw method of a stack (`replica_frequencies` for the count model, the
frame's rates for the complete scheme); `sampling.draw_stack` makes the
draws.  The runner and every replay of a single replica go through it.

On disk an ensemble is a plain directory:

    config.json   experiment parameters + schema/code version
    spectra.csv   header ``l_1,...,l_{2^n}``, then row r holds replica r's
                  eigenvalues ascending, 17 significant digits
    checksum.txt  SHA-256 hex digest of the csv bytes, written last

Loading verifies the checksum and re-validates the spectrum invariants,
with a distinct error type per failure mode.
"""

import contextlib
import dataclasses
import functools
import hashlib
import itertools
import json
import math
import os
import warnings

import numpy as np

from . import __version__
from .estimation import (
    build_complete_frame,
    correlations_from_frequencies,
    estimate_complete,
    reconstruct_from_values,
    setting_probability_table,
)
from .models import laplace_model, overcomplete_law
from .pauli import (StateSpec, _integer, _known_keys, _positive, _seed, build_state,
                    correlation_tensor_values)
from .sampling import _INDICES, MULTINOMIAL, CountModel, EmptySettingError, draw_stack, stream

OVERCOMPLETE = "overcomplete"
COMPLETE = "complete"
SCHEMES = (OVERCOMPLETE, COMPLETE)

SCHEMA_VERSION = 2

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
            if self.total_counts is None:
                raise ValueError("complete scheme requires total_counts")
            object.__setattr__(self, "total_counts", _positive("total_counts", self.total_counts))
        # replica indices must fit the seed scheme's key (`sampling`)
        object.__setattr__(self, "replicas", _integer("replicas", self.replicas, 1, _INDICES))
        object.__setattr__(self, "master_seed", _seed("master_seed", self.master_seed))

    @classmethod
    def overcomplete(cls, state, count_model, replicas, master_seed=0):
        return cls(state=state, scheme=OVERCOMPLETE, count_model=count_model,
                   replicas=replicas, master_seed=master_seed)

    @classmethod
    def complete(cls, state, total_counts, replicas, master_seed=0):
        return cls(state=state, scheme=COMPLETE, total_counts=total_counts,
                   replicas=replicas, master_seed=master_seed)

    def law(self):
        """The analytic eigenvalue law of this configuration's spectra.

        The complete scheme gets the Laplace law of its budget, and the
        overcomplete scheme `models.overcomplete_law` for its state.  A
        Poisson count model gets the multinomial law at its mean N.
        """
        state = self.state
        if self.scheme == COMPLETE:
            return laplace_model(state.n, self.total_counts)
        return overcomplete_law(state.n, self.count_model.events_per_setting, state.q,
                                state.signal_rank)

    def to_json(self):
        doc = {
            "state": self.state.to_json(),
            "scheme": self.scheme,
            "replicas": self.replicas,
            "master_seed": self.master_seed,
        }
        if self.scheme == OVERCOMPLETE:
            doc["count_model"] = dataclasses.asdict(self.count_model)
        else:
            doc["total_counts"] = self.total_counts
        return doc

    @classmethod
    def from_json(cls, doc):
        _known_keys("config", doc, [f.name for f in dataclasses.fields(cls)])
        count_model = doc.get("count_model")
        if count_model is not None:
            _known_keys("count_model", count_model, ("mode", "events_per_setting"))
            count_model = CountModel(mode=count_model["mode"],
                                     events_per_setting=count_model["events_per_setting"])
        # fields are passed on uncast, so 3.9 replicas or "1e5" counts are rejected,
        # and the scheme decides which of count_model and total_counts may be given
        return cls(state=StateSpec.from_json(doc["state"]), scheme=doc["scheme"],
                   count_model=count_model, total_counts=doc.get("total_counts"),
                   replicas=doc["replicas"], master_seed=doc["master_seed"])


@dataclasses.dataclass(frozen=True, eq=False)
class SpectrumEnsemble:
    """Stack of sorted eigenvalue rows plus the config that produced it.

    ``spectra`` is held read-only.  A read-only array that owns its
    memory is kept as it is, with no copy: `run_ensemble` hands its rows
    over so.  Any other array (writeable, or a view of another array's
    memory) is copied, so writing to the caller's array afterwards leaves
    the ensemble unchanged.
    """

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
        # neighbouring columns compared: a boolean temporary, not a float diff
        if np.any(spectra[:, 1:] < spectra[:, :-1]):
            raise ValueError("each spectrum row must be sorted ascending")
        traces = spectra.sum(axis=1)
        # max |trace - 1| through one temporary: subtracting 1 keeps the order
        if max(traces.max() - 1.0, 1.0 - traces.min()) > 1e-9:
            raise ValueError("each spectrum row must sum to 1 (unit trace)")
        if spectra.flags.writeable or not spectra.flags.owndata:
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
        """Central moments m_2 .. m_k_max of the pooled eigenvalue sample.

        All replicas' eigenvalues are pooled into one sample and the
        moments are taken about the pooled mean (which sits at 2^-n up to
        sampling error, since the trace of every estimate is one).
        ``k_max`` is an integer >= 2.  Returns a dict keyed by moment order.
        The moments hold one buffer as large as the pooled sample, not a
        centred copy beside each power.
        """
        return _central_moments(self.pooled, range(2, _integer("k_max", k_max, 2) + 1))

    def unphysical_fraction(self):
        """Fraction of replicas with at least one negative eigenvalue."""
        # rows ascend, so column 0 holds each replica's smallest eigenvalue
        return float(np.mean(self.spectra[:, 0] < 0.0))

    def summary(self):
        """Headline numbers: pooled mean, central moments, ratios, physicality."""
        m = _central_moments(self.pooled, (2, 4, 6))
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


def _central_moments(values, orders):
    """``{k: mean((values - values.mean())**k)}`` for each k >= 2 in ``orders``, bit for bit.

    For each k the centred values are written into one buffer as large as
    ``values`` and raised to the k-th power in place, and the mean is
    taken over the whole buffer, so every moment has the bits of the
    one-shot expression.  ``np.square`` and ``np.power`` are the ufuncs
    that ``centered**k`` dispatches to.
    """
    mean = values.mean()
    powers = np.empty_like(values)
    moments = {}
    for k in orders:
        np.subtract(values, mean, out=powers)
        if k == 2:
            np.square(powers, out=powers)
        else:
            np.power(powers, k, out=powers)
        moments[k] = float(np.mean(powers))
    return moments


#: at most this many frequency-table entries (3**n x 2**n per replica) in
#: one stack of replicas, the runner's unit of work: the stacked back end
#: drops per-replica call overhead at small n, and the cap keeps a stack
#: of n=6 tables (one replica there) from growing the run's peak memory.
#: The complete scheme has no such table but uses the same stack count,
#: 2**16 // 6**n replicas a stack
_STACK_ENTRIES = 2**16


def replica_frequencies(probs, model, master_seed, replicas):
    """The (len(replicas), 3**n, 2**n) frequency tables of a stack of replicas.

    Row s of replica r holds the counts of setting s, drawn from the
    stream ``stream(master_seed, r, s)`` under the count model, divided
    by their total (a multinomial row totals the budget exactly).
    ``probs`` is the table of exact outcome probabilities from
    `setting_probability_table`.  A setting that drew no events
    (possible under Poisson counts) raises ``EmptySettingError`` naming
    the first such replica and setting in draw order.
    """
    budget = model.events_per_setting
    # each mode is named after its generator method
    rates, args = (probs, (budget,)) if model.mode == MULTINOMIAL else (budget * probs, ())
    freqs = draw_stack(stream(master_seed), model.mode, master_seed, replicas, rates, *args)
    totals = freqs.sum(axis=-1, keepdims=True)
    if not totals.all():
        i, s = np.argwhere(totals[..., 0] == 0)[0]
        raise EmptySettingError("replica %d, setting %d drew zero events" % (replicas[i], s))
    return np.divide(freqs, totals, out=freqs)  # in place: no second stack is held


def _overcomplete_estimate(probs, model, master_seed, n, replicas):
    freqs = replica_frequencies(probs, model, master_seed, replicas)
    return reconstruct_from_values(correlations_from_frequencies(freqs, n), n)


def _complete_estimate(frame, intensity, master_seed, replicas):
    counts = draw_stack(stream(master_seed), "poisson", master_seed, replicas, intensity[None])
    traces = frame.trace(counts[:, 0])
    if not traces.all():  # estimate_complete's own check cannot name the replica
        raise ValueError("degenerate data: replica %d drew no computational-basis counts"
                         % replicas[np.flatnonzero(traces == 0)[0]])
    return estimate_complete(frame, counts[:, 0])


def replica_estimator(config):
    """The map ``replicas -> rho_hats`` of one configuration.

    The state and its probability table (overcomplete scheme) or frame
    (complete scheme) are built once, here; each call then draws the
    given replicas (a sequence of indices) from their own seed streams
    and returns their linear estimates as one (len(replicas), 2**n, 2**n)
    stack, so ``replica_estimator(config)([i])[0]`` replays replica ``i``
    of ``run_ensemble(config)`` bit for bit, eigenvectors included, and
    so does any split of the replicas into stacks.  An empty sequence
    gives an empty stack.  A complete-scheme replica with no
    computational-basis count has no trace and raises ValueError naming
    it, as `replica_frequencies` names an empty setting.  The map is a
    picklable ``functools.partial``, so worker processes get the
    prebuilt table or frame instead of building their own.
    """
    rho = build_state(config.state)
    n = config.state.n
    seed = config.master_seed
    if config.scheme == COMPLETE:
        frame = build_complete_frame(n)
        intensity = frame.intensity(correlation_tensor_values(rho, n), config.total_counts)
        return functools.partial(_complete_estimate, frame, intensity, seed)
    probs = setting_probability_table(rho, n)
    return functools.partial(_overcomplete_estimate, probs, config.count_model, seed, n)


def _stack_spectra(estimate, replicas):
    """The sorted spectra of a stack of replicas, one row per replica."""
    return np.linalg.eigvalsh(estimate(replicas))


def _one_blas_thread():
    """Pool initializer: set this worker's OpenBLAS to one thread.

    A forked worker inherits OpenBLAS's default thread pool, so two
    workers on two cores would each start threads for their small LAPACK
    calls and oversubscribe the machine.  NumPy has no call for this, so
    the OpenBLAS bundled with NumPy is called through ctypes: NumPy's
    wheels export ``scipy_openblas_set_num_threads64_``, plain builds
    ``openblas_set_num_threads``.  If no library answers (NumPy built on
    another BLAS, say), this does nothing and the worker keeps the
    threading that the environment gives it.
    """
    import ctypes
    import glob

    libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs")
    for path in glob.glob(os.path.join(libs, "*openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_set_num_threads64_", "openblas_set_num_threads"):
            setter = getattr(lib, name, None)
            if setter is not None:
                setter(1)
                return


def run_ensemble(config, workers=1, progress=None):
    """Run every replica of ``config`` and collect the sorted spectra.

    ``workers`` is the number of worker processes, an integer >= 1,
    capped at the number of stacks, so ``workers=1`` or a run of one
    stack stays in process.  Each worker sets its OpenBLAS to one thread
    (`_one_blas_thread`); an in-process run keeps the threading that the
    environment gives it.  Because every (replica, setting) pair has
    its own seed stream, the result is identical for any worker count.
    ``progress``, if given, is called as ``progress(done, total)`` after
    each stack.  Across workers a task is a run of consecutive stacks,
    about four tasks per worker, so the calls come in one burst per task.

    Raises ``EnsembleRunError`` if any replica fails partway, carrying
    the number of replicas before the stack (in process) or the task
    (across workers) that failed.
    """
    workers = _integer("worker count", workers, 1)
    total = config.replicas
    rows = np.empty((total, 2 ** config.state.n))
    size = max(1, _STACK_ENTRIES // 6**config.state.n)
    stacks = [range(a, min(a + size, total)) for a in range(0, total, size)]
    # the pool forks every worker at its first task, busy or not
    workers = min(workers, len(stacks))
    completed = 0
    try:
        spectra = functools.partial(_stack_spectra, replica_estimator(config))
        with contextlib.ExitStack() as scope:
            if workers == 1:
                blocks = map(spectra, stacks)
            else:
                from concurrent.futures import ProcessPoolExecutor

                pool = scope.enter_context(
                    ProcessPoolExecutor(max_workers=workers, initializer=_one_blas_thread))
                # about four tasks per worker, each a run of consecutive
                # stacks that pickles the estimator (table included) once:
                # a task per stack costs the main process a future and
                # about 160 us, and at n=6 a stack is one replica
                blocks = pool.map(spectra, stacks,
                                  chunksize=math.ceil(len(stacks) / (4 * workers)))
            for stack, block in zip(stacks, blocks):
                rows[stack.start:stack.stop] = block
                completed = stack.stop
                if progress is not None:
                    progress(completed, total)
    except Exception as exc:
        raise EnsembleRunError(
            "ensemble aborted after %d of %d replicas: %s" % (completed, total, exc),
            completed) from exc
    rows.setflags(write=False)  # so the ensemble takes the rows without a copy
    return SpectrumEnsemble(config=config, spectra=rows)


#: at most this many eigenvalues formatted into one block of spectra.csv:
#: a save holds one block of text at a time, never the whole file
_CSV_BLOCK_VALUES = 2**12

def _csv_blocks(spectra):
    """The bytes of spectra.csv: the header, then blocks of rows."""
    dim = spectra.shape[1]
    yield (",".join("l_%d" % (k + 1) for k in range(dim)) + "\n").encode("ascii")
    row_format = ",".join(["%.17g"] * dim) + "\n"
    size = max(1, _CSV_BLOCK_VALUES // dim)
    for a in range(0, len(spectra), size):
        yield "".join(row_format % tuple(row) for row in spectra[a:a + size].tolist()).encode("ascii")


def save_ensemble(ensemble, path):
    """Write config.json, spectra.csv and checksum.txt under ``path``.

    An old checksum.txt is removed first and the new one is written
    last, so a save that fails partway leaves a directory that does not
    load.  spectra.csv is formatted, written and hashed a block of rows
    at a time, so a save holds at most one block of text.
    """
    os.makedirs(path, exist_ok=True)
    checksum_path = os.path.join(path, CHECKSUM_FILE)
    with contextlib.suppress(FileNotFoundError):
        os.remove(checksum_path)
    meta = {
        "schema_version": SCHEMA_VERSION,
        "code_version": __version__,
        "config": ensemble.config.to_json(),
    }
    with open(os.path.join(path, CONFIG_FILE), "w") as fh:
        json.dump(meta, fh, indent=2, sort_keys=True)
        fh.write("\n")
    digest = hashlib.sha256()
    with open(os.path.join(path, SPECTRA_FILE), "wb") as fh:
        for block in _csv_blocks(ensemble.spectra):
            fh.write(block)
            digest.update(block)
    with open(checksum_path, "w") as fh:
        fh.write(digest.hexdigest() + "\n")
    return path


def _hashed_lines(fh, digest):
    """Yield the lines of the open file ``fh``, hashing each into ``digest`` as it is read."""
    for line in fh:
        digest.update(line)
        yield line


def load_ensemble(path):
    """Read an ensemble directory back; inverse of :func:`save_ensemble`.

    Failure modes are kept distinct: ``MalformedEnsembleError`` for
    missing/truncated/unparseable pieces (a directory without
    checksum.txt is an incomplete save), ``SchemaVersionError`` for a
    version we did not write, ``ChecksumMismatchError`` when the csv
    bytes do not hash to the recorded digest, ``DimensionMismatchError``
    when row length contradicts the configured qubit count.  The checksum
    is settled before anything in spectra.csv is judged: a parse error
    waits until the rest of the file is hashed.  spectra.csv is read
    once, each line hashed as the parser reads it, so the rows returned
    are exactly the bytes checksum.txt covers and no copy of the file's
    bytes is held.  Row r of the file is replica r, and the parsed
    (replicas, 2**n) table itself becomes the ensemble's read-only spectra.
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
    # the integer itself: true and 1.0 compare equal to 1 but are not version 1
    if type(meta["schema_version"]) is not int or meta["schema_version"] != SCHEMA_VERSION:
        raise SchemaVersionError("schema version %r not supported (expected %d)"
                                 % (meta["schema_version"], SCHEMA_VERSION))
    try:
        _known_keys("top-level", meta, ("schema_version", "code_version", "config"))
        config = ExperimentConfig.from_json(meta["config"])
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise MalformedEnsembleError("bad %s: %s" % (CONFIG_FILE, exc))

    digest, parse_error = hashlib.sha256(), None
    try:
        with open(os.path.join(path, SPECTRA_FILE), "rb") as csv:
            with open(os.path.join(path, CHECKSUM_FILE), encoding="utf-8") as fh:
                recorded = fh.read().split()
            lines = _hashed_lines(csv, digest)
            header = next(lines, b"")
            try:
                with warnings.catch_warnings():  # no row: judged by the row count below
                    warnings.filterwarnings("ignore", "loadtxt: input contained no data",
                                            UserWarning)
                    data = np.loadtxt(itertools.chain((header,), lines), delimiter=",",
                                      skiprows=1, ndmin=2, comments=None, encoding="ascii")
            except ValueError as exc:  # a UnicodeDecodeError included
                parse_error = exc
            for _ in lines:  # hash what the parser left unread
                pass
            size = csv.tell()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedEnsembleError("cannot read ensemble files: %s" % exc)
    if not recorded:
        raise MalformedEnsembleError("%s is empty" % CHECKSUM_FILE)
    if digest.hexdigest() != recorded[0]:
        raise ChecksumMismatchError("spectra.csv digest %s != recorded %s"
                                    % (digest.hexdigest(), recorded[0]))
    if not size:
        raise MalformedEnsembleError("%s is empty" % SPECTRA_FILE)
    dim = 2 ** config.state.n
    columns = header.count(b",") + 1
    if columns != dim:
        raise DimensionMismatchError(
            "%s has %d eigenvalue columns but config says 2^%d = %d"
            % (SPECTRA_FILE, columns, config.state.n, dim))
    if parse_error is not None:
        raise MalformedEnsembleError(
            "cannot parse %s: %s" % (SPECTRA_FILE, parse_error)) from parse_error
    if data.shape[0] != config.replicas:
        raise MalformedEnsembleError(
            "%s holds %d rows but config says %d replicas"
            % (SPECTRA_FILE, data.shape[0], config.replicas))
    if data.shape[1] != dim:
        raise DimensionMismatchError(
            "%s rows carry %d eigenvalues but config says %d"
            % (SPECTRA_FILE, data.shape[1], dim))
    data.setflags(write=False)  # so the ensemble takes the rows without a copy
    try:
        return SpectrumEnsemble(config=config, spectra=data)
    except ValueError as exc:
        raise MalformedEnsembleError("spectra violate invariants: %s" % exc)
