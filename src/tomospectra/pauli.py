"""Pauli-basis toolbox: operator strings, measurement settings, states.

Every qubit register is ordered left to right, qubit 0 first, and qubit 0
is the most significant factor in all tensor products and flat indices.
`digits`/`from_digits` (flat indices), `kron_all` (tensor products) and
`apply_per_qubit` (Kronecker powers on a stack of vectors) are its one
implementation.
The fixed conventions used throughout the package are:

* Pauli labels 0, 1, 2, 3 stand for the identity and the X, Y, Z operators.
* A measurement setting picks one of the directions 1, 2, 3 per qubit
  (there is no "identity measurement"); ``3**n`` settings in total.
* Outcomes are sign tuples in {+1, -1}^n.  Outcome enumeration is
  lexicographic with +1 before -1, i.e. bit 0 of the outcome index means
  +1 on that qubit and bit 1 means -1, qubit 0 most significant.
* Measurement eigenvectors (the +1 eigenvector listed first):
  direction 1 (X): (1, 1)/sqrt(2) and (1, -1)/sqrt(2);
  direction 2 (Y): (1, i)/sqrt(2) and (1, -i)/sqrt(2);
  direction 3 (Z): (1, 0) and (0, 1).

Density matrices are plain complex numpy arrays.  They must be Hermitian
with unit trace; positivity is deliberately *not* required, because the
linear estimates this package studies are routinely non-positive.
"""

import functools
from dataclasses import dataclass, field

import numpy as np

# Dense simulation is kept to small registers; closed-form spectral
# statistics elsewhere in the package go further (see models.py).
MAX_QUBITS_DENSE = 6

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12

# sigma_0..sigma_3 stacked as a (4, 2, 2) array.
SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
# per qubit, tr(rho sigma_mu) = sum_ij _READ_PAULI[mu, (i, j)] rho[i, j]
_READ_PAULI = SIGMA.transpose(0, 2, 1).reshape(4, 4)

# Basis-change unitaries per measurement direction: row r is the bra of
# the eigenvector with sign (-1)^r, so diag(U rho U^dagger) lists outcome
# probabilities in the fixed outcome order.
_SQRT2 = 1 / np.sqrt(2.0)
ROTATIONS = {
    1: np.array([[_SQRT2, _SQRT2], [_SQRT2, -_SQRT2]], dtype=complex),
    2: np.array([[_SQRT2, -1j * _SQRT2], [_SQRT2, 1j * _SQRT2]], dtype=complex),
    3: np.eye(2, dtype=complex),
}


def _place_values(base, n):
    # built from Python ints: past int64 NumPy keeps them exact as objects
    return np.array([base**k for k in range(n - 1, -1, -1)])


def digits(index, base, n):
    """The n base-``base`` digits of an int or int array, as a new last axis."""
    return np.asarray(index)[..., None] // _place_values(base, n) % base


def from_digits(values, base):
    """Inverse of `digits`: the flat index of the digits on the last axis."""
    values = np.asarray(values)
    return values @ _place_values(base, values.shape[-1])


def kron_all(factors):
    """factors[0] (x) factors[1] (x) ...: qubit 0 is the leftmost factor."""
    return functools.reduce(np.kron, factors)


def apply_per_qubit(block, vec, n):
    """(block (x) ... (x) block) @ v for n factors, one qubit axis at a time.

    ``vec`` holds vectors v of 4**n entries along its last axis; any
    leading axes are a stack of such vectors.  Each pass contracts the
    leading qubit axis of every (4,) * n tensor with ``block`` and appends
    the result last, so the axes end in qubit order.  A pass is one
    (4**(n-1), 4) x (4, 4) product per vector, the same BLAS call for a
    stack as for a single vector, so stacking does not change the bits.
    """
    batch = vec.shape[:-1]
    t = vec.reshape(batch + (4,) * n)
    for _ in range(n):
        t = np.moveaxis(t, -n, -1).reshape(batch + (-1, 4)) @ block.T
        t = t.reshape(batch + (4,) * n)
    return t.reshape(vec.shape)


def _as_labels(labels):
    labels = tuple(int(x) for x in labels)
    if not labels:
        raise ValueError("empty label sequence")
    return labels


@dataclass(frozen=True)
class PauliString:
    """A tensor product of single-qubit Pauli operators, e.g. (1, 0, 3)."""

    labels: tuple

    def __post_init__(self):
        labels = _as_labels(self.labels)
        object.__setattr__(self, "labels", labels)
        if any(l not in (0, 1, 2, 3) for l in labels):
            raise ValueError("Pauli labels must be in {0, 1, 2, 3}, got %r" % (labels,))

    @property
    def n(self):
        return len(self.labels)

    @property
    def weight_j(self):
        """Number of identity factors (the correlation 'incompleteness')."""
        return sum(1 for l in self.labels if l == 0)

    @property
    def index(self):
        """Flat base-4 index, qubit 0 most significant."""
        return int(from_digits(self.labels, 4))

    @classmethod
    def from_index(cls, index, n):
        return cls(digits(index, 4, n).tolist())

    def __iter__(self):
        return iter(self.labels)


@dataclass(frozen=True)
class Setting:
    """A choice of local measurement direction (1, 2 or 3) per qubit."""

    directions: tuple

    def __post_init__(self):
        directions = _as_labels(self.directions)
        object.__setattr__(self, "directions", directions)
        if any(d not in (1, 2, 3) for d in directions):
            raise ValueError(
                "setting directions must be in {1, 2, 3}, got %r" % (directions,)
            )

    @property
    def n(self):
        return len(self.directions)

    @property
    def index(self):
        """Flat base-3 index (directions shifted to 0..2), qubit 0 first."""
        return int(from_digits(np.subtract(self.directions, 1), 3))

    @classmethod
    def from_index(cls, index, n):
        return cls((digits(index, 3, n) + 1).tolist())

    def __iter__(self):
        return iter(self.directions)


def all_settings(n):
    """All 3**n settings in index order."""
    return [Setting.from_index(i, n) for i in range(3**n)]


def outcome_signs(n):
    """(2**n, n) array of outcome signs in the fixed enumeration order."""
    return 1 - 2 * digits(np.arange(2**n), 2, n)


def pauli_matrix(mu):
    """Dense 2**n x 2**n matrix of the Pauli string ``mu``."""
    labels = mu.labels if isinstance(mu, PauliString) else _as_labels(mu)
    return kron_all(SIGMA[list(labels)])


def check_density_matrix(rho, n=None):
    """Validate the density-matrix contract (Hermitian, trace 1, 2**n dim).

    Positivity is not checked: unphysical linear estimates are first-class
    citizens here.  Raises ValueError on violation, returns the matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square, got shape %r" % (rho.shape,))
    dim = rho.shape[0]
    if n is None:
        n = dim.bit_length() - 1
    if dim != 2**n:
        raise ValueError("dimension %d is not 2**%d" % (dim, n))
    if np.abs(rho - rho.conj().T).max() > HERMITICITY_TOL:
        raise ValueError("matrix is not Hermitian within tolerance")
    if abs(np.trace(rho).real - 1.0) > TRACE_TOL or abs(np.trace(rho).imag) > TRACE_TOL:
        raise ValueError("matrix trace is not 1 within tolerance")
    return rho


# ---------------------------------------------------------------------------
# Ground-truth states
# ---------------------------------------------------------------------------

STATE_KINDS = (
    "white_noise",
    "pure_plus_noise",
    "rank_r_plus_noise",
    "ghz_plus_noise",
    "dicke_plus_noise",
    "explicit_matrix",
)


@dataclass(frozen=True)
class StateSpec:
    """Declarative description of a ground-truth state.

    ``q`` is the signal weight: the state is q * signal + (1 - q) * I/2**n.
    ``r`` is the signal rank for the random-rank kind, ``k`` the excitation
    number for the Dicke kind (default 3), ``seed`` feeds the random signal
    constructions.  ``matrix`` carries an explicit density matrix and is the
    one kind that cannot be serialized to JSON.
    """

    kind: str
    n: int
    q: float = 0.0
    r: int = 1
    k: int = 3
    seed: int = 0
    matrix: np.ndarray = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in STATE_KINDS:
            raise ValueError("unknown state kind %r" % (self.kind,))
        if not isinstance(self.n, int) or not 1 <= self.n <= MAX_QUBITS_DENSE:
            raise ValueError("qubit number must be an integer in 1..%d" % MAX_QUBITS_DENSE)
        if not 0.0 <= self.q <= 1.0:
            raise ValueError("signal weight q must lie in [0, 1]")
        if self.kind == "white_noise" and self.q != 0.0:
            raise ValueError("white noise has no signal part; q must be 0")
        if self.kind == "rank_r_plus_noise" and not 1 <= self.r <= 2**self.n:
            raise ValueError("signal rank r must lie in 1..2**n")
        if self.kind == "dicke_plus_noise" and not 0 <= self.k <= self.n:
            raise ValueError("Dicke excitation number k must lie in 0..n")
        if self.kind == "explicit_matrix" and self.matrix is None:
            raise ValueError("explicit_matrix spec needs a matrix")

    def to_json(self):
        if self.kind == "explicit_matrix":
            raise ValueError("explicit_matrix states are not JSON-serializable")
        doc = {"kind": self.kind, "n": self.n, "q": self.q}
        if self.kind == "rank_r_plus_noise":
            doc["r"] = self.r
        if self.kind == "dicke_plus_noise":
            doc["k"] = self.k
        if self.kind in ("pure_plus_noise", "rank_r_plus_noise"):
            doc["seed"] = self.seed
        return doc

    @classmethod
    def from_json(cls, doc):
        known = {"kind", "n", "q", "r", "k", "seed"}
        extra = set(doc) - known
        if extra:
            raise ValueError("unknown state keys %r" % sorted(extra))
        return cls(**{k: doc[k] for k in known if k in doc})


def ghz_vector(n):
    """(|0...0> + |1...1>)/sqrt(2)."""
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = _SQRT2
    return psi


def dicke_vector(n, k):
    """Symmetric state with k excitations, equal weight on all C(n, k) terms."""
    if not 0 <= k <= n:
        raise ValueError("excitation number k must lie in 0..n")
    psi = np.zeros(2**n, dtype=complex)
    psi[digits(np.arange(2**n), 2, n).sum(axis=1) == k] = 1.0
    psi /= np.linalg.norm(psi)
    return psi


def haar_orthonormal_columns(dim, r, seed):
    """r orthonormal columns from a complex standard-normal matrix.

    QR with the R-diagonal phase fixed to be positive, which makes the
    column distribution Haar and the output reproducible.
    """
    rng = np.random.Generator(np.random.Philox(key=np.array([seed, 0x9E3779B9], dtype=np.uint64)))
    z = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    qmat, rmat = np.linalg.qr(z)
    phases = np.diag(rmat).copy()
    phases = np.where(np.abs(phases) < 1e-300, 1.0, phases)
    qmat = qmat * (phases / np.abs(phases)).conj()
    return qmat


def build_state(spec):
    """Construct the dense density matrix described by a StateSpec."""
    n = spec.n
    dim = 2**n
    noise = np.eye(dim, dtype=complex) / dim
    if spec.kind == "white_noise":
        return noise
    if spec.kind == "explicit_matrix":
        return check_density_matrix(spec.matrix, n)
    if spec.kind == "ghz_plus_noise":
        psi = ghz_vector(n)
        signal = np.outer(psi, psi.conj())
    elif spec.kind == "dicke_plus_noise":
        psi = dicke_vector(n, spec.k)
        signal = np.outer(psi, psi.conj())
    elif spec.kind == "pure_plus_noise":
        cols = haar_orthonormal_columns(dim, 1, spec.seed)
        signal = cols @ cols.conj().T
    elif spec.kind == "rank_r_plus_noise":
        cols = haar_orthonormal_columns(dim, spec.r, spec.seed)
        # equal mixture of the r orthonormal pure states
        signal = (cols @ cols.conj().T) / spec.r
    else:  # pragma: no cover - guarded by StateSpec
        raise ValueError(spec.kind)
    return spec.q * signal + (1.0 - spec.q) * noise


# ---------------------------------------------------------------------------
# Expectation values and outcome probabilities
# ---------------------------------------------------------------------------


def pauli_expectation(rho, mu):
    """tr(rho sigma_mu); real up to numerical noise."""
    mat = pauli_matrix(mu)
    if mat.shape != rho.shape:
        raise ValueError("Pauli string length does not match the matrix dimension")
    val = np.trace(rho @ mat)
    if abs(val.imag) > 1e-10:
        raise ValueError("expectation value has a non-negligible imaginary part")
    return float(val.real)


def setting_rotation(setting):
    """Tensor product of the per-qubit basis-change unitaries for a setting."""
    directions = setting.directions if isinstance(setting, Setting) else tuple(setting)
    return kron_all([ROTATIONS[d] for d in directions])


def outcome_probabilities(rho, setting):
    """Exact outcome probabilities p_r = tr(rho Pi_r) for one setting.

    The register is rotated into the measurement eigenbasis and the
    diagonal is read off.  Tiny negative diagonal entries (eigenprojector
    roundoff) are clamped to zero and the vector renormalized, so the
    result is always a valid sampling distribution.
    """
    setting = setting if isinstance(setting, Setting) else Setting(tuple(setting))
    if rho.shape[0] != 2**setting.n:
        raise ValueError("setting length does not match the matrix dimension")
    u = setting_rotation(setting)
    probs = np.einsum("ij,jk,ik->i", u, rho, u.conj()).real
    if probs.min() < -1e-12:
        raise ValueError("probabilities below tolerance: min %g" % probs.min())
    probs = np.clip(probs, 0.0, None)
    total = probs.sum()
    if abs(total - 1.0) > 1e-10:
        raise ValueError("probabilities sum to %r, expected 1" % total)
    return probs / total


def setting_probability_table(rho, n):
    """(3**n, 2**n) table of exact outcome probabilities for every setting.

    Row s is ``outcome_probabilities`` of setting s, bit for bit.  The
    multinomial draws depend on the last bit of these numbers when two
    outcomes tie (GHZ, Dicke, white noise), so a faster route that sums
    in another order, such as contracting one qubit at a time (about
    1.2 s -> 20 ms at n=6, within 2e-16), changes the counts drawn
    for such states.  It could replace this loop only together with new
    golden digests.  Runs build the table once (`replica_estimator`).
    """
    table = np.empty((3**n, 2**n))
    for s_idx in range(3**n):
        table[s_idx] = outcome_probabilities(rho, Setting.from_index(s_idx, n))
    return table


def correlation_tensor_values(rho, n=None):
    """All 4**n exact expectation values tr(rho sigma_mu), flat-indexed.

    Computed by contracting the register tensor with the Pauli stack one
    qubit at a time, so no 4**n x 4**n matrix is ever formed.
    """
    if n is None:
        n = rho.shape[0].bit_length() - 1
    # interleave (row_0, col_0, row_1, col_1, ...): one (i, j) axis per qubit
    perm = [ax for k in range(n) for ax in (k, n + k)]
    tensor = rho.reshape((2,) * (2 * n)).transpose(perm).reshape(4**n)
    values = apply_per_qubit(_READ_PAULI, tensor, n)
    if np.abs(values.imag).max() > 1e-10:
        raise ValueError("correlation tensor has a non-negligible imaginary part")
    return values.real.copy()


def fidelity(rho, sigma):
    """Uhlmann fidelity of two (physical) density matrices.

    F = (tr sqrt(sqrt(rho) sigma sqrt(rho)))**2.  Mild negative
    eigenvalues from roundoff are clipped.
    """
    w, v = np.linalg.eigh(rho)
    sqrt_rho = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    inner = sqrt_rho @ sigma @ sqrt_rho
    evals = np.linalg.eigvalsh(inner)
    return float(np.sqrt(np.clip(evals, 0.0, None)).sum() ** 2)
