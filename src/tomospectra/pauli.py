"""Pauli-basis toolbox: the register convention, states, expectation values.

Every qubit register is ordered left to right, qubit 0 first, and qubit 0
is the most significant factor in all tensor products and flat indices:
a flat index is NumPy's C-order index of its digits, so
``np.unravel_index(index, (base,) * n)`` reads the digits qubit 0 first
and ``np.ravel_multi_index(digits, (base,) * n)`` packs them back.
`qubit_entries`/`from_qubit_entries` (the entries of a matrix or of the
setting x outcome table, qubit by qubit), `kron_all` (tensor products)
and `apply_per_qubit` (Kronecker powers of a block on a stack of
vectors) are its one implementation.
The fixed conventions used throughout the package are:

* Pauli labels 0, 1, 2, 3 stand for the identity and the X, Y, Z operators.
  A Pauli string is the flat base-4 index of its labels,
  ``np.ravel_multi_index(labels, (4,) * n)``.
* A measurement setting picks one of the directions 1, 2, 3 per qubit
  (there is no "identity measurement"); ``3**n`` settings in total, and
  setting s measures the directions ``np.unravel_index(s, (3,) * n)``
  plus 1.
* Outcomes are sign tuples in {+1, -1}^n.  Outcome enumeration is
  lexicographic with +1 before -1, i.e. bit 0 of the outcome index means
  +1 on that qubit and bit 1 means -1, qubit 0 most significant: outcome
  r has the signs 1 - 2 * ``np.unravel_index(r, (2,) * n)``.
* Measurement eigenvectors (the +1 eigenvector listed first):
  direction 1 (X): (1, 1)/sqrt(2) and (1, -1)/sqrt(2);
  direction 2 (Y): (1, i)/sqrt(2) and (1, -i)/sqrt(2);
  direction 3 (Z): (1, 0) and (0, 1).
  Outcome r of setting s is thus the projector prod_k (1 + r_k sigma_{s_k})/2;
  `tomospectra.estimation.setting_probability_table` builds the exact
  outcome probabilities from the correlation values in that form, one
  qubit at a time.  Read qubit by qubit (`qubit_entries`), entry (s, r)
  of a (3**n, 2**n) table has the digit 2 * (s_k - 1) + (bit k of r) on
  qubit k: the pair (direction, outcome).

Density matrices are plain complex numpy arrays.  They must be Hermitian
with unit trace; positivity is deliberately *not* required, because the
linear estimates this package studies are routinely non-positive.
"""

import functools
import numbers
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
_SQRT2 = 1 / np.sqrt(2.0)


def _permuted(array, shape, perm):
    """``array.reshape(shape).transpose(perm)`` as a new C-ordered array.

    The last axis of ``shape`` must have length 2 and stay last, so each
    pair of adjacent entries moves as one opaque element: numpy copies
    short inner loops slowly, and this cuts the copy of a (729, 64) table
    to a third.  The bits are those of the plain transpose.
    """
    array = np.ascontiguousarray(array)
    pairs = array.view(np.dtype((np.void, 2 * array.itemsize)))
    moved = pairs.reshape(shape[:-1]).transpose(perm[:-1]).copy()
    return moved.view(array.dtype)


def qubit_entries(table, n):
    """A stack of (a**n, 2**n) tables -> (..., (2a)**n) entries, indexed (row_0, col_0, row_1, ...).

    A density matrix has a = 2 row digits per qubit, the (3**n, 2**n)
    setting x outcome table a = 3; the columns are always 2**n outcomes.
    """
    batch = table.shape[:-2]
    lead = len(batch)
    rows = round(table.shape[-2] ** (1 / n))
    perm = [*range(lead), *(lead + ax for k in range(n) for ax in (k, n + k))]
    return _permuted(table, batch + (rows,) * n + (2,) * n, perm).reshape(batch + ((2 * rows)**n,))


def from_qubit_entries(entries, n):
    """Inverse of `qubit_entries` on a stack: (..., (2a)**n) -> (..., a**n, 2**n)."""
    batch = entries.shape[:-1]
    lead = len(batch)
    rows = round(entries.shape[-1] ** (1 / n)) // 2
    # (row_0, col_0, row_1, col_1, ...) -> (row_0, row_1, ..., col_0, col_1, ...)
    perm = [*range(lead), *range(lead, lead + 2 * n, 2), *range(lead + 1, lead + 2 * n, 2)]
    moved = _permuted(entries, batch + (rows, 2) * n, perm)
    return moved.reshape(batch + (rows**n, 2**n))


def kron_all(factors):
    """factors[0] (x) factors[1] (x) ...: qubit 0 is the leftmost factor."""
    return functools.reduce(np.kron, factors)


def apply_per_qubit(block, vec, n):
    """(block (x) ... (x) block) @ v for n factors, one qubit axis at a time.

    An (m, k) block takes vectors v of k**n entries along the last axis of
    ``vec`` to m**n entries; any leading axes are a stack of such vectors.
    Each pass contracts the leading qubit axis of every (k,) * n tensor
    with ``block`` and appends the result last, so the axes end in qubit
    order.  A pass is one (rest, k) x (k, m) product per vector on a
    transposed view, with no copy, the same BLAS call for a stack as for
    a single vector, so stacking does not change the bits.
    """
    batch = vec.shape[:-1]
    m, k = block.shape
    t = vec
    # explicit sizes, not -1, so an empty stack keeps its shape
    for i in range(n):
        t = t.reshape(batch + (k, k ** (n - 1 - i) * m**i)).swapaxes(-1, -2) @ block.T
    return t.reshape(batch + (m**n,))


def _bounded(name, value, low, high):
    """``value`` if it lies in [low, high]; no ``low`` means no range, no ``high`` no upper bound.

    The one message of a value out of range names the input, its range
    and the value it got.
    """
    if low is None or low <= value and (high is None or value <= high):
        return value
    span = "be >= %s" % low if high is None else "lie in %s..%s" % (low, high)
    raise ValueError("%s must %s, got %r" % (name, span, value))


def _integer(name, value, low=None, high=None):
    """``value`` as an int in [low, high]; its type must be an integer type other than bool.

    A float or a bool is rejected, not truncated: int(100.7) would silently
    drop events, seed=3.7 would replay seed 3 and True would pass for 1.
    Either bound may be left out; `_bounded` words the refusal.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError("%s must be an integer, got %r" % (name, value))
    return _bounded(name, int(value), low, high)


def _real(name, value, low=None, high=None):
    """``value`` as a finite float in [low, high]; its type must be a real number type other than bool.

    True would pass for 1, "0.5" read from a config.json is malformed, and
    NaN fails every range check.  Either bound may be left out; `_bounded`
    words the refusal.
    """
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError("%s must be a number, got %r" % (name, value))
    value = float(value)
    if not np.isfinite(value):
        raise ValueError("%s must be finite, got %r" % (name, value))
    return _bounded(name, value, low, high)


def _positive(name, value):
    """``value`` as a finite float above 0 (see `_real`)."""
    if not _real(name, value) > 0:
        raise ValueError("%s must be positive, got %r" % (name, value))
    return float(value)


def _signal_weight(q):
    """``q`` as a float in [0, 1], the weight of a state's signal part (see `_real`)."""
    return _real("signal weight q", q, 0, 1)


def _seed(name, value):
    """``value`` as an int in 0..2**64 - 1: it becomes a 64-bit Philox key word."""
    return _integer(name, value, 0, 2**64 - 1)


def _dense_qubits(n):
    """``n`` as an int in 1..MAX_QUBITS_DENSE, the registers simulated densely."""
    return _integer("n", n, 1, MAX_QUBITS_DENSE)


def _known_keys(block, doc, known):
    """Reject a ``doc`` that is not a JSON object or has a key outside ``known``."""
    if not isinstance(doc, dict):
        raise ValueError("%s must be a JSON object, got %r" % (block, doc))
    extra = set(doc) - set(known)
    if extra:
        raise ValueError("unknown %s keys %r" % (block, sorted(extra)))


def check_density_matrix(rho, n):
    """Validate the density-matrix contract (Hermitian, trace 1, 2**n dim) of n qubits.

    Positivity is not checked: unphysical linear estimates are first-class
    citizens here.  Raises ValueError on violation, returns the matrix.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.ndim != 2 or rho.shape[0] != rho.shape[1]:
        raise ValueError("density matrix must be square, got shape %r" % (rho.shape,))
    dim = rho.shape[0]
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
        object.__setattr__(self, "n", _dense_qubits(self.n))
        # k=1.5 would build a NaN state; each kind bounds its own field
        r_range = (1, 2**self.n) if self.kind == "rank_r_plus_noise" else ()
        k_range = (0, self.n) if self.kind == "dicke_plus_noise" else ()
        object.__setattr__(self, "r", _integer("signal rank r", self.r, *r_range))
        object.__setattr__(self, "k", _integer("Dicke excitation number k", self.k, *k_range))
        object.__setattr__(self, "seed", _seed("seed", self.seed))
        object.__setattr__(self, "q", _signal_weight(self.q))
        if self.kind == "white_noise" and self.q != 0.0:
            raise ValueError("white noise has no signal part; q must be 0")
        if self.kind == "explicit_matrix" and self.matrix is None:
            raise ValueError("explicit_matrix spec needs a matrix")

    @property
    def signal_rank(self):
        """The rank of the signal part: ``r`` for the random-rank kind, 1 for every other kind.

        `models._signal_rank` folds in the weight: with q = 0 the state is
        white noise whatever this reads.
        """
        return self.r if self.kind == "rank_r_plus_noise" else 1

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
        known = ("kind", "n", "q", "r", "k", "seed")
        _known_keys("state", doc, known)
        return cls(**{k: doc[k] for k in known if k in doc})


def ghz_vector(n):
    """(|0...0> + |1...1>)/sqrt(2)."""
    psi = np.zeros(2**n, dtype=complex)
    psi[0] = psi[-1] = _SQRT2
    return psi


def dicke_vector(n, k):
    """Symmetric state with k excitations, equal weight on all C(n, k) terms."""
    k = _integer("excitation number k", k, 0, n)
    psi = np.zeros(2**n, dtype=complex)
    # the basis states whose n bits hold k ones
    psi[sum(np.unravel_index(np.arange(2**n), (2,) * n)) == k] = 1.0
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
    elif spec.kind in ("pure_plus_noise", "rank_r_plus_noise"):
        # equal mixture of r orthonormal pure states; a pure signal is r = 1
        cols = haar_orthonormal_columns(dim, spec.signal_rank, spec.seed)
        signal = (cols @ cols.conj().T) / spec.signal_rank
    return spec.q * signal + (1.0 - spec.q) * noise


# ---------------------------------------------------------------------------
# Expectation values
# ---------------------------------------------------------------------------


def correlation_tensor_values(rho, n):
    """All 4**n exact expectation values tr(rho sigma_mu) of an n-qubit rho, flat-indexed.

    Computed by contracting the register tensor with the Pauli stack one
    qubit at a time, so no 4**n x 4**n matrix is ever formed.
    """
    values = apply_per_qubit(_READ_PAULI, qubit_entries(rho, n), n)
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
