"""Linear state estimation: counts -> correlations -> matrix -> spectrum.

Flat indices, tensor products and per-qubit contractions go through the
register helpers of `tomospectra.pauli` (`digits`/`from_digits`,
`kron_all`, `apply_per_qubit`); this module decodes no digits itself.

Overcomplete local scheme
-------------------------
With all 3**n local settings measured, every Pauli string mu can be read
out of several settings: a setting s is *compatible* with mu when it
matches mu on every non-identity position.  There are 3**j such settings,
j being the number of identity labels in mu, and each contributes the
signed frequency sum  sum_r (prod_{k: mu_k != 0} r_k) f_r^s.  The
estimate T~_mu is the unweighted mean over the compatible settings (all
settings collect the same number of events, making uniform weights
optimal), which cuts the variance to 1/(3**j N).

The signed sums for all subsets at once are a Walsh-Hadamard transform of
the frequency vector, so the whole correlation tensor costs one
(3**n, 2**n) x (2**n, 2**n) matrix product plus a scatter-add.
Reconstruction applies the single-qubit map from Pauli coefficients to
matrix entries on each qubit axis (`apply_per_qubit`).

Complete projector scheme
--------------------------
The 4**n rank-1 projectors onto tensor products of |0>, |1>, |+> and
|+i> form a (barely) informationally complete frame.  The transfer
matrix B with B[v, mu] = tr(sigma_mu P_v) / 2**n maps correlation values
to projector probabilities; it factorizes as the n-fold Kronecker power
of a single-qubit 4x4 block, so both B and its inverse are applied one
qubit axis at a time (`apply_per_qubit`) and the dense matrix is never
needed (`kron_all` still materializes it on demand for small n, where
checking invertibility literally is cheap).
"""

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .pauli import SIGMA, apply_per_qubit, digits, from_digits, kron_all

__all__ = [
    "Spectrum",
    "CompleteSchemeFrame",
    "spectrum_of",
    "build_complete_frame",
    "estimate_complete",
]


# ---------------------------------------------------------------------------
# Precomputed index machinery (cached per qubit number)
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _hadamard_signs(n):
    """H[S, r] = prod_{k in S} r_k as a (2**n, 2**n) +-1 matrix.

    S is a subset of qubits encoded as a bitmask (bit n-1-k for qubit k,
    matching the outcome index convention), r an outcome index.
    """
    return kron_all([np.array([[1.0, 1.0], [1.0, -1.0]])] * n)


@lru_cache(maxsize=None)
def _subset_maps(n):
    """Index plumbing for the scatter-add from settings to Pauli strings.

    Returns (mu_index, multiplicity): mu_index[s, S] is the flat Pauli
    index measured by setting s restricted to subset S; multiplicity[mu]
    counts the settings compatible with mu, i.e. 3**j(mu).
    """
    directions = digits(np.arange(3**n), 3, n) + 1  # (settings, qubits)
    mu_index = np.empty((3**n, 2**n), dtype=np.int64)
    # column S keeps each setting's directions on S and the identity elsewhere
    for subset, in_subset in enumerate(digits(np.arange(2**n), 2, n)):
        mu_index[:, subset] = from_digits(directions * in_subset, 4)
    # each compatible setting reaches mu exactly once, through mu's support
    multiplicity = np.bincount(mu_index.ravel(), minlength=4**n)
    return mu_index, multiplicity


def correlations_from_frequencies(freqs, n):
    """Correlation values from (3**n, 2**n) frequency tables.

    ``freqs`` is one table or a stack of them (leading axes); the rows
    of a table must be ordered by setting index.  Returns the 4**n values
    T~_mu of each table, flat-indexed by Pauli string with the identity
    entry exactly 1, and the multiplicity 3**j(mu) of each entry (the
    number of settings that contributed to it).
    """
    signed = freqs @ _hadamard_signs(n)  # (..., settings, subsets) signed sums
    mu_index, multiplicity = _subset_maps(n)
    batch = signed.shape[:-2]
    tables = math.prod(batch)
    # one scatter-add for the stack: table b fills bins [b * 4**n, (b+1) * 4**n);
    # a single table (every n=6 stack) scatters through the cached index as is,
    # which keeps a 729 x 64 index temporary out of the n=6 peak memory
    index = mu_index.ravel()
    if tables > 1:
        index = (index + np.arange(0, tables * 4**n, 4**n)[:, None]).ravel()
    sums = np.bincount(index, weights=signed.ravel(), minlength=tables * 4**n)
    values = sums.reshape(batch + (4**n,)) / multiplicity
    values[..., 0] = 1.0  # frequencies are normalized, force exactness
    return values, multiplicity


# ---------------------------------------------------------------------------
# Reconstruction and spectra
# ---------------------------------------------------------------------------


# per qubit, Pauli coefficients to matrix entries: [(i, j), mu] = sigma_mu[i, j]
_PAULI_ENTRIES = SIGMA.reshape(4, 4).T


def reconstruct_from_values(values, n):
    """Dense matrix 2**-n sum_mu T_mu sigma_mu from flat correlation values.

    ``values`` may carry leading stack axes; so does the result.
    """
    values = np.asarray(values, dtype=complex)
    batch = values.shape[:-1]
    t = apply_per_qubit(_PAULI_ENTRIES, values, n).reshape(batch + (2,) * (2 * n))
    # (row_0, col_0, row_1, col_1, ...) -> (row_0, row_1, ..., col_0, col_1, ...)
    lead = len(batch)
    perm = [*range(lead), *range(lead, lead + 2 * n, 2), *range(lead + 1, lead + 2 * n, 2)]
    rho = t.transpose(perm).reshape(batch + (2**n, 2**n))
    return rho / 2**n


@dataclass(frozen=True)
class Spectrum:
    """Eigenvalues of one estimate, ascending, plus the trace they sum to."""

    eigenvalues: np.ndarray
    trace: float

    def __post_init__(self):
        eigenvalues = np.asarray(self.eigenvalues, dtype=float)
        object.__setattr__(self, "eigenvalues", eigenvalues)
        if eigenvalues.ndim != 1:
            raise ValueError("eigenvalues must be a flat sequence")
        if np.any(np.diff(eigenvalues) < 0):
            raise ValueError("eigenvalues must be sorted ascending")
        if abs(eigenvalues.sum() - self.trace) > 1e-9:
            raise ValueError("eigenvalue sum does not match the trace")

    @property
    def n(self):
        return int(len(self.eigenvalues)).bit_length() - 1

    @property
    def min(self):
        return float(self.eigenvalues[0])

    @property
    def max(self):
        return float(self.eigenvalues[-1])


def spectrum_of(rho, check_residual=True):
    """Eigenvalues of a Hermitian matrix as a Spectrum.

    Raises if the input is visibly non-Hermitian or if the decomposition
    does not reproduce the matrix to 1e-9 (paranoia against silent LAPACK
    misuse; disable with check_residual=False in hot loops).
    """
    rho = np.asarray(rho)
    if np.abs(rho - rho.conj().T).max() > 1e-9:
        raise ValueError("matrix is not Hermitian within tolerance")
    if check_residual:
        w, v = np.linalg.eigh(rho)
        residual = np.abs(rho - (v * w) @ v.conj().T).max()
        if residual > 1e-9:
            raise ValueError("eigendecomposition residual %g too large" % residual)
    else:
        w = np.linalg.eigvalsh(rho)
    return Spectrum(eigenvalues=w, trace=float(np.trace(rho).real))


# ---------------------------------------------------------------------------
# Complete (projector) scheme
# ---------------------------------------------------------------------------

# Single-qubit frame kets: |0>, |1>, |+>, |+i>.
_FRAME_KETS = np.array(
    [
        [1.0, 0.0],
        [0.0, 1.0],
        [1.0 / np.sqrt(2.0), 1.0 / np.sqrt(2.0)],
        [1.0 / np.sqrt(2.0), 1j / np.sqrt(2.0)],
    ],
    dtype=complex,
)


@dataclass(frozen=True)
class CompleteSchemeFrame:
    """The 4**n-projector tomography frame in Kronecker-factored form.

    ``block`` is the single-qubit transfer matrix B1 with
    B1[v, mu] = tr(sigma_mu |v><v|) / 2; the full transfer matrix is its
    n-fold Kronecker power.  ``block_inv`` is its exact inverse.
    """

    n: int
    kets: np.ndarray
    block: np.ndarray
    block_inv: np.ndarray

    def projector(self, v):
        """Dense rank-1 projector for flat frame index v."""
        ket = kron_all(self.kets[digits(v, 4, self.n)])
        return np.outer(ket, ket.conj())

    @property
    def transfer_matrix(self):
        """Dense B (4**n x 4**n); fine for small n, avoid for n = 6."""
        return kron_all([self.block] * self.n)

    @property
    def transfer_inverse(self):
        return kron_all([self.block_inv] * self.n)

    def probabilities(self, values):
        """Projector probabilities p_v = B @ T from flat correlation values."""
        return apply_per_qubit(self.block, np.asarray(values, dtype=float), self.n)

    def correlations(self, frequencies):
        """Raw correlation vector B^-1 @ f (no normalization applied)."""
        return apply_per_qubit(self.block_inv, np.asarray(frequencies, dtype=float), self.n)


@lru_cache(maxsize=None)
def build_complete_frame(n):
    """Build (and cache) the projector frame for n qubits."""
    if not 1 <= n <= 6:
        raise ValueError("the dense projector frame is limited to 1..6 qubits")
    block = np.empty((4, 4))
    for v in range(4):
        proj = np.outer(_FRAME_KETS[v], _FRAME_KETS[v].conj())
        for mu in range(4):
            val = np.trace(SIGMA[mu] @ proj) / 2.0
            if abs(val.imag) > 1e-14:
                raise AssertionError("transfer matrix must be real")
            block[v, mu] = val.real
    block_inv = np.linalg.inv(block)
    if np.abs(block @ block_inv - np.eye(4)).max() > 1e-8:
        raise AssertionError("singular single-qubit transfer block")
    return CompleteSchemeFrame(n=n, kets=_FRAME_KETS, block=block, block_inv=block_inv)


def estimate_complete(frame, counts, n_flux):
    """Linear estimate from the projector scheme's counts.

    Frequencies f_v = c_v / n_flux are inverted through the transfer
    matrix; the correlation vector is then rescaled so its identity
    component is exactly 1, which keeps the trace pinned regardless of
    how the actual event total fluctuated around the nominal flux.
    ``counts`` may carry leading stack axes; so does the estimate.
    """
    if n_flux <= 0:
        raise ValueError("flux must be positive")
    counts = np.asarray(counts, dtype=float)
    if counts.ndim == 0 or counts.shape[-1] != 4**frame.n:
        raise ValueError("expected %d projector counts" % 4**frame.n)
    raw = frame.correlations(counts / n_flux)
    if (np.abs(raw[..., 0]) < 1e-12).any():
        raise ValueError("degenerate data: vanishing identity component")
    values = raw / raw[..., :1]
    return reconstruct_from_values(values, frame.n)
