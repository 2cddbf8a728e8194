"""Linear state estimation: counts -> correlations -> matrix.

Flat indices, tensor products and per-qubit maps go through the register
helpers of `tomospectra.pauli` (`qubit_entries`/`from_qubit_entries`,
`apply_per_qubit`); this module decodes no digits itself.

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

That mean factorizes qubit by qubit.  Read per qubit as (direction,
outcome) pairs, a frequency table is a vector of 6**n entries
(`qubit_entries`), and one real (4, 6) block on each qubit axis takes it
to the 4**n correlation values: the identity averages the three
directions, label d is the signed sum of direction d.  The exact outcome
probabilities the counts are drawn from go the other way through the
(6, 4) block (T_0 +- T_d) / 2 (`setting_probability_table`).
Reconstruction applies the single-qubit map from Pauli coefficients to
matrix entries on each qubit axis (`apply_per_qubit`).

Complete projector scheme
--------------------------
The 4**n rank-1 projectors onto tensor products of |0>, |1>, |+> and
|+i> form a (barely) informationally complete frame.  The transfer
matrix B[v, mu] = tr(sigma_mu P_v) / 2**n from correlation values to
projector probabilities is the n-fold Kronecker power of a 4x4 block.
The estimate is one per-qubit map from counts to matrix entries (B^-1,
then Pauli coefficients to entries), normalized to unit trace by the
counts alone; no dense matrix and no correlation vector is formed.
"""

from dataclasses import dataclass

import numpy as np

from .pauli import (
    SIGMA,
    _dense_qubits,
    apply_per_qubit,
    correlation_tensor_values,
    from_qubit_entries,
    kron_all,
    qubit_entries,
)

# per qubit, row d - 1 holds (-1)**outcome on the two outcomes of direction d
_SIGNS = kron_all([np.eye(3), [1.0, -1.0]])
# per qubit, (direction, outcome) frequencies to Pauli coefficients: the
# identity averages the three directions, label d is direction d's signed sum
_FREQUENCY_PAULI = np.vstack([np.full(6, 1 / 3), _SIGNS])
# per qubit, Pauli coefficients to outcome probabilities (T_0 +- T_d) / 2
_PAULI_FREQUENCY = np.hstack([np.ones((6, 1)), _SIGNS.T]) / 2


def correlations_from_frequencies(freqs, n):
    """Correlation values from (3**n, 2**n) frequency tables.

    ``freqs`` is one table or a stack of them (leading axes); the rows
    of a table must be ordered by setting index.  Returns the 4**n values
    T~_mu of each table, flat-indexed by Pauli string with the identity
    entry exactly 1; each is the mean over the 3**j(mu) settings
    compatible with mu, one (4, 6) block per qubit axis.
    """
    values = apply_per_qubit(_FREQUENCY_PAULI, qubit_entries(freqs, n), n)
    values[..., 0] = 1.0  # frequencies are normalized, force exactness
    return values


def _born(probs):
    """Exact Born probabilities made safe to draw from: clipped at 0.

    Both schemes' counts are drawn through here.  Roundoff negatives down
    to -1e-12 become zero; anything lower means the state is not positive
    and raises, since clipping it would simulate another state.
    """
    if probs.min() < -1e-12:
        raise ValueError("probabilities below tolerance: min %g" % probs.min())
    return np.clip(probs, 0.0, None)


def setting_probability_table(rho, n):
    """(3**n, 2**n) table of the exact outcome probabilities of every setting.

    The forward map of `correlations_from_frequencies`: outcome r of
    setting s projects onto prod_k (1 + r_k sigma_{s_k}) / 2, so one
    (6, 4) block per qubit axis, (T_0 +- T_d) / 2, takes the exact
    correlation values to the table.  Roundoff negatives are clipped to
    zero (`_born`) and each row renormalized, so every row is a valid
    sampling distribution; a row that does not sum to 1 within 1e-10
    raises.  Runs build the table once (`replica_estimator`).
    """
    values = correlation_tensor_values(rho, n)
    probs = _born(from_qubit_entries(apply_per_qubit(_PAULI_FREQUENCY, values, n), n))
    totals = probs.sum(axis=1)
    worst = totals[np.abs(totals - 1.0).argmax()]
    if abs(worst - 1.0) > 1e-10:
        raise ValueError("probabilities sum to %r, expected 1" % worst)
    return probs / totals[:, None]


# ---------------------------------------------------------------------------
# Reconstruction
# ---------------------------------------------------------------------------


# per qubit, Pauli coefficients to matrix entries: [(i, j), mu] = sigma_mu[i, j]
_PAULI_ENTRIES = SIGMA.reshape(4, 4).T


def reconstruct_from_values(values, n):
    """Dense matrix 2**-n sum_mu T_mu sigma_mu from flat correlation values.

    ``values`` may carry leading stack axes; so does the result.
    """
    values = np.asarray(values, dtype=complex)
    return from_qubit_entries(apply_per_qubit(_PAULI_ENTRIES, values, n), n) / 2**n


# ---------------------------------------------------------------------------
# Complete (projector) scheme
# ---------------------------------------------------------------------------

# Single-qubit frame kets: |0>, |1>, |+>, |+i>.
_FRAME_KETS = np.array([[1, 0], [0, 1], [1, 1], [1, 1j]]) / np.sqrt([[1.0], [1.0], [2.0], [2.0]])


@dataclass(frozen=True)
class CompleteSchemeFrame:
    """The 4**n-projector tomography frame in Kronecker-factored form.

    ``block`` is the single-qubit transfer matrix B1[v, mu] =
    tr(sigma_mu |v><v|) / 2 and ``entries`` the single-qubit map from
    counts to matrix entries, [(i, j), v] = sum_mu sigma_mu[i, j] B1^-1[mu, v];
    their n-fold Kronecker powers act on the whole register.
    `build_complete_frame` makes a new frame, with its own arrays, on
    every call.
    """

    n: int
    block: np.ndarray
    entries: np.ndarray

    def intensity(self, values, total_counts):
        """Poisson detection rates p_v * total_counts / 2**n from flat correlation values.

        p_v = B @ T are the projector probabilities, checked and clipped at
        0 by `_born`.  The 4**n projectors of a white-noise state see 2**-n
        each, so the p_v sum to 2**n and the rates detect ``total_counts``
        events in expectation.
        """
        p_v = _born(apply_per_qubit(self.block, np.asarray(values, dtype=float), self.n))
        return p_v * (total_counts / 2**self.n)

    def trace(self, counts):
        """tr(sum_v c_v D_v) of each table of (..., 4**n) projector counts.

        The duals D_v of |0> and |1> have unit trace and those of |+> and
        |+i> none, so the trace is the count of the 2**n computational-basis
        projectors.  A table whose trace is 0 has no linear estimate.
        """
        # digits 0 and 1 (|0> and |1>) on every qubit axis of the (4,) * n view
        basis = counts.reshape(counts.shape[:-1] + (4,) * self.n)[(...,) + (slice(2),) * self.n]
        return basis.sum(axis=tuple(range(-self.n, 0)))


def build_complete_frame(n):
    """A new projector frame for n qubits, 1..MAX_QUBITS_DENSE.

    Nothing is cached: a run builds its one frame in `replica_estimator`
    (about 30 us at n=6), and a frame one caller edits reaches no other.
    """
    n = _dense_qubits(n)
    # tr(sigma_mu |v><v|) = <v| sigma_mu |v>, real since sigma_mu is Hermitian
    block = np.einsum("vi,mij,vj->vm", _FRAME_KETS.conj(), SIGMA, _FRAME_KETS).real / 2.0
    return CompleteSchemeFrame(n=n, block=block, entries=_PAULI_ENTRIES @ np.linalg.inv(block))


def estimate_complete(frame, counts):
    """Linear estimate sum_v c_v D_v / tr(sum_v c_v D_v) from projector counts.

    ``frame.entries`` holds 2 D_v per qubit, D_v being the dual of projector
    v, so one per-qubit map takes the counts to the matrix, and the trace
    is the total count of the 2**n computational-basis projectors
    (`CompleteSchemeFrame.trace`).  ``counts`` may carry leading stack
    axes; so does the estimate.
    """
    n = frame.n
    counts = np.asarray(counts, dtype=float)
    if counts.ndim == 0 or counts.shape[-1] != 4**n:
        raise ValueError("expected %d projector counts" % 4**n)
    total = frame.trace(counts)
    if (total == 0).any():
        raise ValueError("degenerate data: no computational-basis counts")
    scaled = counts / (2**n * total)[..., None]
    return from_qubit_entries(apply_per_qubit(frame.entries, scaled, n), n)
