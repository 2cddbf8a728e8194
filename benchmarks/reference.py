"""Checks of a run's output that share no code with ``tomospectra``.

``replay`` recomputes single replicas from first principles: Born
probabilities from explicit tensor-product projectors, counts from
``numpy.random.Philox`` keyed ``(master_seed, replica * 2**32 + setting)``,
and the linear estimate as an explicit sum of Pauli matrices
(overcomplete scheme) or of product dual operators (complete scheme).
The property checks hold an ensemble against the laws the method must
obey.  Every function returns ``(passed, detail)``.
"""

import math

import numpy as np

#: largest eigenvalue difference accepted between a replay and the run
REPLAY_TOL = 1e-9

_S = 1 / math.sqrt(2.0)
# measurement eigenvectors per direction X=1, Y=2, Z=3; the +1 one first
DIRECTION_KETS = {
    1: np.array([[_S, _S], [_S, -_S]], dtype=complex),
    2: np.array([[_S, 1j * _S], [_S, -1j * _S]], dtype=complex),
    3: np.array([[1, 0], [0, 1]], dtype=complex),
}
# complete-scheme frame kets |0>, |1>, |+>, |+i>
FRAME_KETS = np.array([[1, 0], [0, 1], [_S, _S], [_S, 1j * _S]], dtype=complex)
PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]],
                  [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)


def digits(index, base, n):
    """Base-``base`` digits of ``index``, qubit 0 (most significant) first."""
    out = []
    for _ in range(n):
        out.append(index % base)
        index //= base
    return out[::-1]


def kron_all(factors):
    out = factors[0]
    for f in factors[1:]:
        out = np.kron(out, f)
    return out


def true_state(state):
    """Density matrix of a workload's state, built from its description.

    ``rank_r_plus_noise`` mixes ``q`` times the uniform mixture of ``r``
    Haar-random orthonormal vectors with ``1 - q`` white noise; the vectors
    are the QR factor (diagonal of R made positive) of a complex Gaussian
    matrix drawn from Philox keyed ``(seed, 0x9E3779B9)``.
    """
    dim = 2 ** state["n"]
    noise = np.eye(dim, dtype=complex) / dim
    if state["kind"] == "white_noise":
        return noise
    if state["kind"] != "rank_r_plus_noise":
        raise ValueError("no reference state for %r" % state["kind"])
    r = state["r"]
    rng = np.random.Generator(np.random.Philox(
        key=np.array([state["seed"], 0x9E3779B9], dtype=np.uint64)))
    z = rng.standard_normal((dim, r)) + 1j * rng.standard_normal((dim, r))
    q_mat, r_mat = np.linalg.qr(z)
    phases = np.diag(r_mat) / np.abs(np.diag(r_mat))
    vecs = q_mat * phases.conj()
    return state["q"] * (vecs @ vecs.conj().T) / r + (1 - state["q"]) * noise


def replica_stream(master_seed, replica, setting):
    key = np.array([master_seed % 2**64, replica * 2**32 + setting], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def born(rho, kets):
    """<k| rho |k> for each row k of ``kets``, as real numbers."""
    return np.einsum("ki,ij,kj->k", kets.conj(), rho, kets).real


def overcomplete_probabilities(rho, n):
    """(3**n, 2**n) outcome probabilities from explicit projectors.

    Row r of the Kronecker product of the per-qubit ket matrices is the
    product eigenvector of outcome r (qubit 0 the most significant bit).
    """
    table = np.empty((3**n, 2**n))
    for s in range(3**n):
        kets = kron_all([DIRECTION_KETS[d + 1] for d in digits(s, 3, n)])
        p = np.clip(born(rho, kets), 0.0, None)
        table[s] = p / p.sum()
    return table


def pauli_matrix(labels):
    return kron_all([PAULI[m] for m in labels])


def overcomplete_estimate(freqs, n):
    """2**-n sum_mu T_mu sigma_mu, T_mu averaged over compatible settings.

    Setting s contributes to Pauli string mu when mu agrees with s
    wherever mu is not the identity; its contribution is the frequency-
    weighted product of the outcome signs on mu's support.
    """
    subsets = [digits(subset, 2, n) for subset in range(2**n)]
    signs = np.array([[1 - 2 * b for b in digits(r, 2, n)] for r in range(2**n)])
    weights = np.array([np.prod(np.where(np.array(on) == 1, signs, 1), axis=1)
                        for on in subsets])
    total = np.zeros(4**n)
    count = np.zeros(4**n)
    for s in range(3**n):
        dirs = [d + 1 for d in digits(s, 3, n)]
        signed = weights @ freqs[s]
        for on, value in zip(subsets, signed):
            mu = 0
            for k in range(n):
                mu = 4 * mu + (dirs[k] if on[k] else 0)
            total[mu] += value
            count[mu] += 1
    rho = np.zeros((2**n, 2**n), dtype=complex)
    for mu in range(4**n):
        rho += (total[mu] / count[mu]) * pauli_matrix(digits(mu, 4, n))
    return rho / 2**n


def complete_probabilities(rho, n):
    """Probabilities tr(rho P_v) of the 4**n product frame projectors."""
    return born(rho, kron_all([FRAME_KETS] * n))


def complete_estimate(counts, n):
    """sum_v c_v D_v scaled to unit trace, D_v the product dual operators.

    The single-qubit duals D_a solve X = sum_a tr(X P_a) D_a for every
    2x2 matrix X, i.e. their vectorizations are the columns of the
    inverse of the matrix whose rows are the conjugated vectorized P_a.
    """
    frame = np.array([np.outer(k, k.conj()).ravel().conj() for k in FRAME_KETS])
    duals = np.linalg.inv(frame).T.reshape(4, 2, 2)
    x = np.zeros((2**n, 2**n), dtype=complex)
    for v in range(4**n):
        if counts[v]:
            x += counts[v] * kron_all([duals[a] for a in digits(v, 4, n)])
    return x / np.trace(x).real


def replay(spec, master_seed, replicas, rows):
    """Recompute ``rows[i]`` for each replica ``i`` in ``replicas``."""
    state = spec["state"]
    n = state["n"]
    rho = true_state(state)
    if spec["scheme"] == "complete":
        intensity = np.clip(complete_probabilities(rho, n), 0.0, None) * spec["total_counts"] / 2**n
    else:
        probs = overcomplete_probabilities(rho, n)
    results = []
    for i in replicas:
        if spec["scheme"] == "complete":
            counts = replica_stream(master_seed, i, 0).poisson(intensity)
            estimate = complete_estimate(counts, n)
        else:
            events = spec["events_per_setting"]
            freqs = np.array([replica_stream(master_seed, i, s).multinomial(events, probs[s])
                              for s in range(3**n)]) / events
            estimate = overcomplete_estimate(freqs, n)
        gap = float(np.abs(np.linalg.eigvalsh(estimate) - rows[i]).max())
        results.append((gap <= REPLAY_TOL, "replica %d: max |eigenvalue gap| %.2e (<= %g)"
                        % (i, gap, REPLAY_TOL)))
    return results


# ---------------------------------------------------------------------------
# properties of the method
# ---------------------------------------------------------------------------


def rows_valid(rows):
    ascending = bool(np.all(np.diff(rows, axis=1) >= 0))
    trace_gap = float(np.abs(rows.sum(axis=1) - 1).max())
    return (ascending and trace_gap <= 1e-9,
            "rows ascending: %s, max |trace - 1| %.1e (<= 1e-9)" % (ascending, trace_gap))


def semicircle_radius(n, events, r=0):
    return 2 * math.sqrt((10**n - 1) / 12**n) * math.sqrt(1 - r / 2**n) / math.sqrt(events)


def semicircle_cdf(center, radius, x):
    u = np.clip((x - center) / radius, -1.0, 1.0)
    return 0.5 + (u * np.sqrt(1 - u * u) + np.arcsin(u)) / math.pi


def laplace_cdf(center, alpha, x):
    z = x - center
    return np.where(z < 0, 0.5 * np.exp(alpha * np.minimum(z, 0)),
                    1 - 0.5 * np.exp(-alpha * np.maximum(z, 0)))


def sup_cdf_distance(sorted_values, cdf):
    m = sorted_values.size
    theory = cdf(sorted_values)
    grid = np.arange(1, m + 1) / m
    return float(max(np.abs(grid - theory).max(), np.abs(grid - 1 / m - theory).max()))


def binomial_cdf(k, trials, p):
    return sum(math.comb(trials, j) * p**j * (1 - p) ** (trials - j) for j in range(k + 1))


def rank_rate(ranks, rank, rate=0.90, alpha=1e-4):
    """The rank-``rank`` share is consistent with being at least ``rate``.

    Fails when an exact one-sided binomial test rejects ``share >= rate``
    at level ``alpha``: a few dozen replicas cannot pin the share itself
    to the acceptance gate's 90 %, whose 200 replicas sit at a fixed seed.
    """
    hits = sum(1 for r in ranks if r == rank)
    p_value = binomial_cdf(hits, len(ranks), rate)
    return (p_value >= alpha,
            "rank %d chosen in %d/%d replicas; P(X <= %d | share %.2f) = %.1e (>= %g)"
            % (rank, hits, len(ranks), hits, rate, p_value, alpha))


def second_moment_identity(rows, n, events, sigmas=5.0):
    """Pooled m2 equals (R/2)**2, exactly in expectation for multinomial counts.

    The tolerance is ``sigmas`` standard errors, estimated from the
    per-replica contributions to m2 (replicas are independent).
    """
    per_replica = ((rows - 2.0**-n) ** 2).mean(axis=1)
    target = (semicircle_radius(n, events) / 2) ** 2
    m2 = float(per_replica.mean())
    stderr = float(per_replica.std(ddof=1)) / math.sqrt(per_replica.size)
    ratio = m2 / target
    return (abs(m2 - target) <= sigmas * stderr,
            "m2/(R/2)^2 = %.5f, tolerance +-%.5f (%g standard errors)"
            % (ratio, sigmas * stderr / target, sigmas))


def unphysical_at_most(rows, limit):
    fraction = float(np.mean(rows[:, 0] < 0))
    return fraction <= limit, "unphysical fraction %.2e (<= %g)" % (fraction, limit)


def all_unphysical(rows):
    fraction = float(np.mean(rows[:, 0] < 0))
    return fraction == 1.0, "unphysical fraction %.4f (= 1)" % fraction


def complete_second_moment(rows, n, total_counts):
    m2 = float(((rows - rows.mean()) ** 2).mean())
    ratio = m2 / (4**n / total_counts)
    return abs(ratio - 1) <= 0.10, "m2/(4^n/N_total) = %.4f (1 +- 0.1)" % ratio


def laplace_beats_semicircle(rows, n, total_counts):
    pooled = np.sort(rows.ravel())
    center = 2.0**-n
    variance = 4**n / total_counts
    lap = sup_cdf_distance(pooled, lambda x: laplace_cdf(
        center, math.sqrt(2 * total_counts / 4**n), x))
    semi = sup_cdf_distance(pooled, lambda x: semicircle_cdf(center, 2 * math.sqrt(variance), x))
    return lap < semi, "sup-CDF distance laplace %.4f < semicircle %.4f" % (lap, semi)


def properties(workload, spec, rows, ranks):
    """The method's properties for ``workload``: a list of (passed, detail)."""
    n = spec["state"]["n"]
    checks = [rows_valid(rows)]
    if workload == "ovc6-rank3":
        checks.append(rank_rate(ranks, spec["state"]["r"]))
    elif workload == "ovc2-wn":
        checks.append(second_moment_identity(rows, n, spec["events_per_setting"]))
        checks.append(unphysical_at_most(rows, 1e-4))
    elif workload == "cmp6-wn":
        checks.append(complete_second_moment(rows, n, spec["total_counts"]))
        checks.append(laplace_beats_semicircle(rows, n, spec["total_counts"]))
        checks.append(all_unphysical(rows))
    return checks
