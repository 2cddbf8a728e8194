"""Linear inversion from frequencies, and the complete projector scheme."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from tomospectra.estimation import (
    build_complete_frame,
    correlations_from_frequencies,
    estimate_complete,
    reconstruct_from_values,
    setting_probability_table,
)
from tomospectra.pauli import (
    MAX_QUBITS_DENSE,
    SIGMA,
    StateSpec,
    apply_per_qubit,
    build_state,
    correlation_tensor_values,
    kron_all,
)

# the complete scheme's single-qubit frame kets |0>, |1>, |+>, |+i>
FRAME_KETS = np.array([[1, 0], [0, 1], [1, 1], [1, 1j]], dtype=complex)
FRAME_KETS[2:] /= np.sqrt(2.0)


def base_digits(index, base, n):
    """Base-``base`` digits of ``index``, qubit 0 (most significant) first."""
    out = []
    for _ in range(n):
        index, d = divmod(index, base)
        out.append(d)
    return out[::-1]


def brute_force_correlations(freqs, n):
    """Textbook estimator, written independently of the library internals.

    T~_mu = 3**-j(mu) * sum over compatible settings s of
            sum_r (prod_{k: mu_k != 0} r_k) f_r^s,
    a setting s being compatible when s_k == mu_k wherever mu_k != 0.
    Indices are decoded here by divmod, not by the library's helpers.
    """
    settings = [[d + 1 for d in base_digits(s, 3, n)] for s in range(3**n)]
    signs = [[1 - 2 * b for b in base_digits(r, 2, n)] for r in range(2**n)]
    values = np.zeros(4**n)
    for idx in range(4**n):
        mu = base_digits(idx, 4, n)
        active = [k for k in range(n) if mu[k] != 0]
        compatible = [
            s_idx for s_idx, s in enumerate(settings)
            if all(s[k] == mu[k] for k in active)
        ]
        total = 0.0
        for s_idx in compatible:
            for r in range(2**n):
                weight = 1.0
                for k in active:
                    weight *= signs[r][k]
                total += weight * freqs[s_idx, r]
        values[idx] = total / len(compatible)
    return values


def test_exact_frequencies_give_exact_correlations():
    """Noise-free inversion: plugging in Born probabilities returns T_mu."""
    rho = build_state(StateSpec(kind="ghz_plus_noise", n=3, q=0.65))
    table = setting_probability_table(rho, 3)
    values = correlations_from_frequencies(table, 3)
    np.testing.assert_allclose(values, correlation_tensor_values(rho, 3), atol=1e-10)
    # per qubit the inverse block undoes the forward block: on the six
    # eigenstates of X, Y and Z (T = e_0 +- e_d, which span the four Pauli
    # coefficients) the one-qubit round trip is exact, bit for bit
    for d in (1, 2, 3):
        for sign in (1.0, -1.0):
            eigenstate = (np.eye(2) + sign * SIGMA[d]) / 2
            back = correlations_from_frequencies(setting_probability_table(eigenstate, 1), 1)
            assert back.tobytes() == correlation_tensor_values(eigenstate, 1).tobytes()


def test_correlations_match_brute_force_oracle():
    rng = np.random.default_rng(123)
    for n in (1, 2, 3):
        stack = rng.dirichlet(np.ones(2**n), size=(4, 3**n))
        values = correlations_from_frequencies(stack, n)
        assert values.shape == (4, 4**n)
        for freqs, got in zip(stack, values):
            expected = brute_force_correlations(freqs, n)
            # the library forces the identity entry to exactly 1
            expected[0] = 1.0
            np.testing.assert_allclose(got, expected, atol=1e-12)
            # a table alone gives the bits it has in the stack
            assert correlations_from_frequencies(freqs, n).tobytes() == got.tobytes()


def test_reconstruction_round_trip():
    rho = build_state(StateSpec(kind="rank_r_plus_noise", n=3, q=0.8, r=2, seed=5))
    values = correlation_tensor_values(rho, 3)
    rebuilt = reconstruct_from_values(values, 3)
    np.testing.assert_allclose(rebuilt, rho, atol=1e-12)


def test_reconstruct_from_exact_frequencies():
    rho = build_state(StateSpec(kind="ghz_plus_noise", n=2, q=0.4))
    table = setting_probability_table(rho, 2)
    values = correlations_from_frequencies(table, 2)
    np.testing.assert_allclose(reconstruct_from_values(values, 2), rho, atol=1e-10)


def test_complete_frame_single_qubit_block():
    frame = build_complete_frame(1)
    # the four projectors are |0>, |1>, |+>, |+i>
    expected_first_rows = np.array(
        [
            [1, 0, 0, 1],
            [1, 0, 0, -1],
            [1, 1, 0, 0],
            [1, 0, 1, 0],
        ]
    ) / 2.0
    np.testing.assert_allclose(frame.block, expected_first_rows, atol=1e-15)


def test_complete_frame_block_is_the_trace_loop_bit_for_bit():
    """The contracted block is B1[v, mu] = tr(sigma_mu |v><v|) / 2, loop by loop."""
    frame = build_complete_frame(3)
    block = np.empty((4, 4))
    for v in range(4):
        proj = np.outer(FRAME_KETS[v], FRAME_KETS[v].conj())
        for mu in range(4):
            val = np.trace(SIGMA[mu] @ proj) / 2.0
            assert abs(val.imag) <= 1e-14
            block[v, mu] = val.real
    assert frame.block.tobytes() == block.tobytes()


def dual_operator_estimate(counts, n):
    """sum_v c_v (x)_k D_{v_k}, divided by its trace.

    The duals D_v come from inverting the frame itself: p_v = tr(P_v rho)
    is the row conj(P_v) applied to the entries of rho, so column v of the
    inverse of those rows holds the entries of D_v.
    """
    frame_rows = np.einsum("vi,vj->vij", FRAME_KETS, FRAME_KETS.conj()).conj().reshape(4, 4)
    duals = np.linalg.inv(frame_rows).T.reshape(4, 2, 2)
    rho = sum(c * kron_all(duals[base_digits(v, 4, n)]) for v, c in enumerate(counts))
    return rho / np.trace(rho)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complete_frame_dense_transfer_invertibility(n):
    """Materialized dense transfer matrix times its inverse is the identity."""
    frame = build_complete_frame(n)
    dense = kron_all([frame.block] * n)
    dense_inv = kron_all([np.linalg.inv(frame.block)] * n)
    assert dense.shape == (4**n, 4**n)
    np.testing.assert_allclose(dense @ dense_inv, np.eye(4**n), atol=1e-10)
    # Kronecker-factored application agrees with the dense product
    rng = np.random.default_rng(7)
    vec = rng.standard_normal(4**n)
    np.testing.assert_allclose(apply_per_qubit(frame.block, vec, n), dense @ vec, atol=1e-10)
    # the per-qubit estimate inverts the frame: one vector and a stack of 5
    counts = rng.poisson(100.0, size=(5, 4**n))
    expected = np.array([dual_operator_estimate(c, n) for c in counts])
    np.testing.assert_allclose(estimate_complete(frame, counts), expected, atol=1e-12)
    np.testing.assert_allclose(estimate_complete(frame, counts[0]), expected[0], atol=1e-12)


def test_complete_frame_projector_probabilities():
    frame = build_complete_frame(2)
    rho = build_state(StateSpec(kind="white_noise", n=2))
    p = frame.intensity(correlation_tensor_values(rho, 2), 4)
    # every rank-1 projector sees tr(P/4) = 1/4 on white noise
    np.testing.assert_allclose(p, 0.25, atol=1e-12)
    # and p_v = <v|rho|v> for the product ket v, qubit 0 leftmost, on any state
    rho = build_state(StateSpec(kind="rank_r_plus_noise", n=2, q=0.7, r=2, seed=4))
    p = frame.intensity(correlation_tensor_values(rho, 2), 4)
    for v in range(16):
        ket = kron_all(FRAME_KETS[base_digits(v, 4, 2)])
        assert p[v] == pytest.approx((ket.conj() @ rho @ ket).real, abs=1e-12)


def test_estimate_complete_inverts_exact_data():
    rho = build_state(StateSpec(kind="pure_plus_noise", n=2, q=0.55, seed=9))
    frame = build_complete_frame(2)
    p = frame.intensity(correlation_tensor_values(rho, 2), 4)
    rebuilt = estimate_complete(frame, p * 1000.0)
    np.testing.assert_allclose(rebuilt, rho, atol=1e-10)
    # the trace normalization makes the estimate independent of the counts' scale
    np.testing.assert_allclose(estimate_complete(frame, p * 17.0), rebuilt, atol=1e-12)


def test_estimate_complete_validation():
    frame = build_complete_frame(1)
    with pytest.raises(ValueError, match="degenerate"):
        estimate_complete(frame, np.zeros(4))
    with pytest.raises(ValueError, match="projector counts"):
        estimate_complete(frame, np.ones(5))
    # one replica of a stack with no |0> or |1> counts fails the whole stack
    stack = np.array([[3.0, 1.0, 2.0, 2.0], [0.0, 0.0, 5.0, 4.0], [1.0, 0.0, 0.0, 0.0]])
    with pytest.raises(ValueError, match="degenerate"):
        estimate_complete(frame, stack)
    np.testing.assert_array_equal(frame.trace(stack), [4.0, 0.0, 1.0])
    estimate_complete(frame, stack[[0, 2]])


def test_complete_frame_takes_the_dense_qubit_range():
    """The frame's qubit range is the dense rule's, with the state spec's message."""
    for n in (0, MAX_QUBITS_DENSE + 1):
        with pytest.raises(ValueError, match="n must lie in 1..6, got %d" % n):
            build_complete_frame(n)
    with pytest.raises(ValueError, match="n must be an integer"):
        build_complete_frame(2.5)


@hyp_settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_estimator_outputs_stay_in_range(seed):
    """Any normalized frequency table yields correlations in [-1, 1]."""
    rng = np.random.default_rng(seed)
    freqs = rng.dirichlet(np.ones(4), size=9)
    values = correlations_from_frequencies(freqs, 2)
    assert values[0] == 1.0
    assert np.abs(values).max() <= 1.0 + 1e-12
    # reconstruction keeps trace exactly 1 and hermiticity by construction
    rho = reconstruct_from_values(values, 2)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
