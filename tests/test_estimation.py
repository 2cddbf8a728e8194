"""Linear inversion from frequencies, and the complete projector scheme."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from tomospectra.estimation import (
    Spectrum,
    build_complete_frame,
    correlations_from_frequencies,
    estimate_complete,
    reconstruct_from_values,
    spectrum_of,
)
from tomospectra.pauli import (
    StateSpec,
    build_state,
    correlation_tensor_values,
    setting_probability_table,
)


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
    values, multiplicity = correlations_from_frequencies(table, 3)
    np.testing.assert_allclose(values, correlation_tensor_values(rho), atol=1e-10)
    # multiplicity must be 3**j
    for idx in range(64):
        assert multiplicity[idx] == 3 ** base_digits(idx, 4, 3).count(0)


def test_correlations_match_brute_force_oracle():
    rng = np.random.default_rng(123)
    for n in (1, 2, 3):
        freqs = rng.dirichlet(np.ones(2**n), size=3**n)
        values, _ = correlations_from_frequencies(freqs, n)
        expected = brute_force_correlations(freqs, n)
        # the library forces the identity entry to exactly 1
        expected[0] = 1.0
        np.testing.assert_allclose(values, expected, atol=1e-12)


def test_reconstruction_round_trip():
    rho = build_state(StateSpec(kind="rank_r_plus_noise", n=3, q=0.8, r=2, seed=5))
    values = correlation_tensor_values(rho)
    rebuilt = reconstruct_from_values(values, 3)
    np.testing.assert_allclose(rebuilt, rho, atol=1e-12)


def test_reconstruct_from_exact_frequencies():
    rho = build_state(StateSpec(kind="ghz_plus_noise", n=2, q=0.4))
    table = setting_probability_table(rho, 2)
    values, _ = correlations_from_frequencies(table, 2)
    np.testing.assert_allclose(reconstruct_from_values(values, 2), rho, atol=1e-10)


def test_spectrum_contract():
    spec = spectrum_of(np.diag([0.5, 0.5, 0.25, -0.25]).astype(complex))
    assert isinstance(spec, Spectrum)
    assert spec.eigenvalues.tolist() == [-0.25, 0.25, 0.5, 0.5]
    assert spec.min == -0.25 and spec.max == 0.5
    with pytest.raises(ValueError):
        Spectrum(eigenvalues=np.array([0.4, 0.5]), trace=1.0)  # sum != trace
    with pytest.raises(ValueError):
        Spectrum(eigenvalues=np.array([0.5, 0.4, 0.1]), trace=1.0)  # not sorted
    with pytest.raises(ValueError):
        spectrum_of(np.array([[0.5, 1.0], [0.0, 0.5]]))  # not Hermitian


def test_spectrum_of_white_noise_is_flat():
    spec = spectrum_of(np.eye(8, dtype=complex) / 8)
    np.testing.assert_allclose(spec.eigenvalues, 0.125, atol=1e-14)


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
    np.testing.assert_allclose(
        frame.block @ frame.block_inv, np.eye(4), atol=1e-12
    )


@pytest.mark.parametrize("n", [1, 2, 3])
def test_complete_frame_dense_transfer_invertibility(n):
    """Materialized dense transfer matrix times its inverse is the identity."""
    frame = build_complete_frame(n)
    dense = frame.transfer_matrix
    dense_inv = frame.transfer_inverse
    assert dense.shape == (4**n, 4**n)
    np.testing.assert_allclose(dense @ dense_inv, np.eye(4**n), atol=1e-10)
    # Kronecker-factored application agrees with the dense product
    rng = np.random.default_rng(7)
    vec = rng.standard_normal(4**n)
    np.testing.assert_allclose(frame.probabilities(vec), dense @ vec, atol=1e-10)
    np.testing.assert_allclose(frame.correlations(vec), dense_inv @ vec, atol=1e-10)


def test_complete_frame_projector_probabilities():
    frame = build_complete_frame(2)
    rho = build_state(StateSpec(kind="white_noise", n=2))
    p = frame.probabilities(correlation_tensor_values(rho))
    # every rank-1 projector sees tr(P/4) = 1/4 on white noise
    np.testing.assert_allclose(p, 0.25, atol=1e-12)
    for v in (0, 3, 7, 15):
        proj = frame.projector(v)
        np.testing.assert_allclose(proj, proj.conj().T, atol=1e-12)
        assert np.trace(proj).real == pytest.approx(1.0)
        eigs = np.linalg.eigvalsh(proj)
        np.testing.assert_allclose(eigs[:-1], 0, atol=1e-12)
        assert eigs[-1] == pytest.approx(1.0)


def test_estimate_complete_inverts_exact_data():
    rho = build_state(StateSpec(kind="pure_plus_noise", n=2, q=0.55, seed=9))
    frame = build_complete_frame(2)
    p = frame.probabilities(correlation_tensor_values(rho))
    flux = 1000.0
    rebuilt = estimate_complete(frame, p * flux, flux)
    np.testing.assert_allclose(rebuilt, rho, atol=1e-10)
    # normalization makes the result flux-agnostic
    rebuilt2 = estimate_complete(frame, p * flux, 17.0)
    np.testing.assert_allclose(rebuilt2, rho, atol=1e-10)


def test_estimate_complete_validation():
    frame = build_complete_frame(1)
    with pytest.raises(ValueError):
        estimate_complete(frame, np.zeros(4), 100.0)  # degenerate counts
    with pytest.raises(ValueError):
        estimate_complete(frame, np.ones(5), 100.0)
    with pytest.raises(ValueError):
        estimate_complete(frame, np.ones(4), 0.0)


@hyp_settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31))
def test_estimator_outputs_stay_in_range(seed):
    """Any normalized frequency table yields correlations in [-1, 1]."""
    rng = np.random.default_rng(seed)
    freqs = rng.dirichlet(np.ones(4), size=9)
    values, _ = correlations_from_frequencies(freqs, 2)
    assert values[0] == 1.0
    assert np.abs(values).max() <= 1.0 + 1e-12
    # reconstruction keeps trace exactly 1 and hermiticity by construction
    rho = reconstruct_from_values(values, 2)
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    np.testing.assert_allclose(rho, rho.conj().T, atol=1e-12)
