"""States, Pauli strings, settings, and exact outcome probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from tomospectra.pauli import (
    MAX_QUBITS_DENSE,
    ROTATIONS,
    SIGMA,
    PauliString,
    Setting,
    StateSpec,
    all_settings,
    apply_per_qubit,
    build_state,
    check_density_matrix,
    correlation_tensor_values,
    dicke_vector,
    digits,
    fidelity,
    from_digits,
    ghz_vector,
    haar_orthonormal_columns,
    kron_all,
    outcome_probabilities,
    outcome_signs,
    pauli_expectation,
    pauli_matrix,
    setting_probability_table,
    setting_rotation,
)


def test_pauli_algebra():
    # sigma_i sigma_j = delta_ij I + i eps_ijk sigma_k, the whole table
    eps = np.zeros((3, 3, 3))
    eps[0, 1, 2] = eps[1, 2, 0] = eps[2, 0, 1] = 1
    eps[2, 1, 0] = eps[0, 2, 1] = eps[1, 0, 2] = -1
    for i in range(1, 4):
        for j in range(1, 4):
            product = SIGMA[i] @ SIGMA[j]
            expected = (i == j) * np.eye(2) + 1j * sum(
                eps[i - 1, j - 1, k - 1] * SIGMA[k] for k in range(1, 4)
            )
            np.testing.assert_allclose(product, expected, atol=1e-15)


def test_rotation_rows_are_eigenbras():
    for direction in (1, 2, 3):
        u = ROTATIONS[direction]
        np.testing.assert_allclose(u @ u.conj().T, np.eye(2), atol=1e-15)
        # row r must be the eigenbra with eigenvalue (-1)^r
        for row, sign in ((0, 1.0), (1, -1.0)):
            bra = u[row]
            np.testing.assert_allclose(
                bra @ SIGMA[direction], sign * bra, atol=1e-15
            )


@pytest.mark.parametrize("base, n", [(2, 1), (2, 5), (3, 4), (4, 3)])
def test_digits_are_the_divmod_expansion_qubit_0_first(base, n):
    indices = np.arange(base**n)
    table = digits(indices, base, n)
    for idx in indices:
        expected, rest = [], int(idx)
        for _ in range(n):
            rest, d = divmod(rest, base)
            expected.insert(0, d)
        assert table[idx].tolist() == expected
        assert digits(int(idx), base, n).tolist() == expected
    np.testing.assert_array_equal(from_digits(table, base), indices)


def test_kron_all_and_apply_per_qubit_agree_with_explicit_products():
    rng = np.random.default_rng(11)
    a, b, c = rng.standard_normal((3, 2, 2))
    np.testing.assert_array_equal(kron_all([a, b, c]), np.kron(np.kron(a, b), c))
    assert kron_all([a]) is a
    block = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    for n in (1, 2, 3):
        vec = rng.standard_normal(4**n)
        np.testing.assert_allclose(apply_per_qubit(block, vec, n),
                                   kron_all([block] * n) @ vec, atol=1e-12)


def test_pauli_string_round_trip():
    for idx in range(4**3):
        mu = PauliString.from_index(idx, 3)
        assert mu.index == idx
        assert mu.weight_j == sum(1 for l in mu.labels if l == 0)
    assert PauliString((0, 3, 1)).index == 0 * 16 + 3 * 4 + 1
    # indices stay exact past the int64 range (4**40 > 2**63)
    long = PauliString((3,) * 40)
    assert long.index == 4**40 - 1
    assert PauliString.from_index(long.index, 40) == long


def test_pauli_string_rejects_bad_labels():
    with pytest.raises(ValueError):
        PauliString((0, 4))
    with pytest.raises(ValueError):
        PauliString(())


def test_setting_round_trip_and_enumeration():
    settings = all_settings(2)
    assert len(settings) == 9
    assert settings[0].directions == (1, 1)
    # base-3 ordering, qubit 0 most significant
    assert settings[1].directions == (1, 2)
    assert settings[3].directions == (2, 1)
    for i, s in enumerate(settings):
        assert s.index == i


def test_outcome_conventions():
    signs = outcome_signs(2)
    # index 0 is all +1; qubit 0 owns the most significant bit
    assert signs[0].tolist() == [1, 1]
    assert signs[1].tolist() == [1, -1]
    assert signs[2].tolist() == [-1, 1]


def test_pauli_matrix_small_cases():
    np.testing.assert_array_equal(pauli_matrix((3,)), SIGMA[3])
    zz = pauli_matrix((3, 3))
    np.testing.assert_allclose(np.diag(zz), [1, -1, -1, 1])
    xi = pauli_matrix(PauliString((1, 0)))
    np.testing.assert_allclose(xi, np.kron(SIGMA[1], SIGMA[0]))


def test_check_density_matrix_contract():
    rho = np.eye(2) / 2
    check_density_matrix(rho, 1)
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(3) / 3)
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.1j], [0.1j, 0.5]]), 1)
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2), 1)  # trace 2
    # negative eigenvalues are allowed by design (linear estimates)
    check_density_matrix(np.diag([1.25, -0.25]), 1)


class TestStateSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            StateSpec(kind="nope", n=2)
        with pytest.raises(ValueError):
            StateSpec(kind="white_noise", n=0)
        with pytest.raises(ValueError, match="integer"):
            StateSpec(kind="white_noise", n=1.5)  # not deferred to build_state
        with pytest.raises(ValueError):
            StateSpec(kind="white_noise", n=2, q=0.3)
        with pytest.raises(ValueError):
            StateSpec(kind="ghz_plus_noise", n=2, q=1.5)
        with pytest.raises(ValueError):
            StateSpec(kind="rank_r_plus_noise", n=2, q=0.5, r=5)
        with pytest.raises(ValueError):
            StateSpec(kind="dicke_plus_noise", n=2, q=0.5, k=3)
        with pytest.raises(ValueError):
            StateSpec(kind="explicit_matrix", n=1)

    def test_json_round_trip(self):
        for spec in (
            StateSpec(kind="white_noise", n=3),
            StateSpec(kind="ghz_plus_noise", n=4, q=0.7),
            StateSpec(kind="dicke_plus_noise", n=4, q=0.5, k=2),
            StateSpec(kind="rank_r_plus_noise", n=3, q=0.6, r=2, seed=7),
            StateSpec(kind="pure_plus_noise", n=2, q=0.9, seed=3),
        ):
            assert StateSpec.from_json(spec.to_json()) == spec

    def test_explicit_matrix_not_serializable(self):
        spec = StateSpec(kind="explicit_matrix", n=1, matrix=np.eye(2) / 2)
        with pytest.raises(ValueError):
            spec.to_json()

    def test_from_json_rejects_unknown_keys(self):
        with pytest.raises(ValueError):
            StateSpec.from_json({"kind": "white_noise", "n": 2, "evil": 1})


def test_ghz_and_dicke_vectors():
    psi = ghz_vector(3)
    assert abs(np.linalg.norm(psi) - 1) < 1e-12
    assert abs(psi[0]) == abs(psi[-1]) == pytest.approx(1 / np.sqrt(2))
    assert np.abs(psi[1:-1]).max() == 0

    d = dicke_vector(4, 2)
    support = np.nonzero(d)[0]
    assert len(support) == 6  # C(4, 2)
    assert all(bin(i).count("1") == 2 for i in support)
    np.testing.assert_allclose(np.abs(d[support]), 1 / np.sqrt(6))


def test_haar_columns_orthonormal_and_deterministic():
    q1 = haar_orthonormal_columns(8, 3, seed=5)
    q2 = haar_orthonormal_columns(8, 3, seed=5)
    q3 = haar_orthonormal_columns(8, 3, seed=6)
    np.testing.assert_array_equal(q1, q2)
    assert np.abs(q1 - q3).max() > 1e-3
    np.testing.assert_allclose(q1.conj().T @ q1, np.eye(3), atol=1e-12)


def test_build_state_mixing_and_spectra():
    spec = StateSpec(kind="ghz_plus_noise", n=3, q=0.8)
    rho = build_state(spec)
    check_density_matrix(rho, 3)
    eigs = np.linalg.eigvalsh(rho)
    np.testing.assert_allclose(eigs[-1], 0.8 + 0.2 / 8, atol=1e-12)
    np.testing.assert_allclose(eigs[:-1], 0.2 / 8, atol=1e-12)

    spec = StateSpec(kind="rank_r_plus_noise", n=3, q=0.6, r=2, seed=1)
    eigs = np.linalg.eigvalsh(build_state(spec))
    np.testing.assert_allclose(eigs[-2:], 0.3 + 0.4 / 8, atol=1e-12)
    np.testing.assert_allclose(eigs[:-2], 0.4 / 8, atol=1e-12)


def test_pauli_expectations_of_ghz():
    rho = build_state(StateSpec(kind="ghz_plus_noise", n=3, q=1.0))
    assert pauli_expectation(rho, (3, 3, 0)) == pytest.approx(1.0)
    assert pauli_expectation(rho, (1, 1, 1)) == pytest.approx(1.0)
    # an odd number of Y's flips the sign under the GHZ parity
    assert pauli_expectation(rho, (2, 2, 1)) == pytest.approx(-1.0)
    assert pauli_expectation(rho, (3, 0, 0)) == pytest.approx(0.0)


def test_outcome_probabilities_z_basis_reads_diagonal():
    rho = np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex)
    probs = outcome_probabilities(rho, Setting((3, 3)))
    np.testing.assert_allclose(probs, [0.5, 0.3, 0.15, 0.05], atol=1e-12)


def test_outcome_probabilities_plus_state():
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    np.testing.assert_allclose(
        outcome_probabilities(plus, Setting((1,))), [1.0, 0.0], atol=1e-12
    )
    np.testing.assert_allclose(
        outcome_probabilities(plus, Setting((3,))), [0.5, 0.5], atol=1e-12
    )


def test_outcome_probabilities_hygiene():
    z = Setting((3,))
    with pytest.raises(ValueError):
        outcome_probabilities(np.diag([0.5, 0.6]).astype(complex), z)  # sums to 1.1
    with pytest.raises(ValueError):
        outcome_probabilities(np.diag([1.5, -0.5]).astype(complex), z)
    # tiny negatives from floating-point cancellation are clipped
    probs = outcome_probabilities(np.diag([1.0 + 1e-13, -1e-13]).astype(complex), z)
    assert probs[1] == 0.0
    assert probs.sum() == 1.0


def test_setting_probability_table_shape_and_normalization():
    rho = build_state(StateSpec(kind="dicke_plus_noise", n=3, q=0.7, k=1))
    table = setting_probability_table(rho, 3)
    assert table.shape == (27, 8)
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-10)
    assert table.min() >= 0


def test_probability_table_matches_born_rule_row_by_row():
    rho = build_state(StateSpec(kind="pure_plus_noise", n=2, q=0.85, seed=11))
    table = setting_probability_table(rho, 2)
    signs = outcome_signs(2)
    for s in all_settings(2):
        u = setting_rotation(s)
        expected = np.real(np.einsum("ij,jk,ik->i", u, rho, u.conj()))
        np.testing.assert_allclose(table[s.index], expected, atol=1e-12)
        # and the correlation read off the probabilities matches tr(rho sigma)
        t_full = (table[s.index] * signs.prod(axis=1)).sum()
        assert t_full == pytest.approx(
            pauli_expectation(rho, s.directions), abs=1e-12
        )


@st.composite
def state_specs(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    kind = draw(st.sampled_from(
        ["white_noise", "pure_plus_noise", "rank_r_plus_noise", "ghz_plus_noise",
         "dicke_plus_noise"]))
    q = 0.0 if kind == "white_noise" else draw(st.floats(0.0, 1.0))
    return StateSpec(kind=kind, n=n, q=q, r=draw(st.integers(1, 2**n)),
                     k=draw(st.integers(0, n)), seed=draw(st.integers(0, 2**32 - 1)))


@hyp_settings(max_examples=40, deadline=None)
@given(spec=state_specs())
def test_probability_table_is_the_per_setting_loop_bit_for_bit(spec):
    """Row s is exactly outcome_probabilities of setting s.

    Closeness is not enough: the multinomial draw splits off one outcome
    at a time with a binomial of p_k / (1 - p_0 - ... - p_{k-1}) and
    draws the complement when that ratio exceeds 0.5.  When the last two
    outcomes tie the ratio sits at 0.5, so a 1e-17 shift decides which
    of the pair gets the larger count.  A table computed
    in a different order (e.g. contracted one qubit at a time) swapped
    counts in 151 of the 972 draws of an n=4 Dicke run.
    """
    rho = build_state(spec)
    table = setting_probability_table(rho, spec.n)
    for s in range(3**spec.n):
        expected = outcome_probabilities(rho, Setting.from_index(s, spec.n))
        assert table[s].tobytes() == expected.tobytes()


def test_probability_table_hygiene():
    with pytest.raises(ValueError):
        setting_probability_table(np.diag([1.5, -0.5]).astype(complex), 1)
    # tiny negatives from floating-point cancellation are clipped
    table = setting_probability_table(np.diag([1.0 + 1e-13, -1e-13]).astype(complex), 1)
    z_row = Setting((3,)).index
    assert table[z_row, 1] == 0.0
    assert table.min() >= 0.0
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-15)


def test_correlation_tensor_values_against_trace_route():
    """Dual route: the tensor contraction must equal per-string traces."""
    rho = build_state(StateSpec(kind="rank_r_plus_noise", n=3, q=0.75, r=3, seed=2))
    values = correlation_tensor_values(rho)
    assert values.shape == (64,)
    assert values[0] == pytest.approx(1.0)
    for idx in range(64):
        mu = PauliString.from_index(idx, 3)
        assert values[idx] == pytest.approx(
            pauli_expectation(rho, mu), abs=1e-11
        ), mu.labels


def test_correlation_reconstruction_identity():
    # rho = 2^-n sum_mu T_mu sigma_mu recovers the state exactly
    rho = build_state(StateSpec(kind="ghz_plus_noise", n=2, q=0.6))
    values = correlation_tensor_values(rho)
    rebuilt = sum(
        values[PauliString.from_index(i, 2).index] * pauli_matrix(PauliString.from_index(i, 2))
        for i in range(16)
    ) / 4
    np.testing.assert_allclose(rebuilt, rho, atol=1e-12)


def test_fidelity_pure_state_overlap():
    rho = build_state(StateSpec(kind="ghz_plus_noise", n=2, q=1.0))
    noise = np.eye(4, dtype=complex) / 4
    assert fidelity(rho, rho) == pytest.approx(1.0)
    assert fidelity(rho, noise) == pytest.approx(0.25, abs=1e-9)


def test_dense_qubit_limit():
    with pytest.raises(ValueError):
        StateSpec(kind="white_noise", n=MAX_QUBITS_DENSE + 1)


@hyp_settings(max_examples=40, deadline=None)
@given(
    direction=st.integers(min_value=1, max_value=3),
    a=st.floats(-1, 1),
    b=st.floats(-1, 1),
    c=st.floats(-1, 1),
)
def test_single_qubit_probabilities_born_consistency(direction, a, b, c):
    """Any Bloch vector inside the ball gives valid outcome probabilities."""
    norm = np.sqrt(a * a + b * b + c * c)
    if norm > 1:
        a, b, c = a / norm, b / norm, c / norm
    rho = 0.5 * (SIGMA[0] + a * SIGMA[1] + b * SIGMA[2] + c * SIGMA[3])
    probs = outcome_probabilities(rho, Setting((direction,)))
    assert probs.min() >= 0
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    t = probs[0] - probs[1]
    assert t == pytest.approx((a, b, c)[direction - 1], abs=1e-10)
