"""The register convention, states, and exact outcome probabilities."""

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st

from tomospectra.estimation import setting_probability_table
from tomospectra.pauli import (
    MAX_QUBITS_DENSE,
    SIGMA,
    StateSpec,
    apply_per_qubit,
    build_state,
    check_density_matrix,
    correlation_tensor_values,
    dicke_vector,
    fidelity,
    from_qubit_entries,
    ghz_vector,
    haar_orthonormal_columns,
    kron_all,
    qubit_entries,
)

# Born-rule oracle, independent of the package's table: the +1 and -1
# eigenvectors of X, Y and Z as rows, in the order the pauli module lists them
EIGENVECTORS = {
    1: np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2.0),
    2: np.array([[1, 1j], [1, -1j]], dtype=complex) / np.sqrt(2.0),
    3: np.eye(2, dtype=complex),
}


# The flat-index convention is NumPy's C order, qubit 0 most significant, so
# NumPy's own index functions are the oracle for digits and flat indices
def digits(index, base, n):
    """The n base-``base`` digits of ``index``, qubit 0 first, as a new last axis."""
    return np.stack(np.unravel_index(index, (base,) * n), axis=-1)


def from_digits(values, base):
    """The flat index of the base-``base`` digits on the last axis."""
    values = np.asarray(values)
    return np.ravel_multi_index(tuple(np.moveaxis(values, -1, 0)), (base,) * values.shape[-1])


def born_rule_table(rho, n):
    """p_r^s = <v|rho|v>, v the product eigenvector of outcome r under setting s."""
    table = np.empty((3**n, 2**n))
    for s, directions in enumerate(digits(np.arange(3**n), 3, n) + 1):
        # row r of the Kronecker product is outcome r's ket (qubit 0 most significant)
        kets = kron_all([EIGENVECTORS[d] for d in directions])
        table[s] = np.einsum("ri,ij,rj->r", kets.conj(), rho, kets).real
    return table


def trace_expectation(rho, labels):
    """tr(rho sigma_mu) for the Pauli string with these labels, by dense product."""
    return np.trace(rho @ kron_all(SIGMA[list(labels)])).real


def table_row(rho, directions):
    row = from_digits(np.subtract(directions, 1), 3)
    return setting_probability_table(rho, len(directions))[row]


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


def test_table_rows_follow_the_eigenvector_convention():
    """Outcome r of a direction is the eigenvector with sign (-1)^r."""
    for direction in (1, 2, 3):
        for row, sign in ((0, 1.0), (1, -1.0)):
            ket = EIGENVECTORS[direction][row]
            np.testing.assert_allclose(SIGMA[direction] @ ket, sign * ket, atol=1e-15)
            probs = table_row(np.outer(ket, ket.conj()), (direction,))
            np.testing.assert_allclose(probs, np.eye(2)[row], atol=1e-15)


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


@pytest.mark.parametrize("n", [1, 2, 3])
def test_qubit_entries_interleave_row_and_column_digits(n):
    """Entry (row, col) sits at the flat index of (row_0, col_0, row_1, col_1, ...).

    Rows take base 2 for a density matrix and base 3 for the (3**n, 2**n)
    setting x outcome table; columns always take base 2.
    """
    rng = np.random.default_rng(n)
    for rows in (2, 3):
        matrix = rng.standard_normal((rows**n, 2**n)) + 1j * rng.standard_normal((rows**n, 2**n))
        entries = qubit_entries(matrix, n)
        assert entries.shape == ((2 * rows) ** n,)
        for row in range(rows**n):
            for col in range(2**n):
                # qubit k's digit is the pair (row_k, col_k) in base 2 * rows
                pairs = digits(row, rows, n) * 2 + digits(col, 2, n)
                assert entries[from_digits(pairs, 2 * rows)] == matrix[row, col]
        # both directions take a stack, and the inverse takes it back to its tables
        stack = np.stack([matrix, -matrix, 2 * matrix])
        stacked = qubit_entries(stack, n)
        assert stacked.tobytes() == np.stack([qubit_entries(m, n) for m in stack]).tobytes()
        np.testing.assert_array_equal(from_qubit_entries(stacked, n), stack)


def moveaxis_apply_per_qubit(block, vec, n):
    """`apply_per_qubit` as first written: move the qubit axis last, copy, multiply."""
    out, inp = block.shape
    batch = vec.shape[:-1]
    t = vec.reshape(batch + (inp,) * n)
    for k in range(n):
        t = np.moveaxis(t, -n, -1).reshape(batch + (-1, inp)) @ block.T
        t = t.reshape(batch + (inp,) * (n - 1 - k) + (out,) * (k + 1))
    return t.reshape(batch + (-1,))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("block_type, vec_type", [(float, float), (complex, float),
                                                  (complex, complex)])
def test_apply_per_qubit_bits_do_not_depend_on_stacking(n, block_type, vec_type):
    """A stack gives the bytes of its vectors one at a time, and of the moveaxis form.

    Square (4, 4) blocks, and the (4, 6) and (6, 4) shapes of the
    overcomplete scheme's frequency <-> Pauli blocks.
    """
    rng = np.random.default_rng(n)
    for out, inp in ((4, 4), (4, 6), (6, 4)):
        block = rng.standard_normal((out, inp)).astype(block_type)
        stack = rng.standard_normal((5, inp**n)).astype(vec_type)
        if block_type is complex:
            block += 1j * rng.standard_normal((out, inp))
        if vec_type is complex:
            stack += 1j * rng.standard_normal((5, inp**n))
        result = apply_per_qubit(block, stack, n)
        assert result.shape == (5, out**n)
        singles = np.array([apply_per_qubit(block, vec, n) for vec in stack])
        assert result.tobytes() == singles.tobytes()
        assert result.tobytes() == moveaxis_apply_per_qubit(block, stack, n).tobytes()


def test_pauli_string_round_trip():
    """Pauli labels and their flat base-4 index, qubit 0 most significant."""
    labels = digits(np.arange(4**3), 4, 3)
    np.testing.assert_array_equal(from_digits(labels, 4), np.arange(4**3))
    assert from_digits([0, 3, 1], 4) == 0 * 16 + 3 * 4 + 1


def test_setting_round_trip_and_enumeration():
    directions = digits(np.arange(9), 3, 2) + 1
    assert directions[0].tolist() == [1, 1]
    # base-3 ordering, qubit 0 most significant
    assert directions[1].tolist() == [1, 2]
    assert directions[3].tolist() == [2, 1]
    np.testing.assert_array_equal(from_digits(directions - 1, 3), np.arange(9))


def test_outcome_conventions():
    signs = 1 - 2 * digits(np.arange(4), 2, 2)
    # index 0 is all +1; qubit 0 owns the most significant bit
    assert signs[0].tolist() == [1, 1]
    assert signs[1].tolist() == [1, -1]
    assert signs[2].tolist() == [-1, 1]


def test_pauli_matrix_small_cases():
    """A Pauli string's matrix is kron_all(SIGMA[labels]), qubit 0 leftmost."""
    np.testing.assert_array_equal(kron_all(SIGMA[[3]]), SIGMA[3])
    np.testing.assert_allclose(np.diag(kron_all(SIGMA[[3, 3]])), [1, -1, -1, 1])
    np.testing.assert_allclose(kron_all(SIGMA[[1, 0]]), np.kron(SIGMA[1], SIGMA[0]))


def test_check_density_matrix_contract():
    rho = np.eye(2) / 2
    check_density_matrix(rho, 1)
    with pytest.raises(ValueError, match="dimension 3 is not 2"):
        check_density_matrix(np.eye(3) / 3, 1)
    # the register size is the caller's, never inferred from the shape
    with pytest.raises(ValueError, match="dimension 4 is not 2"):
        check_density_matrix(np.eye(4) / 4, 1)
    with pytest.raises(TypeError):
        check_density_matrix(rho)
    with pytest.raises(ValueError):
        check_density_matrix(np.array([[0.5, 0.1j], [0.1j, 0.5]]), 1)
    with pytest.raises(ValueError):
        check_density_matrix(np.eye(2), 1)  # trace 2
    # negative eigenvalues are allowed by design (linear estimates)
    check_density_matrix(np.diag([1.25, -0.25]), 1)


def test_a_non_square_matrix_is_refused():
    with pytest.raises(ValueError, match="must be square, got shape \\(2, 3\\)"):
        check_density_matrix(np.zeros((2, 3)), 1)


def test_correlations_of_a_non_hermitian_matrix_are_refused():
    """tr(rho sigma_x) of [[0.5, 1], [0, 0.5]] is 1, tr(rho sigma_y) is i."""
    with pytest.raises(ValueError, match="non-negligible imaginary part"):
        correlation_tensor_values(np.array([[0.5, 1.0], [0.0, 0.5]]), 1)


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

    def test_integer_fields_must_be_integers(self):
        for kind, key, value in (("dicke_plus_noise", "k", 1.5),
                                 ("rank_r_plus_noise", "r", 2.0),
                                 ("pure_plus_noise", "seed", 3.7),
                                 ("rank_r_plus_noise", "r", True),
                                 ("white_noise", "n", True)):
            with pytest.raises(ValueError, match="%s must be an integer" % key):
                StateSpec(**{"kind": kind, "n": 2, "q": 0.0, key: value})
        spec = StateSpec(kind="rank_r_plus_noise", n=np.int64(2), q=0.5,
                         r=np.int8(2), seed=np.uint64(3))
        assert spec == StateSpec(kind="rank_r_plus_noise", n=2, q=0.5, r=2, seed=3)
        assert all(type(v) is int for v in (spec.n, spec.r, spec.k, spec.seed))

    def test_seed_must_fit_a_philox_key_word(self):
        for kind in ("white_noise", "pure_plus_noise", "rank_r_plus_noise"):
            for seed in (-1, 2**64):
                with pytest.raises(ValueError, match="seed must lie in"):
                    StateSpec(kind=kind, n=2, q=0.0 if kind == "white_noise" else 0.5,
                              seed=seed)
        spec = StateSpec(kind="pure_plus_noise", n=2, q=0.5, seed=2**64 - 1)
        assert build_state(spec).shape == (4, 4)

    def test_signal_weight_must_be_a_real_number(self):
        for value in (True, False, "0.5", None, 0.5j):
            with pytest.raises(ValueError, match="q must be a number"):
                StateSpec(kind="ghz_plus_noise", n=2, q=value)
        for value in (1, np.float32(0.5), np.int64(0)):
            spec = StateSpec(kind="ghz_plus_noise", n=2, q=value)
            assert type(spec.q) is float and spec.q == float(value)
        assert StateSpec(kind="ghz_plus_noise", n=2, q=1).to_json()["q"] == 1.0

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
    for n in range(1, MAX_QUBITS_DENSE + 1):
        ones = np.array([bin(i).count("1") for i in range(2**n)])
        for k in range(n + 1):
            np.testing.assert_allclose(dicke_vector(n, k), (ones == k) / np.sqrt((ones == k).sum()),
                                       rtol=0, atol=1e-15)


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
    values = correlation_tensor_values(rho, 3)
    assert values[from_digits([3, 3, 0], 4)] == pytest.approx(1.0)
    assert values[from_digits([1, 1, 1], 4)] == pytest.approx(1.0)
    # an odd number of Y's flips the sign under the GHZ parity
    assert values[from_digits([2, 2, 1], 4)] == pytest.approx(-1.0)
    assert values[from_digits([3, 0, 0], 4)] == pytest.approx(0.0)


def test_outcome_probabilities_z_basis_reads_diagonal():
    rho = np.diag([0.5, 0.3, 0.15, 0.05]).astype(complex)
    probs = table_row(rho, (3, 3))
    np.testing.assert_allclose(probs, [0.5, 0.3, 0.15, 0.05], atol=1e-12)


def test_outcome_probabilities_plus_state():
    plus = np.array([[0.5, 0.5], [0.5, 0.5]], dtype=complex)
    np.testing.assert_allclose(table_row(plus, (1,)), [1.0, 0.0], atol=1e-12)
    np.testing.assert_allclose(table_row(plus, (3,)), [0.5, 0.5], atol=1e-12)


def test_outcome_probabilities_hygiene():
    with pytest.raises(ValueError, match="sum"):
        setting_probability_table(np.diag([0.5, 0.6]).astype(complex), 1)  # trace 1.1
    # a tiny negative in a two-qubit row is clipped and the row renormalized
    probs = table_row(np.diag([1.0 + 1e-13, -1e-13, 0.0, 0.0]).astype(complex), (3, 3))
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
    expected = born_rule_table(rho, 2)
    parity = (1 - 2 * digits(np.arange(4), 2, 2)).prod(axis=1)
    for s, directions in enumerate(digits(np.arange(9), 3, 2) + 1):
        np.testing.assert_allclose(table[s], expected[s], atol=1e-12)
        # and the correlation read off the probabilities matches tr(rho sigma)
        t_full = (table[s] * parity).sum()
        assert t_full == pytest.approx(trace_expectation(rho, directions), abs=1e-12)


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
def test_probability_table_is_the_born_rule(spec):
    rho = build_state(spec)
    table = setting_probability_table(rho, spec.n)
    np.testing.assert_allclose(table, born_rule_table(rho, spec.n), rtol=0, atol=1e-14)


def test_probability_table_n6_rank3_is_the_born_rule():
    rho = build_state(StateSpec(kind="rank_r_plus_noise", n=6, q=0.8, r=3, seed=80))
    table = setting_probability_table(rho, 6)
    np.testing.assert_allclose(table, born_rule_table(rho, 6), rtol=0, atol=1e-14)


@pytest.mark.parametrize("n", range(1, MAX_QUBITS_DENSE + 1))
def test_probability_table_white_noise_is_exactly_uniform(n):
    """Bit for bit the 0.1.0 table, so white-noise runs draw the same counts.

    Each multinomial draw splits tied outcomes on the last bit of the
    table; the per-setting loop of 0.1.0 gave exactly 2**-n everywhere.
    """
    table = setting_probability_table(np.eye(2**n, dtype=complex) / 2**n, n)
    assert table.tobytes() == np.full((3**n, 2**n), 2.0**-n).tobytes()


def test_probability_table_hygiene():
    with pytest.raises(ValueError):
        setting_probability_table(np.diag([1.5, -0.5]).astype(complex), 1)
    # tiny negatives from floating-point cancellation are clipped
    table = setting_probability_table(np.diag([1.0 + 1e-13, -1e-13]).astype(complex), 1)
    z_row = from_digits([3 - 1], 3)
    assert table[z_row, 1] == 0.0
    assert table.min() >= 0.0
    np.testing.assert_allclose(table.sum(axis=1), 1.0, atol=1e-15)


def test_correlation_tensor_values_against_trace_route():
    """Dual route: the tensor contraction must equal per-string traces."""
    rho = build_state(StateSpec(kind="rank_r_plus_noise", n=3, q=0.75, r=3, seed=2))
    values = correlation_tensor_values(rho, 3)
    assert values.shape == (64,)
    assert values[0] == pytest.approx(1.0)
    for idx, labels in enumerate(digits(np.arange(64), 4, 3)):
        assert values[idx] == pytest.approx(trace_expectation(rho, labels), abs=1e-11), labels


def test_correlation_reconstruction_identity():
    # rho = 2^-n sum_mu T_mu sigma_mu recovers the state exactly
    rho = build_state(StateSpec(kind="ghz_plus_noise", n=2, q=0.6))
    values = correlation_tensor_values(rho, 2)
    rebuilt = sum(values[i] * kron_all(SIGMA[digits(i, 4, 2)]) for i in range(16)) / 4
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
    probs = table_row(rho, (direction,))
    assert probs.min() >= 0
    assert probs.sum() == pytest.approx(1.0, abs=1e-10)
    t = probs[0] - probs[1]
    assert t == pytest.approx((a, b, c)[direction - 1], abs=1e-10)
