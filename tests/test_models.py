"""Closed-form spectral laws: semicircle, Laplace, single-qubit, thresholds."""

import math

import numpy as np
import pytest
from scipy import integrate

from tomospectra.ensemble import ExperimentConfig, run_ensemble
from tomospectra.gof import estimate_rank
from tomospectra.models import (
    LaplaceModel,
    SemicircleModel,
    SingleQubitModel,
    catalan,
    laplace_model,
    min_counts,
    overcomplete_law,
    physicality_probability,
    semicircle_center,
    semicircle_radius,
)
from tomospectra.pauli import StateSpec
from tomospectra.sampling import MULTINOMIAL, CountModel


# --- centers and radii ------------------------------------------------------


def test_center_values():
    assert semicircle_center(1) == 0.5
    assert semicircle_center(6) == 1.0 / 64.0
    assert semicircle_center(6, q=0.8, r=1) == pytest.approx(0.2 / 63.0, rel=1e-15)
    assert semicircle_center(2, q=1.0, r=0) == 0.0


def test_radius_reference_value():
    # 2 sqrt((10**6 - 1)/12**6) / sqrt(100), evaluated independently
    expected = 2.0 * math.sqrt(999999.0 / 2985984.0) / 10.0
    assert semicircle_radius(6, 100) == pytest.approx(expected, rel=1e-15)
    assert semicircle_radius(6, 100) == pytest.approx(0.115741, abs=1e-6)


def test_radius_rank_correction():
    base = semicircle_radius(4, 1000)
    assert semicircle_radius(4, 1000, r=1) == pytest.approx(
        base * math.sqrt(15.0 / 16.0), rel=1e-15
    )
    # radius scales as 1/sqrt(N)
    assert semicircle_radius(4, 4000) == pytest.approx(base / 2.0, rel=1e-15)


def test_for_state_keeps_unshrunk_radius_for_one_signal_eigenvalue():
    single = overcomplete_law(6, 230, 0.8, 1)
    assert single.center == semicircle_center(6, 0.8, 1)
    assert single.radius == semicircle_radius(6, 230, 0)
    # r > 1 gets the rank correction
    assert overcomplete_law(6, 230, 0.8, 3) == SemicircleModel(
        semicircle_center(6, 0.8, 3), semicircle_radius(6, 230, 3))
    # r = 1 without signal weight is the state I/2**n: the white-noise bulk
    assert overcomplete_law(6, 230, 0.0, 1) == SemicircleModel(
        2.0**-6, semicircle_radius(6, 230))
    # the white-noise bulk is the default and the q = 0, r = 0 state
    assert overcomplete_law(6, 230) == overcomplete_law(6, 230, 0.0, 0)
    assert overcomplete_law(6, 230) == SemicircleModel(2.0**-6, semicircle_radius(6, 230))


@pytest.mark.parametrize("n", [2, 3])
@pytest.mark.parametrize("q", [0.0, 0.5])
@pytest.mark.parametrize("r", ["0", "1", "2", "dim-1", "dim"])
def test_for_state_is_the_one_white_noise_rule(n, q, r):
    """q = 0, r = 0 and r = 2**n are white noise; any other state keeps 2**n - r bulk eigenvalues.

    At one event per setting every bulk dips below zero, so the
    physicality probability's exponent shows the eigenvalue count.
    """
    dim, counts = 2**n, 1
    r = {"0": 0, "1": 1, "2": 2, "dim-1": dim - 1, "dim": dim}[r]
    model = overcomplete_law(n, counts, q, r)
    if q == 0 or r in (0, dim):
        assert model == overcomplete_law(n, counts)
        assert model == SemicircleModel(1.0 / dim, semicircle_radius(n, counts))
        count = dim
    else:
        assert model.center == (1.0 - q) / (dim - r)
        assert model.radius == semicircle_radius(n, counts, 0 if r == 1 else r)
        count = dim - r
    mass = model.cdf(model.center + model.radius) - model.cdf(max(0.0, model.center - model.radius))
    assert 0.0 < mass < 1.0
    assert physicality_probability(n, counts, q, r) == pytest.approx(mass**count, rel=1e-12)


@pytest.mark.parametrize("call", [overcomplete_law, physicality_probability],
                         ids=["for-state", "physicality"])
@pytest.mark.parametrize("n", [2, 3])
def test_signal_rank_lies_in_0_to_2_to_the_n(call, n):
    for r in (-1, 2**n + 1):
        with pytest.raises(ValueError, match="signal rank r must lie in 0..%d, got %d" % (2**n, r)):
            call(n, 100, 0.5, r)


def test_parameter_validation():
    with pytest.raises(ValueError):
        semicircle_center(0)
    with pytest.raises(ValueError):
        semicircle_center(11)
    with pytest.raises(ValueError):
        semicircle_center(2, q=1.5)
    with pytest.raises(ValueError):
        semicircle_center(2, r=4)
    with pytest.raises(ValueError):
        semicircle_radius(2, 0)
    with pytest.raises(ValueError):
        SemicircleModel(center=0.1, radius=0.0)


_FLAT8 = np.full(8, 0.125)


@pytest.mark.parametrize("call", [
    lambda q: StateSpec(kind="ghz_plus_noise", n=2, q=q),
    lambda q: semicircle_center(2, q),
    lambda q: overcomplete_law(3, 100, q, 1),
    lambda q: min_counts(2, q),
], ids=["state", "center", "for-state", "min-counts"])
@pytest.mark.parametrize("q, message", [
    (True, "must be a number"),
    ("0.5", "must be a number"),
    (float("nan"), "must be finite"),
    (-0.1, "must lie in"),
    (1.5, "must lie in"),
])
def test_signal_weight_is_one_rule(call, q, message):
    """The laws take q as `StateSpec` does: a real number in [0, 1], not a bool."""
    with pytest.raises(ValueError, match="signal weight q " + message):
        call(q)


@pytest.mark.parametrize("call, value", [
    (SingleQubitModel, 100),
    (lambda n: semicircle_radius(n, 100), 3),
    (lambda n: laplace_model(n, 1e4), 2),
    (lambda n: min_counts(n, 0.5), 1),
    (catalan, 2),
    (SemicircleModel(center=0.1, radius=0.2).central_moment, 4),
    (lambda n: estimate_rank(_FLAT8, n, 100), 3),
    (lambda r: estimate_rank(_FLAT8, 3, 100, max_rank=r), 1),
    (lambda r: semicircle_center(3, 0.5, r), 1),
    (lambda r: semicircle_radius(3, 100, r), 1),
    (lambda r: overcomplete_law(3, 100, 0.5, r), 2),
], ids=["counts", "n", "laplace-n", "min-counts-n", "catalan-k", "moment-k",
        "rank-n", "max-rank", "center-rank", "radius-rank", "for-state-rank"])
def test_integer_arguments_reject_floats_and_bools(call, value):
    """int() would run 3.7 qubits as 3 and True as 1; NumPy integers are integers."""
    for bad in (value + 0.7, True):
        with pytest.raises(ValueError, match="must be an integer"):
            call(bad)
    call(np.int64(value))


# --- the semicircle law itself ----------------------------------------------


def test_pdf_normalization_and_support():
    model = overcomplete_law(3, 500)
    lo, hi = model.support
    mass, _ = integrate.quad(model.pdf, lo, hi)
    assert mass == pytest.approx(1.0, abs=1e-10)
    assert model.pdf(lo - 1e-9) == 0.0
    assert model.pdf(hi + 1e-9) == 0.0
    assert model.pdf(model.center) == pytest.approx(2.0 / (math.pi * model.radius))


def test_cdf_reference_points():
    model = SemicircleModel(center=0.0, radius=1.0)
    assert model.cdf(-1.0) == 0.0
    assert model.cdf(0.0) == 0.5
    assert model.cdf(1.0) == 1.0
    # z = 1/2: 1/2 + (sqrt(3)/4 + pi/6)/pi
    expected = 0.5 + (0.5 * math.sqrt(0.75) + math.asin(0.5)) / math.pi
    assert model.cdf(0.5) == pytest.approx(expected, rel=1e-12)
    assert model.cdf(0.5) == pytest.approx(0.804499, abs=1e-6)
    # cdf is the integral of the pdf (independent quadrature route)
    for x in (-0.8, -0.3, 0.2, 0.9):
        quad_val, _ = integrate.quad(model.pdf, -1.0, x)
        assert model.cdf(x) == pytest.approx(quad_val, abs=1e-10)


def test_cdf_saturates_outside_support():
    model = SemicircleModel(center=0.25, radius=0.1)
    assert model.cdf(0.0) == 0.0
    assert model.cdf(1.0) == 1.0
    xs = np.linspace(0.1, 0.4, 50)
    assert np.all(np.diff(model.cdf(xs)) >= 0)


def test_catalan_numbers():
    assert [catalan(k) for k in range(6)] == [1, 1, 2, 5, 14, 42]
    # Segner's recurrence C_{k+1} = sum_i C_i C_{k-i}, in exact integers
    values = [catalan(k) for k in range(41)]
    for k in range(40):
        assert values[k + 1] == sum(values[i] * values[k - i] for i in range(k + 1))
    with pytest.raises(ValueError):
        catalan(-1)


def test_central_moments_closed_form_and_quadrature():
    model = SemicircleModel(center=0.03, radius=0.2)
    half = model.radius / 2.0
    assert model.central_moment(2) == pytest.approx(half**2, rel=1e-15)
    assert model.central_moment(4) == pytest.approx(2 * half**4, rel=1e-15)
    assert model.central_moment(6) == pytest.approx(5 * half**6, rel=1e-15)
    assert model.central_moment(3) == 0.0
    assert model.central_moment(5) == 0.0
    with pytest.raises(ValueError):
        model.central_moment(0)
    # quadrature cross-check of the closed forms (the sqrt edges cap the
    # achievable accuracy around 1e-6 relative; plenty to catch a wrong
    # Catalan coefficient)
    lo, hi = model.support
    for k in (2, 4, 6):
        val, _ = integrate.quad(
            lambda x, k=k: (x - model.center) ** k * model.pdf(x), lo, hi, limit=200
        )
        assert model.central_moment(k) == pytest.approx(val, rel=1e-5)


def test_moment_ratios_are_radius_free():
    # m4/m2**2 = 2 and m6/m2**3 = 5 regardless of the scale
    for radius in (0.01, 0.35, 2.0):
        m = SemicircleModel(center=0.0, radius=radius)
        m2 = m.central_moment(2)
        assert m.central_moment(4) / m2**2 == pytest.approx(2.0, rel=1e-12)
        assert m.central_moment(6) / m2**3 == pytest.approx(5.0, rel=1e-12)


# --- count thresholds ---------------------------------------------------------


def test_min_counts_reference_values():
    assert min_counts(6, 0.8) == 132921
    assert min_counts(1, 0.5) == 14  # ceil(40/3)
    assert min_counts(1, 0.0) == 4  # ceil(10/3)
    # an exactly-integer threshold is not bumped up by the slack convention
    assert min_counts(2, 0.0) == 25  # 4 * (25/36) * 9 exactly


def test_min_counts_brackets_the_real_solution():
    for n, q in [(2, 0.3), (4, 0.6), (6, 0.8), (6, 0.95)]:
        exact = 4.0 * (5.0 / 6.0) ** n * ((2**n - 1) / (1.0 - q)) ** 2
        n0 = min_counts(n, q)
        assert n0 >= exact - 1e-5 * exact - 1.0
        assert n0 < exact + 1.0


def test_min_counts_monotone_in_q():
    values = [min_counts(4, q) for q in (0.0, 0.2, 0.5, 0.8, 0.95)]
    assert values == sorted(values)


def test_min_counts_divergence():
    with pytest.raises(ValueError):
        min_counts(3, 1.0)
    with pytest.raises(ValueError):
        min_counts(3, -0.1)


# --- physicality --------------------------------------------------------------


def test_physicality_probability_saturates_at_threshold():
    n, q = 6, 0.8
    n0 = min_counts(n, q)
    model = overcomplete_law(n, n0, q, 1)
    assert model.center - model.radius > 0  # threshold really clears zero
    assert physicality_probability(n, n0, q, 1) == 1.0


def test_physicality_probability_below_threshold():
    model = overcomplete_law(6, 120000, 0.8, 1)
    assert model.center - model.radius < 0
    p = physicality_probability(6, 120000, 0.8, 1)
    assert 0.0 < p < 1.0
    # independent route: semicircle mass above zero to the 63rd power
    mass = model.cdf(model.support[1]) - model.cdf(0.0)
    assert p == pytest.approx(mass**63, rel=1e-12)


def _physical_fraction(n, replicas):
    config = ExperimentConfig.overcomplete(
        StateSpec(kind="white_noise", n=n), CountModel(MULTINOMIAL, 100),
        replicas=replicas, master_seed=35)
    return 1.0 - run_ensemble(config).unphysical_fraction()


def test_physicality_probability_matches_at_n3_and_overestimates_at_n4():
    """White noise at N=100 once the semicircle edge crosses zero.

    At n=3 the edge c - R sits at -0.027, and the 8 independent
    eigenvalue draws give 0.6985 physical, within 3 standard errors of
    the 10**4 replicas.  At n=4 the independence approximation is too
    optimistic: the smallest eigenvalue of a replica is not the minimum
    of independent draws (the eigenvalues repel), and it predicts 0.0175
    against no physical replica at all.
    """
    replicas = 10_000
    predicted = physicality_probability(3, 100)
    assert predicted == pytest.approx(0.6985, abs=5e-4)
    physical = _physical_fraction(3, replicas)
    stderr = math.sqrt(physical * (1.0 - physical) / replicas)
    assert abs(predicted - physical) <= 3 * stderr
    assert physicality_probability(4, 100) == pytest.approx(0.0175, abs=5e-4)
    assert _physical_fraction(4, replicas) == 0.0


def test_physicality_probability_tiny_counts():
    # deep in the unphysical regime almost every replica has a negative tail
    assert physicality_probability(6, 100) < 1e-6


@pytest.mark.parametrize("counts", [1, 3, 10, 30, 100])
def test_one_qubit_physicality_is_the_chi_square_3_form(counts):
    """|T~|**2 N is chi-square with 3 degrees of freedom, and a state needs |T~| <= 1."""
    assert isinstance(overcomplete_law(1, counts), SingleQubitModel)
    chi2_3 = (math.erf(math.sqrt(counts / 2.0))
              - math.sqrt(2.0 * counts / math.pi) * math.exp(-counts / 2.0))
    assert abs(physicality_probability(1, counts) - chi2_3) <= 1e-14


# --- Laplace law (projector scheme) -------------------------------------------


def test_laplace_model_parameters():
    model = laplace_model(6, 4_000_000)
    assert model.center == 2.0**-6
    assert model.alpha == pytest.approx(math.sqrt(2 * 4_000_000 / 4096), rel=1e-15)
    assert model.alpha == pytest.approx(44.19417, abs=1e-4)
    assert model.second_central_moment == pytest.approx(4096 / 4_000_000, rel=1e-12)

    model2 = laplace_model(2, 40_000)
    assert model2.alpha == pytest.approx(math.sqrt(5000), rel=1e-15)


def test_laplace_pdf_cdf_consistency():
    model = LaplaceModel(center=0.1, alpha=30.0)
    mass, _ = integrate.quad(model.pdf, -2, 2, points=[0.1])
    assert mass == pytest.approx(1.0, abs=1e-9)
    assert model.cdf(0.1) == 0.5
    for x in (-0.05, 0.08, 0.1, 0.13, 0.4):
        val, _ = integrate.quad(model.pdf, -2, x, points=[0.1])
        assert model.cdf(x) == pytest.approx(val, abs=1e-9)
    # second central moment by quadrature
    var, _ = integrate.quad(
        lambda x: (x - 0.1) ** 2 * model.pdf(x), -2, 2, points=[0.1]
    )
    assert model.second_central_moment == pytest.approx(var, rel=1e-7)


def test_laplace_far_tails_do_not_overflow():
    # a RuntimeWarning fails the test too (pytest turns warnings into errors):
    # at alpha ~ 7.1e5 the other side's growing exponential overflowed at x = 0.6
    model = laplace_model(1, 1e12)
    assert model.cdf(0.6) == 1.0 and model.cdf(-0.6) == 0.0
    x = np.array([-1.7e308, -np.inf, -0.6, 0.5 - 2e-6, 0.5, 0.5 + 2e-6, 0.6, np.inf, 1.7e308])
    cdf = model.cdf(x)
    np.testing.assert_array_equal(cdf[[0, 1, 2, -3, -2, -1]], [0, 0, 0, 1, 1, 1])
    low, high = (0.5 * math.exp(-model.alpha * abs(v - 0.5)) for v in x[[3, 5]])
    assert cdf[3:6].tolist() == pytest.approx([low, 0.5, 1.0 - high], rel=1e-15)
    np.testing.assert_array_equal(model.pdf(x[[0, 1, 2, -3, -2, -1]]), 0.0)


def test_laplace_validation():
    with pytest.raises(ValueError):
        LaplaceModel(center=0.0, alpha=0.0)
    with pytest.raises(ValueError):
        laplace_model(3, 0)


def test_counts_in_the_closed_form_laws_are_finite_numbers():
    """True is not one event, and NaN or inf counts have no law."""
    for call in (lambda c: semicircle_radius(3, c), lambda c: laplace_model(3, c)):
        with pytest.raises(ValueError, match="must be a number"):
            call(True)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="must be finite"):
                call(bad)
    with pytest.raises(ValueError, match="counts must be >= 1"):
        semicircle_radius(3, 0.5)
    # the complete scheme's budget only has to be positive, as in ExperimentConfig
    assert laplace_model(1, 0.5).alpha == pytest.approx(0.5, rel=1e-15)
    with pytest.raises(ValueError, match="total_counts must be positive"):
        laplace_model(1, -0.5)


# --- single-qubit Gaussian law -------------------------------------------------


def test_single_qubit_normalization_closed_form():
    for counts in (1, 100, 1000):
        model = SingleQubitModel(counts)
        assert model.normalization == math.sqrt(2.0 / math.pi) * counts**1.5
        # the closed form integrates the density to 1 (the mass beyond
        # 0.5 +- 20/sqrt(N) is below e^-800)
        half_width = 20.0 / math.sqrt(counts)
        mass, _ = integrate.quad(model.pdf, 0.5 - half_width, 0.5 + half_width,
                                 points=[0.5], epsabs=0, epsrel=1e-13, limit=200)
        assert mass == pytest.approx(1.0, rel=1e-12)


def test_single_qubit_pdf_cdf():
    model = SingleQubitModel(100)
    lo, hi = 0.5 - 1.0, 0.5 + 1.0
    mass, _ = integrate.quad(model.pdf, lo, hi, points=[0.5])
    assert mass == pytest.approx(1.0, abs=1e-7)
    # symmetric around 1/2 with a zero of the density exactly there
    assert model.pdf(0.5) == 0.0
    assert model.pdf(0.4) == pytest.approx(model.pdf(0.6), rel=1e-12)
    assert model.cdf(0.5) == pytest.approx(0.5, abs=1e-9)
    assert model.cdf(-5.0) == pytest.approx(0.0, abs=1e-12)
    assert model.cdf(5.0) == pytest.approx(1.0, abs=1e-7)
    for x in (0.35, 0.45, 0.55, 0.62):
        val, _ = integrate.quad(model.pdf, -1.0, x, points=[0.5])
        assert model.cdf(x) == pytest.approx(val, abs=1e-8)


def test_single_qubit_limits_at_infinity():
    # a RuntimeWarning fails the test too (pytest turns warnings into errors)
    model = SingleQubitModel(100)
    assert model.pdf(np.inf) == 0.0 and model.pdf(-np.inf) == 0.0
    assert model.cdf(-np.inf) == 0.0 and model.cdf(np.inf) == 1.0
    x = np.array([-np.inf, 0.4, np.inf])
    np.testing.assert_array_equal(model.pdf(x), [0.0, model.pdf(0.4), 0.0])
    np.testing.assert_array_equal(model.cdf(x), [0.0, model.cdf(0.4), 1.0])
    assert math.isnan(model.pdf(np.nan)) and math.isnan(model.cdf(np.nan))


def test_single_qubit_far_tails_are_the_limits():
    # (1 - 2x)**2 overflowed from |x| ~ 6.7e153 on: the pdf was NaN with two
    # RuntimeWarnings, which fail the test too
    for counts in (1, 9, 100, 10**6):
        model = SingleQubitModel(counts)
        x = np.array([-1.7e308, -1e200, -19.5, 20.5, 1e200, 1.7e308])
        np.testing.assert_array_equal(model.pdf(x), 0.0)
        cdf = model.cdf(x)
        np.testing.assert_array_equal(cdf[:3], 0.0)
        # from x = 20.5 on the cdf holds one value: 1 to within an ulp
        assert (cdf[3:] == model.cdf(1e6)).all()
        assert cdf[3] == pytest.approx(1.0, abs=2.3e-16)
        # inside the cap the bits are the unclipped closed form's
        grid = np.linspace(-3.0, 4.0, 71)
        u = 1.0 - 2.0 * grid
        closed = model.normalization * np.exp(-0.5 * u**2 * counts) * u**2
        assert model.pdf(grid).tobytes() == closed.tobytes()


def test_the_single_qubit_law_is_off_the_count_lattice_by_0_0075():
    """The Gaussian one-qubit law against the exact multinomial law at N = 100.

    Each Bloch component of a white-noise qubit is (2k - N)/N with k
    binomial(N, 1/2), a lattice of step 2/N, and the eigenvalues are
    (1 +- |T|)/2.  Enumerating the 101**3 count triples gives the pooled
    eigenvalue law exactly; its sup-CDF distance to the model is the
    systematic part of criterion 4's reading (0.00784 at seed 2, band 0.01).
    """
    counts = 100
    pmf = np.array([math.comb(counts, k) for k in range(counts + 1)], dtype=float) / 2.0**counts
    squares = (2 * np.arange(counts + 1) - counts) ** 2
    norm2 = (squares[:, None, None] + squares[:, None] + squares).ravel()
    mass = np.bincount(norm2, weights=np.multiply.outer(np.outer(pmf, pmf), pmf).ravel())
    radius = np.sqrt(np.arange(mass.size)) / counts
    # each |T|**2 = s/N**2 puts half its mass on either eigenvalue
    atoms, where = np.unique(np.concatenate([1.0 - radius, 1.0 + radius]) / 2.0,
                             return_inverse=True)
    weights = np.bincount(where, weights=np.concatenate([mass, mass]) / 2.0)
    after = np.cumsum(weights)
    model = SingleQubitModel(counts).cdf(atoms)
    gap = max(np.abs(after - model).max(), np.abs(after - weights - model).max())
    assert after[-1] == pytest.approx(1.0, abs=1e-12)
    assert 0.0070 <= gap <= 0.0080


def test_single_qubit_validation():
    # the model itself holds only N, so every instance integrates to 1
    for bad in (0, -3, 1.5, True):
        with pytest.raises(ValueError, match="counts must be"):
            SingleQubitModel(bad)
    with pytest.raises(TypeError):
        SingleQubitModel(100, 1.0)
