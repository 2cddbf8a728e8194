"""Closed-form spectral laws: semicircle, Laplace, single-qubit, thresholds."""

import math

import numpy as np
import pytest
from scipy import integrate

from tomospectra.ensemble import ExperimentConfig, run_ensemble
from tomospectra.models import (
    LaplaceModel,
    SemicircleModel,
    SingleQubitModel,
    catalan,
    laplace_model,
    min_counts,
    physicality_probability,
    semicircle_center,
    semicircle_moment,
    semicircle_radius,
    semicircle_width,
    single_qubit_density,
)
from tomospectra.pauli import StateSpec
from tomospectra.sampling import MULTINOMIAL, CountModel


# --- centers, radii, widths -------------------------------------------------


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
    assert semicircle_width(6, 100) == pytest.approx(2 * expected, rel=1e-15)


def test_radius_rank_correction():
    base = semicircle_radius(4, 1000)
    assert semicircle_radius(4, 1000, r=1) == pytest.approx(
        base * math.sqrt(15.0 / 16.0), rel=1e-15
    )
    # radius scales as 1/sqrt(N)
    assert semicircle_radius(4, 4000) == pytest.approx(base / 2.0, rel=1e-15)


def test_for_state_keeps_unshrunk_radius_for_one_signal_eigenvalue():
    single = SemicircleModel.for_state(6, 230, 0.8, 1)
    assert single.center == semicircle_center(6, 0.8, 1)
    assert single.radius == semicircle_radius(6, 230, 0)
    # r > 1, or r = 1 without signal weight, gets the rank correction
    assert SemicircleModel.for_state(6, 230, 0.8, 3) == SemicircleModel.for_noise(
        6, 230, q=0.8, r=3)
    assert SemicircleModel.for_state(6, 230, 0.0, 1) == SemicircleModel.for_noise(
        6, 230, r=1)


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


# --- the semicircle law itself ----------------------------------------------


def test_pdf_normalization_and_support():
    model = SemicircleModel.for_noise(3, 500)
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
    # exact integer identity C_k = binom(2k, k)/(k + 1) at a large order
    assert catalan(30) == math.comb(60, 30) // 31
    with pytest.raises(ValueError):
        catalan(-1)


def test_central_moments_closed_form_and_quadrature():
    model = SemicircleModel(center=0.03, radius=0.2)
    half = model.radius / 2.0
    assert semicircle_moment(model, 2) == pytest.approx(half**2, rel=1e-15)
    assert semicircle_moment(model, 4) == pytest.approx(2 * half**4, rel=1e-15)
    assert semicircle_moment(model, 6) == pytest.approx(5 * half**6, rel=1e-15)
    assert semicircle_moment(model, 3) == 0.0
    assert semicircle_moment(model, 5) == 0.0
    with pytest.raises(ValueError):
        semicircle_moment(model, 0)
    # quadrature cross-check of the closed forms (the sqrt edges cap the
    # achievable accuracy around 1e-6 relative; plenty to catch a wrong
    # Catalan coefficient)
    lo, hi = model.support
    for k in (2, 4, 6):
        val, _ = integrate.quad(
            lambda x, k=k: (x - model.center) ** k * model.pdf(x), lo, hi, limit=200
        )
        assert semicircle_moment(model, k) == pytest.approx(val, rel=1e-5)
    assert model.central_moment(2) == semicircle_moment(model, 2)


def test_moment_ratios_are_radius_free():
    # m4/m2**2 = 2 and m6/m2**3 = 5 regardless of the scale
    for radius in (0.01, 0.35, 2.0):
        m = SemicircleModel(center=0.0, radius=radius)
        m2 = semicircle_moment(m, 2)
        assert semicircle_moment(m, 4) / m2**2 == pytest.approx(2.0, rel=1e-12)
        assert semicircle_moment(m, 6) / m2**3 == pytest.approx(5.0, rel=1e-12)


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
    model = SemicircleModel.for_noise(n, n0, q=q, r=1)
    assert model.center - model.radius > 0  # threshold really clears zero
    assert physicality_probability(model, n) == 1.0


def test_physicality_probability_below_threshold():
    model = SemicircleModel.for_noise(6, 120000, q=0.8, r=1)
    assert model.center - model.radius < 0
    p = physicality_probability(model, 6)
    assert 0.0 < p < 1.0
    # independent route: semicircle mass above zero to the 63rd power
    mass = model.cdf(model.support[1]) - model.cdf(0.0)
    assert p == pytest.approx(mass**63, rel=1e-12)


def test_physicality_probability_overestimates_once_the_edge_crosses_zero():
    """Pinned gap of the independence approximation (n=3, N=100).

    The semicircle edge c - R sits at -0.027, so some noise eigenvalues
    can go negative.  Independent draws give 0.731 physical, but the
    smallest eigenvalue of a replica is not the minimum of independent
    draws (the eigenvalues repel), and a white-noise ensemble is
    physical less often: criterion 5 measured 0.694 over 10^4 replicas.
    """
    predicted = physicality_probability(SemicircleModel.for_noise(3, 100), 3)
    assert predicted == pytest.approx(0.731, abs=5e-4)
    replicas = 10_000
    config = ExperimentConfig.overcomplete(
        StateSpec(kind="white_noise", n=3), CountModel(MULTINOMIAL, 100),
        replicas=replicas, master_seed=35)
    physical = 1.0 - run_ensemble(config).unphysical_fraction()
    stderr = math.sqrt(physical * (1.0 - physical) / replicas)
    assert predicted - physical > 3 * stderr


def test_physicality_probability_tiny_counts():
    # deep in the unphysical regime almost every replica has a negative tail
    model = SemicircleModel.for_noise(6, 100)
    assert physicality_probability(model, 6) < 1e-6


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


def test_laplace_validation():
    with pytest.raises(ValueError):
        LaplaceModel(center=0.0, alpha=0.0)
    with pytest.raises(ValueError):
        laplace_model(3, 0)


# --- single-qubit exact law ----------------------------------------------------


def test_single_qubit_normalization_closed_form():
    model = single_qubit_density(100)
    assert isinstance(model, SingleQubitModel)
    closed = math.sqrt(2.0 / math.pi) * 100**1.5
    assert model.normalization == pytest.approx(closed, rel=1e-7)


def test_single_qubit_pdf_cdf():
    model = single_qubit_density(100)
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
    assert model(0.4) == model.pdf(0.4)


def test_single_qubit_validation():
    with pytest.raises(ValueError):
        single_qubit_density(0)
