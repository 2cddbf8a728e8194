"""Anderson-Darling machinery and semicircle rank estimation."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings as hyp_settings
from hypothesis import strategies as st
from scipy import integrate

from tomospectra.ensemble import ExperimentConfig, SpectrumEnsemble
from tomospectra.gof import (
    NoAcceptedRankError,
    RankCandidate,
    RankTestReport,
    a2_null_cdf,
    anderson_darling,
    estimate_rank,
    reconstruct_physical_estimate,
    sup_cdf_distance,
)
from tomospectra.models import SemicircleModel, semicircle_radius
from tomospectra.pauli import StateSpec
from tomospectra.sampling import MULTINOMIAL, CountModel

# Critical values of the asymptotic A^2 null, frozen from two independent
# evaluations of the distribution (the classical series and a numerical
# characteristic-function inversion of sum Z_j^2 / (j (j+1))), which agree
# to ~1e-10.
CRITICAL = {
    0.10: 1.9329578,
    0.05: 2.4923672,
    0.025: 3.0774642,
    0.01: 3.8781250,
}

# Reference CDF values frozen from the same double evaluation.
CDF_POINTS = {
    0.15: 0.0014085566,
    0.2: 0.0095874528,
    2.0: 0.908163225,
    5.0: 0.997125579,
    12.0: 0.999998290,
}


def reference_series_term(j, z):
    """Magnitude of the j-th term of the classical series, one ``quad`` each."""
    coeff = math.exp(math.lgamma(j + 0.5) - math.lgamma(j + 1)) / math.sqrt(math.pi)
    b = (4 * j + 1) ** 2 * math.pi**2 / (8.0 * z)
    if b > 700.0:  # exp underflow; the term is zero to double precision
        return 0.0

    def integrand(w):
        return math.exp(z / (8.0 * (1.0 + w * w)) - b * w * w)

    integral, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-10)
    return coeff * (4 * j + 1) * math.exp(-b) * integral


def reference_null_cdf(z):
    """P(A^2 <= z) from the series summed until its terms vanish (z >= 0.05)."""
    total = 0.0
    for j in range(200):
        term = reference_series_term(j, z)
        total += term if j % 2 == 0 else -term
        if term < 1e-16 * max(abs(total), 1e-300) and j >= 2:
            break
    return min(1.0, max(0.0, math.sqrt(2.0 * math.pi) / z * total))


def semicircle_draws(rng, model, size):
    """Exact semicircle sampling: affine image of a Beta(3/2, 3/2)."""
    return model.center + model.radius * (2.0 * rng.beta(1.5, 1.5, size) - 1.0)


# --- the asymptotic null ------------------------------------------------------


def test_null_cdf_reference_points():
    for z, val in CDF_POINTS.items():
        assert a2_null_cdf(z) == pytest.approx(val, abs=1e-7)


def test_null_critical_values():
    for level, z in CRITICAL.items():
        assert 1.0 - a2_null_cdf(z) == pytest.approx(level, abs=2e-5)


def test_null_cdf_boundaries_and_monotonicity():
    assert a2_null_cdf(0.0) == 0.0
    assert a2_null_cdf(-3.0) == 0.0
    assert a2_null_cdf(0.04) == 0.0  # below the mass cutoff
    grid = np.linspace(0.2, 8.0, 40)
    vals = [a2_null_cdf(z) for z in grid]
    assert all(b >= a for a, b in zip(vals, vals[1:]))
    assert vals[-1] <= 1.0
    # the P-value anderson_darling reports is the upper tail of its statistic
    statistic, p_value = anderson_darling(grid, lambda x: x / 10.0)
    assert p_value == 1.0 - a2_null_cdf(statistic)


def test_null_cdf_matches_quadrature_series():
    """The shared-node trapezoid sum agrees with one ``quad`` per term."""
    grid = np.linspace(0.05, 29.0, 600)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", integrate.IntegrationWarning)
        reference = np.array([reference_null_cdf(z) for z in grid])
    new = np.array([a2_null_cdf(z) for z in grid])
    assert np.abs(new - reference).max() <= 1e-10


def test_null_cdf_is_monotone_and_reaches_one():
    """No step down beyond rounding, and exactly 1 from the upper cutoff on.

    The cutoff, z = 35, is where 1 - P first falls below 2**-53 (see
    ``gof``); past it the alternating series cancels catastrophically.
    """
    grid = np.union1d(np.linspace(0.05, 1000.0, 20000), [34.999, 35.0])
    vals = np.array([a2_null_cdf(z) for z in grid])
    assert np.diff(vals).min() >= -1e-14
    assert np.all(vals[grid >= 35.0] == 1.0)


def test_statistic_distribution_matches_critical_values():
    """Monte Carlo under the null: rejection fractions hit the levels.

    Draw uniform samples (the probability transform of any continuous
    fully-specified model), compute A^2 with the same formula the library
    uses, and compare the tail fractions against the frozen critical
    values.  Ties together the statistic implementation and the null law
    without a single quadrature call.
    """
    rng = np.random.default_rng(2024)
    reps, nbar = 4000, 59
    u = np.sort(rng.random((reps, nbar)), axis=1)
    i = 2.0 * np.arange(1, nbar + 1) - 1.0
    a2 = -nbar - (i * (np.log(u) + np.log1p(-u[:, ::-1]))).sum(axis=1) / nbar
    assert a2.mean() == pytest.approx(1.0, abs=0.08)
    frac_5 = float((a2 > CRITICAL[0.05]).mean())
    frac_1 = float((a2 > CRITICAL[0.01]).mean())
    assert 0.03 <= frac_5 <= 0.07
    assert 0.003 <= frac_1 <= 0.02
    # and the library statistic agrees exactly with the vectorized formula
    stat, _ = anderson_darling(u[0], lambda x: x)
    assert stat == pytest.approx(float(a2[0]), rel=1e-12)


# --- the statistic ------------------------------------------------------------


def test_anderson_darling_small_sample_by_hand():
    sample = np.array([0.1, 0.3, 0.5, 0.7, 0.9])
    u = sample  # identity CDF
    total = 0.0
    for k in range(5):
        total += (2 * (k + 1) - 1) * (math.log(u[k]) + math.log(1.0 - u[4 - k]))
    expected = -5.0 - total / 5.0
    stat, p = anderson_darling(sample, lambda x: x)
    assert stat == pytest.approx(expected, rel=1e-12)
    assert 0.0 <= p <= 1.0
    # this symmetric, well-spread sample should not be rejected
    assert p > 0.5
    # the sample is sorted internally, and too small a sample is refused
    assert anderson_darling(sample[::-1], lambda x: x) == (stat, p)
    with pytest.raises(ValueError):
        anderson_darling([0.1, 0.2, 0.3], lambda x: x)


def test_anderson_darling_detects_mismatch():
    rng = np.random.default_rng(5)
    model = SemicircleModel(center=0.2, radius=0.05)
    good = semicircle_draws(rng, model, 200)
    shifted = good + 0.03  # displace by more than half a radius
    _, p_good = anderson_darling(good, model.cdf)
    with pytest.warns(RuntimeWarning):
        # points leave the support, so the transform clamps
        _, p_bad = anderson_darling(shifted, model.cdf)
    # a true-model draw can land anywhere in (0, 1); the point is contrast
    assert p_good > 0.01
    assert p_bad < 1e-6


def test_boundary_clamp_keeps_results_finite():
    model = SemicircleModel(center=0.5, radius=0.1)
    sample = np.array([0.2, 0.45, 0.5, 0.55, 0.9])  # two points outside
    with pytest.warns(RuntimeWarning):
        stat, p = anderson_darling(sample, model.cdf)
    assert math.isfinite(stat)
    assert 0.0 <= p <= 1.0


def test_non_finite_sample_or_statistic_raises():
    """A NaN is no evidence of fit: no P-value is reported for it."""
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="finite"):
            anderson_darling([0.1, 0.2, bad, 0.5, 0.7], lambda x: x)
    with pytest.raises(ValueError, match="NaN"):
        anderson_darling([0.1, 0.2, 0.3, 0.5, 0.7], lambda x: np.full_like(x, math.nan))
    with pytest.raises(ValueError, match="NaN"):
        a2_null_cdf(math.nan)
    assert a2_null_cdf(math.inf) == 1.0


@hyp_settings(max_examples=20, deadline=None)
@given(
    scale=st.floats(min_value=0.01, max_value=100.0),
    shift=st.floats(min_value=-5.0, max_value=5.0),
    seed=st.integers(min_value=0, max_value=10**6),
)
def test_statistic_is_affine_invariant(scale, shift, seed):
    """A^2 depends only on the probability transform, not on units."""
    rng = np.random.default_rng(seed)
    model = SemicircleModel(center=0.0, radius=1.0)
    sample = semicircle_draws(rng, model, 40)
    mapped = SemicircleModel(center=shift, radius=scale)
    stat_a, _ = anderson_darling(sample, model.cdf)
    stat_b, _ = anderson_darling(scale * sample + shift, mapped.cdf)
    assert stat_b == pytest.approx(stat_a, rel=1e-9, abs=1e-9)


# --- rank estimation ----------------------------------------------------------


def noise_spectrum(rng, n, counts, rank=0, signal=()):
    """Synthetic spectrum: semicircle noise band plus pinned signal values."""
    dim = 2**n
    center = (1.0 - sum(signal)) / (dim - rank)
    model = SemicircleModel(
        center=center, radius=semicircle_radius(n, counts, rank)
    )
    noise = semicircle_draws(rng, model, dim - rank)
    return np.sort(np.concatenate([noise, np.asarray(signal, dtype=float)]))


def test_estimate_rank_accepts_pure_noise():
    rng = np.random.default_rng(11)
    n, counts = 3, 4000
    eigs = noise_spectrum(rng, n, counts)
    report = estimate_rank(eigs, n, counts)
    assert report.chosen_rank == 0
    c0 = report.candidates[0]
    assert c0.in_support
    assert c0.p_eff == c0.p_value >= report.significance
    assert c0.center == pytest.approx(eigs.mean(), rel=1e-12)
    assert c0.radius == semicircle_radius(n, counts, 0)


def test_estimate_rank_finds_single_signal():
    rng = np.random.default_rng(21)
    n, counts = 4, 20000
    eigs = noise_spectrum(rng, n, counts, rank=1, signal=(0.55,))
    report = estimate_rank(eigs, n, counts, max_rank=3)
    assert report.chosen_rank == 1
    # r = 0 must fail: the signal eigenvalue sits far outside the band
    assert not report.candidates[0].in_support
    assert report.candidates[0].p_eff == 0.0
    assert report.candidates[1].signal_count == 1
    # the report is JSON-serializable with native types
    doc = report.to_json()
    assert doc["chosen_rank"] == 1
    assert len(doc["candidates"]) == 4
    assert isinstance(doc["candidates"][0]["in_support"], bool)


def test_estimate_rank_rejects_negative_centers():
    # eigenvalues averaging below zero can never be accepted as noise
    eigs = np.sort(np.full(8, -0.01) + np.arange(8) * 1e-4)
    report = estimate_rank(eigs, 3, 1000, max_rank=2)
    assert report.chosen_rank is None
    for cand in report.candidates:
        assert cand.center < 0.0


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf], ids=["nan", "inf", "-inf"])
def test_estimate_rank_refuses_a_non_finite_eigenvalue(bad):
    """A NaN or inf is no noise eigenvalue: the rank table would print it as a statistic."""
    eigs = noise_spectrum(np.random.default_rng(3), 3, 1000)
    eigs[4] = bad
    with pytest.raises(ValueError, match="eigenvalues must be finite"):
        estimate_rank(eigs, 3, 1000)


def test_estimate_rank_validation():
    eigs = np.linspace(0.0, 0.3, 8)
    with pytest.raises(ValueError):
        estimate_rank(eigs, 2, 100)  # wrong dimension
    with pytest.raises(ValueError, match="counts must be >= 1"):
        estimate_rank(eigs, 3, 0)
    with pytest.raises(ValueError, match="counts must be finite"):
        estimate_rank(eigs, 3, math.nan)
    with pytest.raises(ValueError):
        estimate_rank(eigs, 3, 100, significance=1.0)
    with pytest.raises(ValueError):
        estimate_rank(eigs, 3, 100, max_rank=4)  # noise band would drop below 5
    with pytest.raises(ValueError):
        estimate_rank(np.linspace(0.1, 0.4, 4), 2, 100)  # dim 4 < 5
    for n in (-1, 0):  # checked before the eigenvalue count, which 2**n would misname
        with pytest.raises(ValueError, match="qubit number"):
            estimate_rank(eigs, n, 100)


def test_estimate_rank_default_max_rank_cap():
    rng = np.random.default_rng(3)
    eigs = noise_spectrum(rng, 3, 2000)
    report = estimate_rank(eigs, 3, 2000)
    assert len(report.candidates) == 4  # min(8 - 5, 10) + 1 rows


# --- physical reconstruction ---------------------------------------------------


def test_reconstruct_physical_estimate_rank1():
    rng = np.random.default_rng(31)
    n, counts = 3, 50000
    eigs = noise_spectrum(rng, n, counts, rank=1, signal=(0.6,))
    report = estimate_rank(eigs, n, counts, max_rank=2)
    assert report.chosen_rank == 1
    vectors = np.eye(8, dtype=complex)
    rho = reconstruct_physical_estimate(eigs, vectors, report)
    w = np.linalg.eigvalsh(rho)
    assert w.min() >= -1e-12
    assert np.trace(rho).real == pytest.approx(1.0, abs=1e-12)
    # the signal eigenvalue survives (up to the trace rescale), the noise
    # band is flattened onto the fitted center
    diag = np.diag(rho).real
    assert diag[-1] == pytest.approx(0.6, rel=0.02)
    np.testing.assert_allclose(diag[:-1], diag[0], rtol=1e-9)


def test_reconstruct_physical_estimate_errors():
    empty_report = RankTestReport(candidates=(), chosen_rank=None, significance=0.05)
    with pytest.raises(NoAcceptedRankError):
        reconstruct_physical_estimate(np.zeros(8), np.eye(8), empty_report)
    rng = np.random.default_rng(7)
    eigs = noise_spectrum(rng, 3, 50000)
    report = estimate_rank(eigs, 3, 50000)
    with pytest.raises(ValueError):
        reconstruct_physical_estimate(eigs[::-1], np.eye(8), report)
    for vectors in (np.eye(8)[:3], np.eye(8)[:, :4], np.eye(4)):
        with pytest.raises(ValueError, match="match the vectors"):
            reconstruct_physical_estimate(eigs, vectors, report)


def test_reconstruct_physical_estimate_refuses_a_non_positive_total():
    """Kept eigenvalues that outweigh the floored band leave nothing to normalize."""
    rows = tuple(RankCandidate(rank=r, center=0.125, radius=0.1, statistic=0.1, p_value=0.5,
                               p_eff=0.5, in_support=True, signal_count=r) for r in (0, 1))
    report = RankTestReport(candidates=rows, chosen_rank=1, significance=0.05)
    with pytest.raises(ValueError, match="non-positive total weight"):
        reconstruct_physical_estimate(np.linspace(-2, -1, 8), np.eye(8), report)


# --- unphysical fraction --------------------------------------------------------


def test_unphysical_fraction_counting():
    rows = np.array(
        [
            [0.1, 0.2, 0.3, 0.4],
            [-0.01, 0.2, 0.3, 0.51],
            [0.0, 0.1, 0.4, 0.5],  # exact zero is still physical
        ]
    )
    config = ExperimentConfig.overcomplete(
        StateSpec(kind="white_noise", n=2), CountModel(MULTINOMIAL, 100), replicas=3)
    ensemble = SpectrumEnsemble(config=config, spectra=rows)
    assert ensemble.unphysical_fraction() == pytest.approx(1.0 / 3.0)


# --- sup-CDF distance -----------------------------------------------------------


def test_sup_cdf_distance_one_point():
    # the empirical CDF jumps from 0 to 1 at 0.5, where the uniform CDF is 0.5
    assert sup_cdf_distance(np.array([0.5]), lambda x: x) == 0.5


def test_sup_cdf_distance_sorts_its_sample():
    # uniform on [0, 0.3]: the model CDF meets the top of every step and
    # misses its bottom by 1/3 (taken unsorted, the steps mismatch and read 1.0)
    uniform = lambda x: x / 0.3  # noqa: E731
    assert sup_cdf_distance([0.3, 0.1, 0.2], uniform) == pytest.approx(1.0 / 3.0)
    assert sup_cdf_distance([0.3, 0.1, 0.2], uniform) == sup_cdf_distance(
        np.array([0.1, 0.2, 0.3]), uniform)
