"""Anderson-Darling goodness of fit and semicircle-based rank estimation.

The rank procedure iterates a candidate signal rank r: the smallest
2**n - r eigenvalues of a measured spectrum are treated as the noise
band, the matching semicircle (center = their mean, radius = the
rank-corrected prediction) is fitted, and the band is tested against it
with the Anderson-Darling statistic.  The accepted rank is the smallest
r whose noise band both fits (effective P-value above the significance
level) and has a positive center; a negative center means the ansatz
tries to park noise mass below zero and is rejected outright.

P-values use the asymptotic null distribution of the A^2 statistic for a
fully specified model (the semicircle parameters are fixed before
testing, not fitted to the tested sample's shape).  Each series term
is one `scipy.integrate.quad`; SciPy is imported on the first term, not
with the package, so runs that never rank-test do not load it.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .estimation import Spectrum
from .models import SemicircleModel, semicircle_radius

__all__ = [
    "EmpiricalSpectrumSample",
    "RankCandidate",
    "RankTestReport",
    "anderson_darling",
    "a2_null_cdf",
    "estimate_rank",
    "reconstruct_physical_estimate",
    "sup_cdf_distance",
    "unphysical_fraction",
    "NoAcceptedRankError",
]

_CLAMP = 1e-15


class NoAcceptedRankError(ValueError):
    """A rank-test report without an accepted rank was asked for a state."""


@dataclass(frozen=True)
class EmpiricalSpectrumSample:
    """A sorted eigenvalue sample headed for goodness-of-fit testing."""

    eigenvalues: np.ndarray
    source: str = ""

    def __post_init__(self):
        eigenvalues = np.sort(np.asarray(self.eigenvalues, dtype=float))
        object.__setattr__(self, "eigenvalues", eigenvalues)
        if eigenvalues.size < 5:
            raise ValueError("need at least 5 eigenvalues to test")


# ---------------------------------------------------------------------------
# Asymptotic null distribution of A^2
# ---------------------------------------------------------------------------


def _a2_series_term(j, z):
    """Magnitude of the j-th term of the classical series for P(A^2 <= z)."""
    from scipy import integrate

    coeff = math.exp(math.lgamma(j + 0.5) - math.lgamma(j + 1)) / math.sqrt(math.pi)
    b = (4 * j + 1) ** 2 * math.pi**2 / (8.0 * z)
    if b > 700.0:  # exp underflow; the term is zero to double precision
        return 0.0

    def integrand(w):
        return math.exp(z / (8.0 * (1.0 + w * w)) - b * w * w)

    integral, _ = integrate.quad(integrand, 0.0, np.inf, epsabs=1e-13, epsrel=1e-10)
    return coeff * (4 * j + 1) * math.exp(-b) * integral


def a2_null_cdf(z):
    """P(A^2 <= z) under the fully-specified null, asymptotic in sample size.

    Classical alternating-series representation (one quadrature per
    term), summed until the terms vanish; accurate to well below 1e-6
    across the range where the answer is not 0 or 1 to double precision.
    """
    z = float(z)
    if z <= 0.0:
        return 0.0
    if z < 0.05:
        # mass below 0.05 is < 1e-100; avoids needless quadrature
        return 0.0
    total = 0.0
    for j in range(200):
        term = _a2_series_term(j, z)
        total += term if j % 2 == 0 else -term
        if term < 1e-16 * max(abs(total), 1e-300) and j >= 2:
            break
    return min(1.0, max(0.0, math.sqrt(2.0 * math.pi) / z * total))


def a2_null_sf(z):
    """Upper tail P(A^2 > z) of the asymptotic null."""
    return max(0.0, 1.0 - a2_null_cdf(z))


# ---------------------------------------------------------------------------
# The statistic
# ---------------------------------------------------------------------------


def anderson_darling(sample, model_cdf):
    """Anderson-Darling test of a sample against a fully specified CDF.

    Parameters
    ----------
    sample : array_like or EmpiricalSpectrumSample
        The data; sorted internally.
    model_cdf : callable
        Vectorized CDF of the null model.

    Returns
    -------
    (statistic, p_value)
        The A^2 statistic and the upper-tail probability under the
        asymptotic null.  Probability transforms that hit 0 or 1 exactly
        (data on or outside the support edge) are clamped to 1e-15 away
        from the boundary and a RuntimeWarning is emitted; run a support
        check first if that matters (the rank test does).
    """
    if isinstance(sample, EmpiricalSpectrumSample):
        x = sample.eigenvalues
    else:
        x = np.sort(np.asarray(sample, dtype=float))
    nbar = x.size
    if nbar < 5:
        raise ValueError("need at least 5 sample points")
    u = np.asarray(model_cdf(x), dtype=float)
    if np.any(u <= 0.0) or np.any(u >= 1.0):
        warnings.warn(
            "probability transform hit the support boundary; clamping",
            RuntimeWarning,
            stacklevel=2,
        )
        u = np.clip(u, _CLAMP, 1.0 - _CLAMP)
    i = np.arange(1, nbar + 1)
    s = np.sum((2 * i - 1) * (np.log(u) + np.log1p(-u[::-1])))
    statistic = -nbar - s / nbar
    return float(statistic), a2_null_sf(statistic)


def sup_cdf_distance(sorted_values, cdf):
    """Kolmogorov distance between the empirical CDF and a model CDF.

    ``sorted_values`` must be ascending; the empirical CDF steps from
    (i-1)/m to i/m at the i-th value, and both sides of every step count.
    """
    m = sorted_values.size
    theory = np.asarray(cdf(sorted_values), dtype=float)
    upper = np.abs(np.arange(1, m + 1) / m - theory).max()
    lower = np.abs(np.arange(0, m) / m - theory).max()
    return float(max(upper, lower))


# ---------------------------------------------------------------------------
# Rank estimation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankCandidate:
    """One row of the rank-iteration table."""

    rank: int
    center: float
    radius: float
    statistic: float
    p_value: float
    p_eff: float
    in_support: bool
    signal_count: int


@dataclass(frozen=True)
class RankTestReport:
    """All candidate rows plus the accepted rank (None if nothing passed)."""

    candidates: tuple
    chosen_rank: int
    significance: float

    def candidate(self, r):
        return self.candidates[r]

    def to_json(self):
        return {
            "significance": self.significance,
            "chosen_rank": self.chosen_rank,
            "candidates": [
                {
                    "rank": c.rank,
                    "center": c.center,
                    "radius": c.radius,
                    "statistic": c.statistic,
                    "p_value": c.p_value,
                    "p_eff": c.p_eff,
                    "in_support": c.in_support,
                    "signal_count": c.signal_count,
                }
                for c in self.candidates
            ],
        }


def estimate_rank(spectrum, n, counts, significance=0.05, max_rank=None):
    """Iterate candidate signal ranks over a measured spectrum.

    Parameters
    ----------
    spectrum : Spectrum or array_like
        The 2**n measured eigenvalues.
    n : int
        Qubit number (redundant with the spectrum length; validated).
    counts : int
        Events per setting N used for the measurement; sets the radius.
    significance : float
        Acceptance threshold for the effective P-value.
    max_rank : int, optional
        Largest candidate rank; defaults to min(2**n - 5, 10) so the
        tested noise band never drops below 5 eigenvalues.

    Returns
    -------
    RankTestReport
        Rows for every candidate r; ``chosen_rank`` is the smallest r
        with p_eff >= significance and a positive center, or None.
    """
    if isinstance(spectrum, Spectrum):
        eigs = spectrum.eigenvalues
    else:
        eigs = np.sort(np.asarray(spectrum, dtype=float))
    n = int(n)
    dim = 2**n
    if eigs.size != dim:
        raise ValueError("expected %d eigenvalues, got %d" % (dim, eigs.size))
    if counts < 1:
        raise ValueError("counts must be >= 1")
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must lie strictly between 0 and 1")
    hard_cap = dim - 5
    if hard_cap < 0:
        raise ValueError("rank testing needs at least 5 eigenvalues (n >= 3)")
    if max_rank is None:
        max_rank = min(hard_cap, 10)
    max_rank = int(max_rank)
    if not 0 <= max_rank <= hard_cap:
        raise ValueError("max_rank must lie in 0..%d" % hard_cap)

    lam_min = float(eigs[0])
    rows = []
    chosen = None
    for r in range(max_rank + 1):
        noise = eigs[: dim - r]
        center = float(noise.mean())
        radius = semicircle_radius(n, counts, r)
        model = SemicircleModel(center=center, radius=radius)
        lo, hi = model.support
        in_support = bool(noise[0] >= lo and noise[-1] <= hi)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            statistic, p_value = anderson_darling(noise, model.cdf)
        p_eff = p_value if in_support else 0.0
        width = 2.0 * radius
        signal_count = int(np.count_nonzero(eigs > lam_min + width))
        rows.append(
            RankCandidate(
                rank=r,
                center=center,
                radius=radius,
                statistic=statistic,
                p_value=p_value,
                p_eff=p_eff,
                in_support=in_support,
                signal_count=signal_count,
            )
        )
        if chosen is None and p_eff >= significance and center > 0.0:
            chosen = r
    return RankTestReport(
        candidates=tuple(rows), chosen_rank=chosen, significance=significance
    )


def reconstruct_physical_estimate(eigenvalues, eigenvectors, report):
    """Physical state from a linear estimate's eigensystem and a rank report.

    Keeps the top-r eigenpairs, floors every remaining eigenvalue to the
    fitted noise center c, and rescales the trace to exactly 1.  The
    bookkeeping identity c (2**n - r) + (top-r sum) = 1 makes the rescale
    a no-op up to rounding; the result is positive semidefinite whenever
    c > 0.
    """
    if report.chosen_rank is None:
        raise NoAcceptedRankError("no candidate rank was accepted")
    eigenvalues = np.asarray(eigenvalues, dtype=float)
    eigenvectors = np.asarray(eigenvectors, dtype=complex)
    if np.any(np.diff(eigenvalues) < 0):
        raise ValueError("eigenvalues must be ascending and match the vectors")
    r = report.chosen_rank
    c = report.candidate(r).center
    dim = eigenvalues.size
    floored = np.full(dim, c)
    if r > 0:
        floored[dim - r :] = eigenvalues[dim - r :]
    total = floored.sum()
    if total <= 0:
        raise ValueError("non-positive total weight; cannot normalize")
    floored /= total
    return (eigenvectors * floored) @ eigenvectors.conj().T


def unphysical_fraction(spectra):
    """Fraction of spectra with at least one strictly negative eigenvalue."""
    rows = getattr(spectra, "spectra", spectra)
    rows = np.asarray(rows, dtype=float)
    if rows.ndim == 1:
        rows = rows[None, :]
    if rows.size == 0:
        raise ValueError("empty ensemble")
    return float(np.mean(rows.min(axis=1) < 0.0))
