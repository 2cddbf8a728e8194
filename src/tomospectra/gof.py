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
testing, not fitted to the tested sample's shape), computed with NumPy
alone, so the module needs no SciPy.  The classical alternating series
is summed over its first 12 terms, and each term's integral becomes,
after w = sinh t, a trapezoid sum over the fixed nodes t = 0, 0.1, ..., 5
shared by every term; all terms are one vectorised expression.  Below
z = 0.05 the CDF is reported as 0 (the mass there is under 2e-10); at and
above z = 35 it is reported as 1, because 1 - P(A^2 <= z) is below
2**-53 there and the alternating series cancels catastrophically.
"""

import math
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from .models import SemicircleModel, _check_n, semicircle_radius
from .pauli import _integer, _real

_CLAMP = 1e-15


class NoAcceptedRankError(ValueError):
    """A rank-test report without an accepted rank was asked for a state."""


# ---------------------------------------------------------------------------
# Asymptotic null distribution of A^2
# ---------------------------------------------------------------------------


# P(A^2 <= z) = sqrt(2 pi)/z sum_j (-1)^j C(j) (4j+1) I_j(z), with
# C(j) = Gamma(j + 1/2) / (Gamma(1/2) j!) and, after w = sinh t,
# I_j(z) = int_0^inf exp(z / (8 cosh^2 t) - b_j cosh^2 t) cosh t dt,
# b_j = (4j+1)^2 pi^2 / (8z) (Anderson & Darling 1954).
#
# Every constant below is for z in [0.05, 35), the range where the CDF is
# computed.  Terms: the first one left out, j = 12, is below 1e-36 at
# z = 35 and smaller at lower z.  Step: the integrand is analytic for
# |Im t| < pi/4 and there bounded by about exp(z/4), so the trapezoid
# error is about exp(z/4 - pi^2/(2h)), under 3e-18 at h = 0.1.
# Truncation: past t = 5 the integrand is below 1e-82.
_A2_TERMS = 12
_A2_STEP = 0.1
_A2_NODES = np.arange(51) * _A2_STEP
# 1 - P(A^2 <= z), from the series evaluated at 50 digits, is 2.9e-16 at
# z = 34 and 1.04e-16 at z = 35, the first integer where it is below
# 2**-53.  The largest term is already 3.2 times the sum at z = 35 and
# grows like exp(z/8), so past the cutoff rounding would swamp 1 - P and
# break monotonicity.
_A2_ONE = 35.0


def _a2_series_constants():
    j = np.arange(_A2_TERMS)
    coeff = np.exp([math.lgamma(k + 0.5) - math.lgamma(k + 1.0) for k in j])
    signed = (-1.0) ** j * coeff * (4 * j + 1) / math.sqrt(math.pi)
    cosh2 = np.cosh(_A2_NODES) ** 2
    weights = _A2_STEP * np.cosh(_A2_NODES)
    weights[0] /= 2.0
    b_times_z = ((4 * j + 1) ** 2 * math.pi**2 / 8.0)[:, None] * cosh2
    return signed, 1.0 / (8.0 * cosh2), b_times_z, weights


_A2_SIGNED, _A2_INV8COSH2, _A2_BZ_COSH2, _A2_WEIGHTS = _a2_series_constants()


def a2_null_cdf(z):
    """P(A^2 <= z) under the fully-specified null, asymptotic in sample size.

    Classical alternating series, every term's integral a trapezoid sum
    on shared nodes (see the module docstring); within 2e-15 of a
    50-digit evaluation of the series on [0.05, 35), exactly 0 below
    0.05 and exactly 1 from 35 on.
    """
    z = float(z)
    if math.isnan(z):
        raise ValueError("the A^2 statistic is NaN")
    if z < 0.05:
        return 0.0
    if z >= _A2_ONE:
        return 1.0
    integrand = np.exp(z * _A2_INV8COSH2 - _A2_BZ_COSH2 / z)
    total = _A2_SIGNED @ integrand @ _A2_WEIGHTS
    return min(1.0, max(0.0, math.sqrt(2.0 * math.pi) / z * total))


# ---------------------------------------------------------------------------
# The statistic
# ---------------------------------------------------------------------------


def anderson_darling(sample, model_cdf):
    """Anderson-Darling test of a sample against a fully specified CDF.

    Parameters
    ----------
    sample : array_like
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
        check first if that matters (the rank test does).  A non-finite
        sample point, or a NaN probability transform, raises ValueError.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    nbar = x.size
    if nbar < 5:
        raise ValueError("need at least 5 sample points")
    if not np.isfinite(x).all():
        raise ValueError("the sample must be finite")
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
    return float(statistic), max(0.0, 1.0 - a2_null_cdf(statistic))


def sup_cdf_distance(sample, cdf):
    """Kolmogorov distance between the empirical CDF and a model CDF.

    ``sample`` is sorted internally; the empirical CDF steps from
    (i-1)/m to i/m at the i-th smallest value, and both sides of every
    step count.
    """
    x = np.sort(np.asarray(sample, dtype=float))
    m = x.size
    theory = np.asarray(cdf(x), dtype=float)
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
    """All candidate rows plus the accepted rank (None if nothing passed).

    ``candidates[r]`` is the row of candidate rank r.
    """

    candidates: tuple
    chosen_rank: int
    significance: float

    def to_json(self):
        return {
            "significance": self.significance,
            "chosen_rank": self.chosen_rank,
            "candidates": [asdict(c) for c in self.candidates],
        }


def estimate_rank(spectrum, n, counts, significance=0.05, max_rank=None):
    """Iterate candidate signal ranks over a measured spectrum.

    Parameters
    ----------
    spectrum : array_like
        The 2**n measured eigenvalues, all finite; sorted internally.
    n : int
        Qubit number (redundant with the spectrum length; validated).
    counts : int
        Events per setting N used for the measurement; sets the radius.
    significance : float
        Acceptance threshold for the effective P-value, a real number
        strictly between 0 and 1.
    max_rank : int, optional
        Largest candidate rank, in 0..2**n - 5; defaults to
        min(2**n - 5, 10) so the tested noise band never drops below 5
        eigenvalues.

    Returns
    -------
    RankTestReport
        Rows for every candidate r; ``chosen_rank`` is the smallest r
        with p_eff >= significance and a positive center, or None.

    An input outside these rules raises ValueError before any candidate
    is tested; a non-finite eigenvalue is one, since it has no place in a
    noise band.
    """
    eigs = np.sort(np.asarray(spectrum, dtype=float))
    n = _check_n(n)
    dim = 2**n
    if eigs.size != dim:
        raise ValueError("expected %d eigenvalues, got %d" % (dim, eigs.size))
    if not np.isfinite(eigs).all():
        raise ValueError("eigenvalues must be finite")
    significance = _real("significance", significance)
    if not 0.0 < significance < 1.0:
        raise ValueError("significance must lie strictly between 0 and 1, got %r" % significance)
    hard_cap = dim - 5
    if hard_cap < 0:
        raise ValueError("rank testing needs at least 5 eigenvalues (n >= 3)")
    if max_rank is None:
        max_rank = min(hard_cap, 10)
    max_rank = _integer("max_rank", max_rank, 0, hard_cap)

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
    dim = eigenvalues.size
    if np.any(np.diff(eigenvalues) < 0) or eigenvectors.shape != (dim, dim):
        raise ValueError("eigenvalues must be ascending and match the vectors")
    r = report.chosen_rank
    c = report.candidates[r].center
    floored = np.full(dim, c)
    if r > 0:
        floored[dim - r :] = eigenvalues[dim - r :]
    total = floored.sum()
    if total <= 0:
        raise ValueError("non-positive total weight; cannot normalize")
    floored /= total
    return (eigenvectors * floored) @ eigenvectors.conj().T
