"""Closed-form spectral statistics of finite-count linear estimates.

For the overcomplete local scheme on n qubits with N events per setting,
the eigenvalue distribution of a white-noise-dominated linear estimate is
a Wigner semicircle whose center and radius are

    c      = (1 - q) / (2**n - r)            (q = signal weight, r = rank)
    R_r    = 2 sqrt((10**n - 1) / 12**n) * sqrt(1 - r / 2**n) / sqrt(N)

The exact (10**n - 1)/12**n coefficient makes the second-moment identity
m2 = (R/2)**2 exact for multinomial sampling; the familiar (5/6)**(n/2)
form is its large-n shorthand and is used only where a printed threshold
convention requires it (see `min_counts`).

The complete projector scheme instead produces a two-sided exponential
(Laplace) eigenvalue law, and a single qubit has its own exact density;
both are provided here, together with the even-moment Catalan identities
and the probability that a semicircle-distributed spectrum is entirely
nonnegative.
"""

import math
from dataclasses import dataclass

import numpy as np
from scipy import integrate, special

MAX_QUBITS_ANALYTIC = 10

__all__ = [
    "SemicircleModel",
    "LaplaceModel",
    "SingleQubitModel",
    "semicircle_center",
    "semicircle_radius",
    "semicircle_width",
    "semicircle_moment",
    "min_counts",
    "physicality_probability",
    "single_qubit_density",
    "laplace_model",
    "catalan",
]


def _check_n(n):
    n = int(n)
    if not 1 <= n <= MAX_QUBITS_ANALYTIC:
        raise ValueError("qubit number must be in 1..%d" % MAX_QUBITS_ANALYTIC)
    return n


def semicircle_center(n, q=0.0, r=0):
    """Center c = (1 - q)/(2**n - r) of the noise-eigenvalue semicircle.

    q is the weight of a rank-r signal part mixed into white noise; the
    plain white-noise center 2**-n is the q = 0, r = 0 case.
    """
    n = _check_n(n)
    if not 0.0 <= q <= 1.0:
        raise ValueError("signal weight q must lie in [0, 1]")
    if not 0 <= r < 2**n:
        raise ValueError("rank r must lie in 0..2**n - 1")
    return (1.0 - q) / (2**n - r)


def semicircle_radius(n, counts, r=0):
    """Radius R_r of the semicircle at N events per setting.

    R_r = 2 sqrt((10**n - 1)/12**n) sqrt(1 - r/2**n) / sqrt(N); the rank
    correction shrinks the radius because r eigenvalues leave the bulk.
    """
    n = _check_n(n)
    if counts < 1:
        raise ValueError("counts must be >= 1")
    if not 0 <= r < 2**n:
        raise ValueError("rank r must lie in 0..2**n - 1")
    base = 2.0 * math.sqrt((10**n - 1) / (12**n * float(counts)))
    return base * math.sqrt(1.0 - r / 2**n)


def semicircle_width(n, counts, r=0):
    """Full support width w_r = 2 R_r of the noise band."""
    return 2.0 * semicircle_radius(n, counts, r)


@dataclass(frozen=True)
class SemicircleModel:
    """Wigner semicircle with center c and radius R."""

    center: float
    radius: float

    def __post_init__(self):
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    @classmethod
    def for_noise(cls, n, counts, q=0.0, r=0):
        return cls(semicircle_center(n, q, r), semicircle_radius(n, counts, r))

    @classmethod
    def for_state(cls, n, counts, q, r):
        """The noise bulk of a q-weighted rank-r signal mixed into white noise.

        A single signal eigenvalue barely deforms the bulk, so r = 1 with
        q > 0 keeps the unshrunk radius; any other r gets the rank
        correction, as in `for_noise`.
        """
        radius_rank = 0 if r == 1 and q > 0 else r
        return cls(semicircle_center(n, q, r), semicircle_radius(n, counts, radius_rank))

    @property
    def support(self):
        return (self.center - self.radius, self.center + self.radius)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        arg = self.radius**2 - (x - self.center) ** 2
        out = np.where(arg > 0, 2.0 / (np.pi * self.radius**2) * np.sqrt(np.clip(arg, 0, None)), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = np.clip((x - self.center) / self.radius, -1.0, 1.0)
        out = 0.5 + (z * np.sqrt(1.0 - z**2) + np.arcsin(z)) / np.pi
        return out if out.ndim else float(out)

    def central_moment(self, k):
        return semicircle_moment(self, k)


def catalan(k):
    """k-th Catalan number, exact integer arithmetic.

    C_0 = 1 and C_{k+1} = C_k * 2(2k + 1)/(k + 2); the division is exact
    at every step.  Python integers are unbounded, so no overflow occurs
    at any k.
    """
    k = int(k)
    if k < 0:
        raise ValueError("k must be >= 0")
    c = 1
    for i in range(k):
        c = c * 2 * (2 * i + 1) // (i + 2)
    return c


def semicircle_moment(model, k):
    """k-th central moment of the semicircle: 0 for odd k, else C_{k/2} (R/2)**k."""
    k = int(k)
    if k < 1:
        raise ValueError("moment order must be >= 1")
    if k % 2:
        return 0.0
    return catalan(k // 2) * (model.radius / 2.0) ** k


# Printed reference thresholds use the (5/6)**n shorthand for the radius
# coefficient, so the count threshold does too.
def min_counts(n, q):
    """Smallest events-per-setting N making the noise band nonnegative.

    Solves R <= c for a rank-1 signal of weight q:
    N0 = 4 (5/6)**n ((2**n - 1)/(1 - q))**2, rounded up to an integer.
    Thresholds within one part in 10**6 of an integer from above are
    rounded down to it — the convention the reference values use; see the
    companion minimality property in the tests.

    Diverges as q -> 1 (a pure state needs infinitely many counts for a
    nonnegative linear estimate).
    """
    n = _check_n(n)
    if not 0.0 <= q <= 1.0:
        raise ValueError("signal weight q must lie in [0, 1]")
    if q == 1.0:
        raise ValueError("the count threshold diverges as q -> 1")
    exact = 4.0 * 5**n * (2**n - 1) ** 2 / (6**n * (1.0 - q) ** 2)
    return math.ceil(exact * (1.0 - 1e-6))


def physicality_probability(model, n):
    """Probability that all 2**n - 1 noise eigenvalues are nonnegative.

    Treats the eigenvalues as independent semicircle draws (the signal
    eigenvalue sits far above zero and is excluded): the semicircle mass
    on [max(0, c - R), c + R], raised to the 2**n - 1 power.  Equals 1
    as soon as the support is entirely nonnegative (c >= R).

    The approximation holds while the support clears zero: white noise at
    N=100 with n=2 (c - R = +0.084) is predicted always physical and
    measured unphysical at a rate of 3e-6.  Once the edge crosses zero
    it is too optimistic, because the eigenvalues of one replica repel
    and its smallest one is not the minimum of independent draws: at
    n=3 (c - R = -0.027) it predicts 0.731 physical against a measured
    0.69-0.70, and at n=4 it predicts 0.022 against a measured < 0.001.
    """
    n = _check_n(n)
    lo = max(0.0, model.center - model.radius)
    mass = model.cdf(model.center + model.radius) - model.cdf(lo)
    mass = min(max(mass, 0.0), 1.0)
    return mass ** (2**n - 1)


@dataclass(frozen=True)
class LaplaceModel:
    """Two-sided exponential eigenvalue law of the projector scheme."""

    center: float
    alpha: float

    def __post_init__(self):
        if self.alpha <= 0:
            raise ValueError("decay rate alpha must be positive")

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        out = 0.5 * self.alpha * np.exp(-self.alpha * np.abs(x - self.center))
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        z = x - self.center
        out = np.where(z < 0, 0.5 * np.exp(self.alpha * z), 1.0 - 0.5 * np.exp(-self.alpha * z))
        return out if out.ndim else float(out)

    @property
    def second_central_moment(self):
        return 2.0 / self.alpha**2


def laplace_model(n, total_counts):
    """Laplace law for the projector scheme at N_total events overall.

    alpha = sqrt(2 N_total / 4**n); the second central moment is then
    4**n / N_total.
    """
    n = _check_n(n)
    if total_counts < 1:
        raise ValueError("total counts must be >= 1")
    return LaplaceModel(center=2.0**-n, alpha=math.sqrt(2.0 * total_counts / 4**n))


@dataclass(frozen=True)
class SingleQubitModel:
    """Exact one-qubit eigenvalue density at N events per setting.

    g(lambda) = C exp(-(1 - 2 lambda)**2 N / 2) (1 - 2 lambda)**2, the
    distribution of (1 +- |T~|)/2 with the three correlation estimates
    fluctuating like independent Gaussians of variance 1/N.  The
    normalization C is fixed by quadrature (and agrees with the
    closed-form sqrt(2/pi) N**1.5 to the quadrature tolerance).
    """

    counts: int
    normalization: float

    def __call__(self, x):
        return self.pdf(x)

    def pdf(self, x):
        x = np.asarray(x, dtype=float)
        u = 1.0 - 2.0 * x
        out = self.normalization * np.exp(-0.5 * u**2 * self.counts) * u**2
        return out if out.ndim else float(out)

    def cdf(self, x):
        # integral of the pdf; erfc form, exact for the quadrature C
        x = np.asarray(x, dtype=float)
        a = 0.5 * self.counts
        u = 1.0 - 2.0 * x
        tail = u * np.exp(-a * u**2) / (2.0 * a) + (
            math.sqrt(math.pi) / (4.0 * a**1.5)
        ) * special.erfc(math.sqrt(a) * u)
        out = 0.5 * self.normalization * tail
        return out if out.ndim else float(out)


def single_qubit_density(counts):
    """Build the exact single-qubit eigenvalue model for N events per setting."""
    counts = int(counts)
    if counts < 1:
        raise ValueError("counts must be >= 1")
    a = 0.5 * counts
    half_width = 10.0 / math.sqrt(counts)

    def unnormalized(x):
        u = 1.0 - 2.0 * x
        return math.exp(-a * u * u) * u * u

    mass, _ = integrate.quad(
        unnormalized, 0.5 - half_width, 0.5 + half_width, epsrel=1e-8, limit=200
    )
    return SingleQubitModel(counts=counts, normalization=1.0 / mass)
