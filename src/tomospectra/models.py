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

`overcomplete_law` is the one constructor of the overcomplete scheme's
law and the one place that decides white noise: a state with q = 0, or
with a signal of rank 0 or 2**n (that signal is I/2**n), is white noise.
At one qubit white noise gets the one-qubit law (`SingleQubitModel`);
any other white noise has center 2**-n, radius R_0 and 2**n bulk
eigenvalues, and any other state keeps the center c above and 2**n - r
bulk eigenvalues.  It keeps R_0 at r = 1, while the rank test
(`gof.estimate_rank`) bands every candidate r, r = 1 included, with R_r.
`physicality_probability` reads the same law, and `ExperimentConfig.law`
picks it or the Laplace law for a configuration.

The complete projector scheme instead produces a two-sided exponential
(Laplace) eigenvalue law, and a single qubit has its own closed-form
density, a Gaussian approximation of the count lattice; both are
provided here, together with the even-moment Catalan identities
and the probability that a spectrum drawn from the overcomplete law is
entirely nonnegative.
"""

import math
from dataclasses import dataclass

import numpy as np

from .pauli import _integer, _positive, _real, _signal_weight

MAX_QUBITS_ANALYTIC = 10


def _check_n(n):
    return _integer("qubit number", n, 1, MAX_QUBITS_ANALYTIC)


def _check_rank(n, r):
    return _integer("rank r", r, 0, 2**n - 1)


def _signal_rank(n, q, r):
    """The rank the bulk laws take for a q-weighted rank-r signal: 0 for white noise.

    r lies in 0..2**n.  A state with no signal weight is white noise, and
    so is one whose signal has rank 0 or the full rank 2**n: that signal
    is I/2**n.
    """
    n = _check_n(n)
    q = _signal_weight(q)
    r = _integer("signal rank r", r, 0, 2**n)
    return 0 if q == 0 or r == 2**n else r


def semicircle_center(n, q=0.0, r=0):
    """Center c = (1 - q)/(2**n - r) of the noise-eigenvalue semicircle.

    q is the weight of a rank-r signal part mixed into white noise; the
    plain white-noise center 2**-n is the q = 0, r = 0 case.
    """
    n = _check_n(n)
    return (1.0 - _signal_weight(q)) / (2**n - _check_rank(n, r))


def semicircle_radius(n, counts, r=0):
    """Radius R_r of the semicircle at N events per setting.

    R_r = 2 sqrt((10**n - 1)/12**n) sqrt(1 - r/2**n) / sqrt(N); the rank
    correction shrinks the radius because r eigenvalues leave the bulk.
    """
    n = _check_n(n)
    counts = _real("counts", counts, 1)
    r = _check_rank(n, r)
    base = 2.0 * math.sqrt((10**n - 1) / (12**n * counts))
    return base * math.sqrt(1.0 - r / 2**n)


@dataclass(frozen=True)
class SemicircleModel:
    """Wigner semicircle with center c and radius R."""

    center: float
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _real("center", self.center))
        object.__setattr__(self, "radius", _positive("radius", self.radius))

    @property
    def support(self):
        return (self.center - self.radius, self.center + self.radius)

    def to_json(self):
        return {"family": "semicircle", "center": self.center,
                "radius": self.radius, "width": 2.0 * self.radius}

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
        """k-th central moment: 0 for odd k, else C_{k/2} (R/2)**k."""
        k = _integer("moment order", k, 1)
        if k % 2:
            return 0.0
        return catalan(k // 2) * (self.radius / 2.0) ** k


def catalan(k):
    """k-th Catalan number C_k = binom(2k, k)/(k + 1), an exact integer."""
    k = _integer("k", k, 0)
    return math.comb(2 * k, k) // (k + 1)


# Printed reference thresholds use the (5/6)**n shorthand for the radius
# coefficient, so the count threshold does too.
def min_counts(n, q):
    """The rank-1 threshold: smallest events-per-setting N with a nonnegative rank-1 noise band.

    Solves R <= c for a rank-1 signal of weight q:
    N0 = 4 (5/6)**n ((2**n - 1)/(1 - q))**2, rounded up to an integer.
    Thresholds within one part in 10**6 of an integer from above are
    rounded down to it — the convention the reference values use; see the
    companion minimality property in the tests.

    The rank-1 formula holds for every q, q = 0 included, though a state
    with q = 0 is white noise, whose bulk needs more (45 against 25 at
    n = 2); a threshold for any state awaits the free-convolution law
    (ROADMAP item 8).

    Diverges as q -> 1 (a pure state needs infinitely many counts for a
    nonnegative linear estimate).
    """
    n = _check_n(n)
    q = _signal_weight(q)
    if q == 1.0:
        raise ValueError("the count threshold diverges as q -> 1")
    exact = 4.0 * 5**n * (2**n - 1) ** 2 / (6**n * (1.0 - q) ** 2)
    return math.ceil(exact * (1.0 - 1e-6))


def overcomplete_law(n, counts, q=0.0, r=1):
    """The overcomplete scheme's eigenvalue law for a q-weighted rank-r state at N = ``counts``.

    ``counts`` is an integer >= 1 and r lies in 0..2**n.  One-qubit white
    noise (see `_signal_rank`; the defaults give white noise) gets
    `SingleQubitModel`.  Every other state gets its noise-bulk semicircle:
    white noise has center 2**-n and radius R_0; otherwise the center is
    (1 - q)/(2**n - r).  A single signal eigenvalue barely deforms the
    bulk, so r = 1 keeps the unshrunk radius R_0; r >= 2 gets the rank
    correction R_r.
    """
    counts = _integer("counts", counts, 1)
    r = _signal_rank(n, q, r)
    if n == 1 and r == 0:
        return SingleQubitModel(counts)
    return SemicircleModel(semicircle_center(n, q if r else 0.0, r),
                           semicircle_radius(n, counts, r if r > 1 else 0))


def physicality_probability(n, counts, q=0.0, r=1):
    """Probability that every noise eigenvalue of a q-weighted rank-r state is nonnegative.

    Reads the law of `overcomplete_law`.  The one-qubit law pools the two
    eigenvalues (1 +- |T~|)/2, symmetric about 1/2, and only the smaller
    one can go negative, so the probability is 1 - 2 cdf(0): the chi-square
    (3 degrees of freedom) form erf(sqrt(N/2)) - sqrt(2N/pi) exp(-N/2).
    A semicircle bulk's eigenvalues are treated as independent draws (the
    signal eigenvalues sit far above zero and are excluded): the
    semicircle mass on [max(0, c - R), c + R], raised to the bulk's own
    eigenvalue count, 2**n for white noise and 2**n - r otherwise.  That
    equals 1 as soon as the support is entirely nonnegative (c >= R).

    At one qubit neither law holds for N <= 5, because the counts sit on a
    lattice of step 2/N.  Physical fractions of one-qubit white noise,
    10**5 replicas each (master seed 901), against the one-qubit law and
    the semicircle of center 1/2 and radius R_0: 0.4207 +- 0.0016 against
    0.6084 and 0.6472 at N=3, 0.7919 +- 0.0013 against 0.8282 and 0.7749
    at N=5, 0.9838 +- 0.0004 against 0.9814 and 0.9698 at N=10.

    The semicircle approximation holds while the support clears zero:
    white noise at N=100 with n=2 (c - R = +0.084) is predicted always
    physical and measured unphysical at a rate of 3e-6.  Once the edge
    crosses zero it still roughly matches at n=3 (c - R = -0.027): 0.6985
    predicted against 0.6928 +- 0.0019 measured over 6 x 10**4 replicas
    (seeds 35, 53 and 531 pooled), about 3 standard errors high.  At n=4
    it is too optimistic, because the eigenvalues of one replica repel and
    its smallest one is not the minimum of independent draws: it predicts
    0.0175 against no physical replica in 10**4.
    """
    law = overcomplete_law(n, counts, q, r)
    if isinstance(law, SingleQubitModel):
        return 1.0 - 2.0 * law.cdf(0.0)
    lo = max(0.0, law.center - law.radius)
    mass = law.cdf(law.center + law.radius) - law.cdf(lo)
    mass = min(max(mass, 0.0), 1.0)
    return mass ** (2**n - _signal_rank(n, q, r))


@dataclass(frozen=True)
class LaplaceModel:
    """Two-sided exponential eigenvalue law of the projector scheme."""

    center: float
    alpha: float

    def __post_init__(self):
        object.__setattr__(self, "center", _real("center", self.center))
        object.__setattr__(self, "alpha", _positive("decay rate alpha", self.alpha))

    def _decay(self, x):
        # alpha |x - c|, capped at 746 where exp(-746) has underflowed to 0,
        # so no far tail overflows
        return self.alpha * np.minimum(np.abs(x - self.center), 746.0 / self.alpha)

    def pdf(self, x):
        out = 0.5 * self.alpha * np.exp(-self._decay(np.asarray(x, dtype=float)))
        return out if out.ndim else float(out)

    def cdf(self, x):
        # one decaying exponential for both sides: the growing one overflows
        x = np.asarray(x, dtype=float)
        half = 0.5 * np.exp(-self._decay(x))
        out = np.where(x - self.center < 0, half, 1.0 - half)
        return out if out.ndim else float(out)

    @property
    def second_central_moment(self):
        return 2.0 / self.alpha**2

    def to_json(self):
        return {"family": "laplace", "center": self.center, "alpha": self.alpha}


def laplace_model(n, total_counts):
    """Laplace law for the projector scheme at N_total events overall.

    alpha = sqrt(2 N_total / 4**n); the second central moment is then
    4**n / N_total.  N_total is any positive number, as in `ExperimentConfig`.
    """
    n = _check_n(n)
    total_counts = _positive("total_counts", total_counts)
    return LaplaceModel(center=2.0**-n, alpha=math.sqrt(2.0 * total_counts / 4**n))


# math.erfc elementwise; its object-dtype results are cast back to float
_ERFC = np.frompyfunc(math.erfc, 1, 1)


def _capped_u(x):
    # 1 - 2x with |1 - 2x| capped at 40: from there on exp(-N u**2 / 2)
    # underflows and erfc saturates for every N >= 1, so the one-qubit pdf
    # and cdf already hold their limiting bits and no |x| can overflow
    return 1.0 - 2.0 * np.clip(x, -19.5, 20.5)


@dataclass(frozen=True)
class SingleQubitModel:
    """Gaussian one-qubit eigenvalue density at N = ``counts`` events per setting.

    g(lambda) = C exp(-(1 - 2 lambda)**2 N / 2) (1 - 2 lambda)**2, the
    distribution of (1 +- |T~|)/2 with the three correlation estimates
    treated as independent Gaussians of variance 1/N.  Multinomial
    counts put each estimate on a lattice of step 2/N instead, so the
    law is a continuum approximation: at N = 100 its sup-CDF distance to
    the exact multinomial law is 0.0075, and the exact law has an atom
    of mass 5.0e-4 at lambda = 1/2 where g vanishes.  The
    normalization C = sqrt(2/pi) N**1.5 is derived from N, an integer
    >= 1, so the density always integrates to exactly 1.  Outside
    [-19.5, 20.5] the pdf is 0 and the cdf 0 on the left; on the right
    the cdf is 1 to within an ulp, and exactly 1 at +inf.
    """

    counts: int

    def __post_init__(self):
        object.__setattr__(self, "counts", _integer("counts", self.counts, 1))

    @property
    def normalization(self):
        return math.sqrt(2.0 / math.pi) * self.counts**1.5

    def to_json(self):
        return {"family": "single_qubit", "counts": self.counts,
                "normalization": self.normalization}

    def pdf(self, x):
        u = _capped_u(np.asarray(x, dtype=float))
        out = self.normalization * np.exp(-0.5 * u**2 * self.counts) * u**2
        return out if out.ndim else float(out)

    def cdf(self, x):
        # integral of the pdf, in erfc form
        x = np.asarray(x, dtype=float)
        a = 0.5 * self.counts
        u = _capped_u(x)
        erfc = np.asarray(_ERFC(math.sqrt(a) * u), dtype=float)
        tail = u * np.exp(-a * u**2) / (2.0 * a) + (
            math.sqrt(math.pi) / (4.0 * a**1.5)
        ) * erfc
        # +inf keeps exactly 1; the finite limit is 1 only to within an ulp for some N
        out = np.where(x == np.inf, 1.0, 0.5 * self.normalization * tail)
        return out if out.ndim else float(out)
