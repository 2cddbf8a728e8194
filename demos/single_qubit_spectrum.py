"""One qubit is special: its eigenvalue law is exact, not asymptotic.

A single-qubit linear estimate has eigenvalues (1 +- |T|)/2 where T is
the estimated Bloch vector.  With N events per setting its three
components fluctuate like independent Gaussians of variance 1/N, which
gives the eigenvalues the density

    g(x) ~ exp(-(1 - 2x)^2 N / 2) (1 - 2x)^2 .

Instead of a semicircle this has a *dip to zero* at x = 1/2 — the
eigenvalues repel the center.  The script verifies the law against
100000 simulated replicas with a Kolmogorov-style sup-CDF distance.
"""

import numpy as np

import tomospectra as ts

EVENTS = 100
REPLICAS = 100_000

config = ts.ExperimentConfig.overcomplete(
    ts.StateSpec(kind="white_noise", n=1),
    ts.CountModel(ts.MULTINOMIAL, EVENTS),
    replicas=REPLICAS,
    master_seed=7,
)
print("simulating %d single-qubit reconstructions at N=%d ..."
      % (REPLICAS, EVENTS))
ensemble = ts.run_ensemble(config)
model = ts.SingleQubitModel(EVENTS)

pooled = np.sort(ensemble.pooled)
theory = model.cdf(pooled)
grid = np.arange(1, pooled.size + 1) / pooled.size
sup = max(
    np.abs(grid - theory).max(),
    np.abs(grid - 1.0 / pooled.size - theory).max(),
)

print()
print("pooled eigenvalues: %d" % pooled.size)
print("sup |empirical CDF - exact CDF| = %.5f" % sup)
print("density at the center g(1/2)   = %.3f (exactly zero by symmetry)"
      % model.pdf(0.5))

# the dip: count eigenvalues in a narrow window around 1/2 and compare
for width in (0.02, 0.05, 0.1):
    empirical = np.mean(np.abs(pooled - 0.5) < width)
    predicted = model.cdf(0.5 + width) - model.cdf(0.5 - width)
    print("P(|x - 1/2| < %.2f): simulated %.4f, predicted %.4f"
          % (width, empirical, predicted))

print()
print("a semicircle would put its *maximum* density at the center;")
print("the exact one-qubit law puts a zero there instead.")
