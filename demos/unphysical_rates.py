"""How often does linear tomography return a non-state?

A linear estimate is Hermitian with unit trace but nothing forces its
eigenvalues to be nonnegative.  At fixed events per setting the noise
radius shrinks like sqrt((5/6)^n) while the center shrinks like 2^-n —
so the noise band slides below zero *exponentially fast* in the qubit
number, and the fraction of unphysical estimates jumps from "almost
never" to "always" within a couple of qubits.

The script measures that jump at N = 100 and compares it with the
independent-eigenvalue estimate of the physicality probability.
"""

import math

import tomospectra as ts

EVENTS = 100
REPLICAS = {1: 20000, 2: 20000, 3: 5000, 4: 2000}

print("fraction of unphysical linear estimates at N = %d events/setting"
      % EVENTS)
print()
print("  n   simulated   replicas   c - R (predicted edge)   P(physical) model")
for n in (1, 2, 3, 4):
    config = ts.ExperimentConfig.overcomplete(
        ts.StateSpec(kind="white_noise", n=n),
        ts.CountModel(ts.MULTINOMIAL, EVENTS),
        replicas=REPLICAS[n],
        master_seed=100 + n,
    )
    fraction = ts.run_ensemble(config).unphysical_fraction()
    model = ts.SemicircleModel.for_state(n, EVENTS)
    edge = model.center - model.radius
    physical = ts.physicality_probability(n, EVENTS)
    print("  %d   %-9.5f   %-8d   %+.5f                  %.5f"
          % (n, fraction, REPLICAS[n], edge, physical))

print()
print("once c - R < 0 the semicircle support dips below zero and the")
print("physicality probability collapses; by n = 4 every replica is")
print("unphysical.  the counts per setting that keep the band above zero")
print("grow exponentially: white noise needs N >= 4 (10^n - 1)/3^n, and a")
print("weak rank-1 signal (q -> 0) the shorthand N0 = 4 (5/6)^n (2^n - 1)^2")
print("of min_counts:")
print()
print("  n   white noise   rank-1 N0")
for n in (2, 4, 6, 8):
    print("  %d   %-11d   %d"
          % (n, math.ceil(4 * (10**n - 1) / 3**n), ts.min_counts(n, 0.0)))
