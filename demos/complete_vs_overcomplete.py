"""Same event budget, different scheme, different spectral law.

Measuring all 3^n Pauli settings is overcomplete; a minimal alternative
measures the 4^n rank-1 projectors onto tensor products of |0>, |1>,
|+>, |+i> with independent Poissonian counts.  Both invert linearly,
but their eigenvalue clouds look nothing alike:

* overcomplete  -> Wigner semicircle, second moment (10^n-1)/(12^n N)
* complete      -> two-sided exponential (Laplace), second moment
                   4^n / N_total

and at the *same total budget* the complete scheme's cloud is far wider
— wide enough, beyond a few qubits, that every single estimate has
negative eigenvalues while the overcomplete scheme's estimates are
mostly physical.
"""

import numpy as np

import tomospectra as ts

N_QUBITS = 4
TOTAL = 500_000.0
REPLICAS = 400

per_setting = round(TOTAL / 3**N_QUBITS)
print("budget: %d events total on %d qubits" % (TOTAL, N_QUBITS))
print("  overcomplete: %d settings x %d events" % (3**N_QUBITS, per_setting))
print("  complete:     %d projectors, Poisson flux" % 4**N_QUBITS)
print()

over = ts.run_ensemble(ts.ExperimentConfig.overcomplete(
    ts.StateSpec(kind="white_noise", n=N_QUBITS),
    ts.CountModel(ts.POISSON, per_setting),
    replicas=REPLICAS, master_seed=1))
comp = ts.run_ensemble(ts.ExperimentConfig.complete(
    ts.StateSpec(kind="white_noise", n=N_QUBITS),
    total_counts=TOTAL, replicas=REPLICAS, master_seed=2))

semi = over.config.law()
lap = comp.config.law()

for name, ens, m2_pred in [
    ("overcomplete", over, (semi.radius / 2.0) ** 2),
    ("complete", comp, lap.second_central_moment),
]:
    m2 = ens.moments(2)[2]
    print("%-13s m2 = %.3e  predicted %.3e  ratio %.3f  unphysical %.3f"
          % (name, m2, m2_pred, m2 / m2_pred, ens.unphysical_fraction()))

# which law fits which cloud?  sup-CDF distances, cross-tabulated
semi_matched = ts.SemicircleModel(
    center=2.0**-N_QUBITS, radius=2.0 * np.sqrt(lap.second_central_moment))
print()
print("sup-CDF distances (rows: data, columns: model):")
print("                 semicircle   laplace")
print("  overcomplete   %.4f       %.4f"
      % (ts.sup_cdf_distance(over.pooled, semi.cdf),
         ts.sup_cdf_distance(over.pooled,
                             ts.LaplaceModel(center=semi.center,
                                             alpha=np.sqrt(2.0) / (semi.radius / 2.0)).cdf)))
print("  complete       %.4f       %.4f"
      % (ts.sup_cdf_distance(comp.pooled, semi_matched.cdf),
         ts.sup_cdf_distance(comp.pooled, lap.cdf)))
print()
print("each cloud prefers its own law: the semicircle's sharp support")
print("edge cannot imitate the Laplace tails, and vice versa.")
