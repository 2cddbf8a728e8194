"""The eigenvalue noise floor of linear tomography is a Wigner semicircle.

Reconstructing the maximally mixed state from finitely many measurement
events never returns eigenvalues exactly at 1/2^n: the multinomial noise
in the frequencies turns the spectrum into a narrow random cloud.  For
the overcomplete Pauli scheme that cloud has a sharp limiting shape — a
semicircle centered at 1/2^n whose radius falls off as 1/sqrt(N).

This script simulates a few thousand reconstructions at n = 4 qubits,
pools all eigenvalues, and compares the empirical moments and histogram
against the closed-form law.
"""

import numpy as np

import tomospectra as ts

N_QUBITS = 4
EVENTS = 200
REPLICAS = 3000

config = ts.ExperimentConfig.overcomplete(
    ts.StateSpec(kind="white_noise", n=N_QUBITS),
    ts.CountModel(ts.MULTINOMIAL, EVENTS),
    replicas=REPLICAS,
    master_seed=20240601,
)
print("simulating %d replicas of %d-qubit white-noise tomography at N=%d ..."
      % (REPLICAS, N_QUBITS, EVENTS))
ensemble = ts.run_ensemble(config)

model = ts.SemicircleModel.for_state(N_QUBITS, EVENTS)
moments = ensemble.moments(6)
half_sq = (model.radius / 2.0) ** 2

print()
print("predicted center  c = %.6f" % model.center)
print("predicted radius  R = %.6f  (support [%.6f, %.6f])"
      % (model.radius, *model.support))
print()
print("moment checks (pooled over %d eigenvalues):" % ensemble.pooled.size)
print("  m2 = %.3e   vs (R/2)^2 = %.3e   ratio %.4f"
      % (moments[2], half_sq, moments[2] / half_sq))
print("  m4/m2^2 = %.4f   (Catalan: 2)" % (moments[4] / moments[2] ** 2))
print("  m6/m2^3 = %.4f   (Catalan: 5)" % (moments[6] / moments[2] ** 3))

# ascii histogram against the pdf
print()
print("pooled eigenvalue histogram vs model density:")
lo, hi = model.support
edges = np.linspace(lo - 0.2 * model.radius, hi + 0.2 * model.radius, 33)
hist, _ = np.histogram(ensemble.pooled, bins=edges, density=True)
peak = max(hist.max(), model.pdf(model.center))
for k in range(32):
    mid = 0.5 * (edges[k] + edges[k + 1])
    bar = int(round(44 * hist[k] / peak))
    dot = int(round(44 * model.pdf(mid) / peak))
    line = [" "] * 46
    line[: bar] = "#" * bar
    if 0 <= dot < 46:
        line[dot] = "|"
    print("  %+.4f  %s" % (mid, "".join(line)))
print()
print("('#' = simulation, '|' = semicircle pdf)")
