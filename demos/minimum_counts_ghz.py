"""Planning a measurement: how many events until the estimate is a state?

For a target state q * |GHZ><GHZ| + (1 - q) I/2^n the noise bulk of the
spectrum sits at c = (1 - q)/(2^n - 1); the estimate is physical once
the semicircle radius drops below that, which happens at

    N0 = 4 (5/6)^n ((2^n - 1)/(1 - q))^2

events per setting.  The script evaluates N0 for a 4-qubit GHZ state at
q = 0.8, then simulates just below and just at the threshold to show the
physical fraction snapping from near zero to near-certainty.

(The threshold criterion R = c puts the semicircle edge exactly at zero;
right at N0 the smallest eigenvalue straddles zero, so the physical
fraction lands near 98%, not yet at 100%.)
"""

import tomospectra as ts

N_QUBITS = 4
Q = 0.8
REPLICAS = 4000

n0 = ts.min_counts(N_QUBITS, Q)
center = ts.overcomplete_law(N_QUBITS, n0, Q, 1).center
print("state: %.1f * GHZ + %.1f * I/16 on %d qubits" % (Q, 1 - Q, N_QUBITS))
print("noise-bulk center c = %.6f" % center)
print("count threshold  N0 = %d events per setting" % n0)
print()

for label, events in [("N0 / 4", n0 // 4), ("N0 / 2", n0 // 2), ("N0", n0),
                      ("4 N0", 4 * n0)]:
    config = ts.ExperimentConfig.overcomplete(
        ts.StateSpec(kind="ghz_plus_noise", n=N_QUBITS, q=Q),
        ts.CountModel(ts.MULTINOMIAL, events),
        replicas=REPLICAS,
        master_seed=events,  # any fixed seed works; keep runs distinct
    )
    ensemble = ts.run_ensemble(config)
    physical = 1.0 - ensemble.unphysical_fraction()
    edge = ts.overcomplete_law(N_QUBITS, events, Q, 1).support[0]
    print("  N = %-6d (%-6s):  edge c - R = %+.6f   physical fraction %.4f"
          % (events, label, edge, physical))

print()
print("the largest eigenvalue, meanwhile, concentrates on the signal")
print("weight: at N = %d its pooled mean over the last run is %.4f "
      "(target %.1f)." % (4 * n0, ensemble.spectra[:, -1].mean(), Q))
