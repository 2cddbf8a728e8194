"""End-to-end acceptance gate: ten numbered criteria, one test each.

Every stochastic criterion runs with a pinned master seed, so each test
is deterministic; the quoted measured values come from the calibration
run that froze those seeds.  Runtimes below come from a
``--durations=10`` run on a 2-vCPU guest: the whole suite takes about
four minutes, dominated by criteria 3 and 5 (documented per
test; the >20 s ones carry the ``slow`` marker so they can be selected or skipped explicitly, but they run in
the default invocation on purpose).
"""

import math

import numpy as np
import pytest

import tomospectra as ts
from tomospectra.cli import main as cli_main
from tomospectra.gof import sup_cdf_distance
from tomospectra.pauli import PauliString, build_state, setting_probability_table


def overcomplete_config(n, counts, replicas, seed, **state_kw):
    kind = state_kw.pop("kind", "white_noise")
    return ts.ExperimentConfig.overcomplete(
        ts.StateSpec(kind=kind, n=n, **state_kw),
        ts.CountModel(ts.MULTINOMIAL, counts),
        replicas=replicas,
        master_seed=seed,
    )


def test_criterion_01_radius_formula():
    """Closed-form radius at n=6, N=100.  Runtime: instant."""
    radius = ts.semicircle_radius(6, 100, 0)
    assert radius == pytest.approx(0.115741, abs=1e-6)
    print("criterion 1 PASS: semicircle_radius(6, 100, 0) = %.7f "
          "(0.115741 +- 1e-6)" % radius)


def test_criterion_02_min_counts_and_center():
    """Count threshold and shifted center at n=6, q=0.8.  Runtime: instant."""
    n0 = ts.min_counts(6, 0.8)
    center = ts.semicircle_center(6, 0.8, 1)
    assert n0 == 132921
    assert center == pytest.approx(0.0031746, abs=1e-7)
    print("criterion 2 PASS: min_counts(6, 0.8) = %d (exactly 132921); "
          "center = %.7f (0.0031746 +- 1e-7)" % (n0, center))


@pytest.mark.slow
def test_criterion_03_semicircle_moments():
    """White noise n=6, N=100, 10^4 replicas: m2 within 2% of (0.115741/2)^2,
    m4/m2^2 = 2 +- 0.1, m6/m2^3 = 5 +- 0.5.

    Runtime ~105 s.  Measured at seed 1: m2 ratio 1.00007, m4/m2^2 =
    2.00034, m6/m2^3 = 5.00385.
    """
    ens = ts.run_ensemble(overcomplete_config(6, 100, 10**4, seed=1))
    m = ens.moments(6)
    target = (0.115741 / 2.0) ** 2
    ratio2 = m[2] / target
    ratio4 = m[4] / m[2] ** 2
    ratio6 = m[6] / m[2] ** 3
    assert abs(ratio2 - 1.0) <= 0.02
    assert 1.9 <= ratio4 <= 2.1
    assert 4.5 <= ratio6 <= 5.5
    print("criterion 3 PASS: m2/(R/2)^2 = %.5f (1 +- 0.02), m4/m2^2 = %.5f "
          "(2 +- 0.1), m6/m2^3 = %.5f (5 +- 0.5)" % (ratio2, ratio4, ratio6))


def test_criterion_04_single_qubit_cdf():
    """n=1, N=100, 10^5 replicas: sup distance between the pooled empirical
    CDF and the exact one-qubit law <= 0.01.

    Runtime ~2 s.  Measured at seed 2: 0.00784.
    """
    ens = ts.run_ensemble(overcomplete_config(1, 100, 10**5, seed=2))
    model = ts.single_qubit_density(100)
    sup = sup_cdf_distance(np.sort(ens.pooled), model.cdf)
    assert sup <= 0.01
    print("criterion 4 PASS: sup-CDF distance = %.5f (<= 0.01)" % sup)


@pytest.mark.slow
def test_criterion_05_unphysical_fractions():
    """Unphysical fractions at N=100: n=2 (10^6 replicas) <= 1e-4,
    n=3 (10^4) = 0.32 +- 0.02, n=4 (10^4) >= 0.999.

    Runtime ~60 s, dominated by the 10^6-replica n=2 run.  Measured at
    seeds 52/53/54: 3e-06, 0.3057, 1.00000.
    """
    f2 = ts.run_ensemble(
        overcomplete_config(2, 100, 10**6, seed=52)
    ).unphysical_fraction()
    assert f2 <= 1e-4
    f3 = ts.run_ensemble(
        overcomplete_config(3, 100, 10**4, seed=53)
    ).unphysical_fraction()
    assert 0.30 <= f3 <= 0.34
    f4 = ts.run_ensemble(
        overcomplete_config(4, 100, 10**4, seed=54)
    ).unphysical_fraction()
    assert f4 >= 0.999
    print("criterion 5 PASS: unphysical fractions n=2: %.2e (<= 1e-4), "
          "n=3: %.4f (0.32 +- 0.02), n=4: %.5f (>= 0.999)" % (f2, f3, f4))


@pytest.mark.slow
def test_criterion_06_ghz_at_the_count_threshold():
    """GHZ+noise, n=6, q=0.8, N=132921, 2500 replicas: physical fraction
    0.959 +- 0.02 and pooled largest-eigenvalue mean 0.803 +- 0.003.

    Runtime ~25 s.  Measured at seed 6: 0.9540 and 0.803134.
    """
    ens = ts.run_ensemble(
        overcomplete_config(
            6, 132921, 2500, seed=6, kind="ghz_plus_noise", q=0.8
        )
    )
    physical = 1.0 - ens.unphysical_fraction()
    top_mean = float(ens.spectra[:, -1].mean())
    assert physical == pytest.approx(0.959, abs=0.02)
    assert top_mean == pytest.approx(0.803, abs=0.003)
    print("criterion 6 PASS: physical fraction = %.4f (0.959 +- 0.02), "
          "largest-eigenvalue mean = %.6f (0.803 +- 0.003)"
          % (physical, top_mean))


@pytest.mark.slow
def test_criterion_07_complete_vs_overcomplete():
    """Projector scheme, n=6, N_total=4e6, 150 replicas: m2 within 10% of
    4^n/N_total; the Laplace law beats a variance-matched semicircle in
    sup-CDF distance; every replica is unphysical.  The overcomplete
    scheme at the same budget (N = 4e6/729 per setting) stays >= 95%
    physical over 2000 replicas.

    Runtime ~22 s.  Measured at seeds 7/71: m2 ratio 1.0096, sup 0.0170
    vs 0.0835, fractions 1.0000 and 0.9645.
    """
    cfg = ts.ExperimentConfig.complete(
        ts.StateSpec(kind="white_noise", n=6), 4e6, replicas=150, master_seed=7
    )
    ens = ts.run_ensemble(cfg)
    target = 4**6 / 4e6
    m2 = ens.moments(2)[2]
    assert abs(m2 / target - 1.0) <= 0.10

    laplace = ts.laplace_model(6, 4e6)
    semicircle = ts.SemicircleModel(center=2.0**-6, radius=2.0 * math.sqrt(target))
    pooled = np.sort(ens.pooled)
    sup_lap = sup_cdf_distance(pooled, laplace.cdf)
    sup_semi = sup_cdf_distance(pooled, semicircle.cdf)
    assert sup_lap < sup_semi
    assert ens.unphysical_fraction() == 1.0

    n_over = round(4e6 / 729)
    ens_over = ts.run_ensemble(overcomplete_config(6, n_over, 2000, seed=71))
    physical = 1.0 - ens_over.unphysical_fraction()
    assert physical >= 0.95
    print("criterion 7 PASS: complete m2/(4^n/Nt) = %.4f (1 +- 0.1), "
          "sup laplace %.4f < sup semicircle %.4f, complete unphysical = %.4f "
          "(= 1), overcomplete physical = %.4f (>= 0.95 at N=%d)"
          % (m2 / target, sup_lap, sup_semi, ens.unphysical_fraction(),
             physical, n_over))


def test_criterion_08_rank_iteration_table():
    """Rank iteration at n=6, N=230.

    Deterministic part: a spectrum carrying the published top five
    eigenvalues {0.61024, 0.21595, 0.14949, 0.07171, 0.06371} (the 59
    unlisted ones enter the candidate centers only through the unit
    trace, so a constant filler reproduces every center exactly) yields
    the reference centers and radii for r = 0..5 to 1e-6, with the r=4
    row rejected for its negative center.

    Statistical part: on simulated rank-3 signal + noise (q=0.8, 200
    replicas), the estimated rank equals 3 in at least 90% of replicas.

    Runtime ~5 s.  Measured at master seed 8 / subspace seed 80: 187/200.
    """
    top5 = [0.61024, 0.21595, 0.14949, 0.07171, 0.06371]
    filler = (1.0 - sum(top5)) / 59.0
    spectrum = np.sort(np.concatenate([np.full(59, filler), top5]))
    report = ts.estimate_rank(spectrum, 6, 230, max_rank=5)
    expected_centers = [0.015625, 0.006187, 0.002803, 0.000399,
                        -0.000790, -0.001883]
    expected_radii = [0.076317, 0.075719, 0.075115, 0.074507,
                      0.073894, 0.073275]
    for r in range(6):
        assert report.candidate(r).center == pytest.approx(
            expected_centers[r], abs=1e-6
        ), "center mismatch at rank %d" % r
        assert report.candidate(r).radius == pytest.approx(
            expected_radii[r], abs=1e-6
        ), "radius mismatch at rank %d" % r
    assert report.candidate(4).center < 0.0  # rejected outright

    ens = ts.run_ensemble(
        ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="rank_r_plus_noise", n=6, q=0.8, r=3, seed=80),
            ts.CountModel(ts.MULTINOMIAL, 230),
            replicas=200,
            master_seed=8,
        )
    )
    hits = sum(
        ts.estimate_rank(row, 6, 230).chosen_rank == 3 for row in ens.spectra
    )
    assert hits / 200 >= 0.90
    print("criterion 8 PASS: table centers/radii match to 1e-6 for r=0..5 "
          "(r=4 center %.6f < 0 rejected); rank-3 recovery = %d/200 (>= 0.90)"
          % (report.candidate(4).center, hits))


def test_criterion_09_correlation_variances():
    """n=2, N=300, 10^4 replicas: the nine full-correlation estimates have
    sample variance within 10% of 1/N, the six single-identity ones
    within 10% of 1/(3N).

    Runtime ~1 s.  Measured at seed 9: mean ratios 0.9969 and 0.9948.
    """
    probs = setting_probability_table(
        build_state(ts.StateSpec(kind="white_noise", n=2)), 2
    )
    model = ts.CountModel(ts.MULTINOMIAL, 300)
    reps = 10**4
    freqs = ts.replica_frequencies(probs, model, 9, range(reps))
    values, _ = ts.correlations_from_frequencies(freqs, 2)
    j_index = np.array([PauliString.from_index(mu, 2).weight_j for mu in range(16)])
    variances = values.var(axis=0, ddof=1)
    full = variances[j_index == 0] * 300.0        # ratio to 1/N
    single = variances[(j_index == 1) & (np.arange(16) != 0)] * 900.0  # to 1/(3N)
    assert np.all(np.abs(full - 1.0) <= 0.10)
    assert np.all(np.abs(single - 1.0) <= 0.10)
    print("criterion 9 PASS: full-correlation variance ratios in "
          "[%.3f, %.3f] (1 +- 0.1), j=1 ratios in [%.3f, %.3f] (1 +- 0.1)"
          % (full.min(), full.max(), single.min(), single.max()))


def test_criterion_10_thread_determinism(tmp_path, capsys):
    """The simulate command writes byte-identical spectra.csv for any
    --threads value at a fixed seed.  Runtime under 1 s.
    """
    blobs = []
    for threads, name in ((1, "t1"), (3, "t3")):
        out = tmp_path / name
        code = cli_main(
            ["simulate", "--qubits", "3", "--counts", "120", "--reps", "48",
             "--seed", "1234", "--threads", str(threads), "--out", str(out)]
        )
        capsys.readouterr()
        assert code == 0
        blobs.append((out / "spectra.csv").read_bytes())
    assert blobs[0] == blobs[1]
    print("criterion 10 PASS: spectra.csv byte-identical across "
          "--threads 1 and 3 (%d bytes)" % len(blobs[0]))
