"""Golden SHA-256 digests of the ``spectra.csv`` bytes ``save_ensemble`` writes.

Byte-level reproducibility is a contract: a fixed configuration and
master seed must give the same file, bit for bit, whatever the code
path in between.  Each case below pins the SHA-256 of ``spectra.csv``
for one small configuration, run in-process or over a worker pool; a
refactor of the replica chain must leave every digest unchanged.

The digests were taken with NumPy 2.4.6.  They depend on NumPy's
multinomial and Poisson samplers and on LAPACK's ``eigvalsh``, so a
different NumPy version may legitimately change them; a change of code
alone must not.
"""

import hashlib

import pytest

import tomospectra as ts

CASES = {
    "ovc1-multinomial": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="white_noise", n=1),
            ts.CountModel(ts.MULTINOMIAL, 100), replicas=16, master_seed=11),
        "667155992cd18a7e8c8b16a5c248e013d480984e700640dea4ff65aca41f11ab",
        1,
    ),
    "ovc6-rank3-multinomial": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="rank_r_plus_noise", n=6, q=0.8, r=3, seed=80),
            ts.CountModel(ts.MULTINOMIAL, 230), replicas=2, master_seed=8),
        "174d0b0e6538efc2cf1907d8405c4cd899ea98e26afa89d4cf4d15a2d00f0863",
        1,
    ),
    # at 300 expected events a setting is empty with probability e^-300
    "ovc3-poisson": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="ghz_plus_noise", n=3, q=0.6),
            ts.CountModel(ts.POISSON, 300), replicas=8, master_seed=33),
        "740c7d91e26189f61f238e2d4d3e552b068f27fc8cb041dcaeb2b6a0b458511f",
        1,
    ),
    "cmp3-poisson": (
        lambda: ts.ExperimentConfig.complete(
            ts.StateSpec(kind="white_noise", n=3), 1e5, replicas=8,
            master_seed=7),
        "d05fbc4536cbd1428a3eb04bb27daa13b6a884a76a79a4d65bbbef389f08e4c0",
        1,
    ),
    # 12 replicas over two workers make six batches, so this pins the
    # multi-batch worker path (what each worker is sent and rebuilds)
    "ovc4-dicke-workers2": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="dicke_plus_noise", n=4, q=0.7, k=2),
            ts.CountModel(ts.MULTINOMIAL, 150), replicas=12, master_seed=44),
        "c063932f6a1ec8d262149b72c560b78dc0b872741ab489e8cc5ebbc24fb404ba",
        2,
    ),
    # n=2 is the hot workload; 4001 replicas make batches of 1001, 1001,
    # 1001 and 998, so the run ends on a shorter stack than it starts with
    "ovc2-wn-partial": (
        lambda: ts.ExperimentConfig.overcomplete(
            ts.StateSpec(kind="white_noise", n=2),
            ts.CountModel(ts.MULTINOMIAL, 100), replicas=4001, master_seed=22),
        "08261cdebade365f1aad7a873ac9151f10dfab9a8d1284b0cdfa3e82ed9e73f4",
        1,
    ),
    # at n=1 each replica's frame inversion is a single (1, 4) x (4, 4)
    # product, which BLAS rounds differently from a (B, 4) x (4, 4) one
    "cmp1-rank1": (
        lambda: ts.ExperimentConfig.complete(
            ts.StateSpec(kind="rank_r_plus_noise", n=1, q=0.6, r=1, seed=12),
            2e4, replicas=40, master_seed=21),
        "851e58c51c66cfee41f9e82bf926313e06b922fe40fef141cca082617c2387e8",
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_spectra_csv_digest(name, tmp_path):
    make_config, digest, workers = CASES[name]
    ts.save_ensemble(ts.run_ensemble(make_config(), workers=workers), tmp_path)
    data = (tmp_path / "spectra.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
